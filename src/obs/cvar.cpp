// Control-variable registry (obs/cvar.hpp).
//
// Storage is a process-global table of relaxed atomics, seeded lazily from the
// environment on first access (magic-static init, thread-safe). String-valued
// variables (netmod_default, prof_default_phase, prof_path) keep their values
// under a mutex -- string reads are rare (World construction), so the lock is
// off every hot path.
#include "obs/cvar.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "core/config.hpp"

namespace lwmpi::obs {

const char* to_string(CvarScope s) noexcept {
  switch (s) {
    case CvarScope::Startup: return "startup";
    case CvarScope::Runtime: return "runtime";
    case CvarScope::Constant: return "constant";
  }
  return "?";
}

namespace {

constexpr CvarInfo kInfo[kNumCvars] = {
    {"sampler_interval_ms", "telemetry sampler period (ms); re-read every tick",
     CvarScope::Runtime, false, 100},
    {"sampler_ring_depth", "per-rank telemetry sample ring capacity (intervals kept)",
     CvarScope::Startup, false, 120},
    {"lat_sample_shift", "override BuildConfig::lat_sample_shift (1 in 2^n stamped)",
     CvarScope::Startup, false, 6},
    {"trace_enable", "override BuildConfig::trace (0/1)", CvarScope::Startup, false, 0},
    {"watchdog_stall_ms", "default WatchdogOptions no-progress window (ms)",
     CvarScope::Startup, false, 250},
    {"watchdog_poll_ms", "default WatchdogOptions sampling period (ms)",
     CvarScope::Startup, false, 20},
    {"netmod_default", "default WorldOptions::netmod backend name",
     CvarScope::Startup, true, 0, "mailbox"},
    {"prof", "enable the aggregate profiler (WorldOptions::prof default)",
     CvarScope::Startup, false, 0},
    {"prof_default_phase", "name of the profiler's default phase (phase 0)",
     CvarScope::Startup, true, 0, "main"},
    {"prof_path", "World-teardown profile JSON artifact path (empty = no file)",
     CvarScope::Startup, true, 0, ""},
    {"record", "enable the flight recorder (WorldOptions::record default)",
     CvarScope::Startup, false, 0},
    {"record_path", "flight-recorder trace-bundle prefix (empty = no flush)",
     CvarScope::Startup, true, 0, ""},
    {"record_ring_depth", "per-rank flight-recorder op-ring capacity (records kept)",
     CvarScope::Startup, false, 1024},
    {"record_sample_shift", "1 in 2^n recorded ops carry TSC timing (0 = stamp all)",
     CvarScope::Startup, false, 8},
    {"max_vcis", "compile-time per-rank VCI ceiling (echo)", CvarScope::Constant, false,
     kMaxVcis},
};

struct Registry {
  std::atomic<std::int64_t> value[kNumCvars];
  std::atomic<bool> overridden[kNumCvars];
  std::mutex str_mu;              // guards the string slots below
  std::string strs[kNumCvars];    // payloads of the is_string variables

  Registry() { load_env(); }

  // Seed every slot from its default, then apply LWMPI_CVAR_* bindings.
  void load_env() {
    for (int i = 0; i < kNumCvars; ++i) {
      value[i].store(kInfo[i].default_value, std::memory_order_relaxed);
      overridden[i].store(false, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lk(str_mu);
      for (int i = 0; i < kNumCvars; ++i) strs[i] = std::string(kInfo[i].default_str);
    }
    for (int i = 0; i < kNumCvars; ++i) {
      if (kInfo[i].scope == CvarScope::Constant) continue;  // not env-bindable
      const std::string env = cvar_env_name(static_cast<Cv>(i));
      const char* raw = std::getenv(env.c_str());
      if (raw == nullptr || *raw == '\0') continue;
      if (kInfo[i].is_string) {
        std::lock_guard<std::mutex> lk(str_mu);
        strs[i] = raw;
        overridden[i].store(true, std::memory_order_relaxed);
      } else {
        char* end = nullptr;
        const long long v = std::strtoll(raw, &end, 10);
        if (end != raw && *end == '\0') {
          value[i].store(v, std::memory_order_relaxed);
          overridden[i].store(true, std::memory_order_relaxed);
        }
      }
    }
  }
};

Registry& reg() {
  static Registry r;
  return r;
}

bool bad_index(int index) noexcept { return index < 0 || index >= kNumCvars; }

}  // namespace

int LWMPI_T_cvar_num() noexcept { return kNumCvars; }

Err LWMPI_T_cvar_get_info(int index, CvarInfo* info) noexcept {
  if (bad_index(index) || info == nullptr) return Err::Arg;
  *info = kInfo[index];
  return Err::Success;
}

int LWMPI_T_cvar_index(std::string_view name) noexcept {
  for (int i = 0; i < kNumCvars; ++i) {
    if (kInfo[i].name == name) return i;
  }
  return -1;
}

Err LWMPI_T_cvar_read(int index, std::int64_t* value) noexcept {
  if (bad_index(index) || value == nullptr || kInfo[index].is_string) return Err::Arg;
  *value = reg().value[index].load(std::memory_order_relaxed);
  return Err::Success;
}

Err LWMPI_T_cvar_write(int index, std::int64_t value) noexcept {
  if (bad_index(index) || kInfo[index].is_string) return Err::Arg;
  if (kInfo[index].scope == CvarScope::Constant) return Err::Arg;
  Registry& r = reg();
  r.value[index].store(value, std::memory_order_relaxed);
  r.overridden[index].store(true, std::memory_order_relaxed);
  return Err::Success;
}

Err LWMPI_T_cvar_read_str(int index, std::string* value) {
  if (bad_index(index) || value == nullptr || !kInfo[index].is_string) return Err::Arg;
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.str_mu);
  *value = r.strs[index];
  return Err::Success;
}

Err LWMPI_T_cvar_write_str(int index, std::string_view value) {
  if (bad_index(index) || !kInfo[index].is_string) return Err::Arg;
  if (kInfo[index].scope == CvarScope::Constant) return Err::Arg;
  Registry& r = reg();
  {
    std::lock_guard<std::mutex> lk(r.str_mu);
    r.strs[index] = std::string(value);
  }
  r.overridden[index].store(true, std::memory_order_relaxed);
  return Err::Success;
}

std::int64_t cvar(Cv v) noexcept {
  return reg().value[static_cast<int>(v)].load(std::memory_order_relaxed);
}

void cvar_set(Cv v, std::int64_t value) noexcept {
  LWMPI_T_cvar_write(static_cast<int>(v), value);
}

std::string cvar_str(Cv v) {
  std::string s;
  LWMPI_T_cvar_read_str(static_cast<int>(v), &s);
  return s;
}

bool cvar_overridden(Cv v) noexcept {
  return reg().overridden[static_cast<int>(v)].load(std::memory_order_relaxed);
}

std::string cvar_env_name(Cv v) {
  std::string s = "LWMPI_CVAR_";
  for (char c : kInfo[static_cast<int>(v)].name) {
    s += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string cvar_report() {
  std::ostringstream o;
  for (int i = 0; i < kNumCvars; ++i) {
    const Cv v = static_cast<Cv>(i);
    o << "  " << kInfo[i].name;
    for (std::size_t pad = kInfo[i].name.size(); pad < 24; ++pad) o << ' ';
    o << ' ' << to_string(kInfo[i].scope) << " = ";
    if (kInfo[i].is_string) {
      o << cvar_str(v);
    } else {
      o << cvar(v);
    }
    if (cvar_overridden(v)) o << "  (set)";
    o << '\n';
  }
  return o.str();
}

namespace detail {
void cvar_reload_env_for_testing() { reg().load_env(); }
}  // namespace detail

}  // namespace lwmpi::obs
