// MPI_T-style control-variable (cvar) registry: the tuning tier of the
// observability subsystem.
//
// MPI-3.1 section 14 pairs the performance variables (obs/pvar.hpp) with
// *control* variables: named, typed knobs a tool can enumerate, read, and --
// where the implementation allows -- write at runtime. Before this header the
// reproduction's knobs were scattered (BuildConfig::lat_sample_shift,
// WatchdogOptions::stall_ns, WorldOptions::netmod, BuildConfig::trace, ...),
// each with its own plumbing and none settable from the environment. The cvar
// registry unifies them:
//
//   * every variable has a stable name, a description, a default, and a
//     scope (MPI_T's CVAR scope concept):
//       - Startup:  consumed at World/Watchdog construction; writing later
//                   affects only objects built afterwards.
//       - Runtime:  consumers re-read continuously (the telemetry sampler's
//                   interval), so a write takes effect on the next tick of
//                   whatever reads it.
//       - Constant: informational echo; writes are rejected (Err::Arg).
//   * every variable is env-bound: LWMPI_CVAR_<UPPER_NAME> seeds the value at
//     first registry access, so a run can be re-tuned without recompiling --
//     the MPICH MPIR_CVAR_* convention.
//   * reads/writes are relaxed atomics: any thread (the sampler, a rank
//     thread, a tool) may read while another writes; values are never torn.
//
// The registry is process-global, like the pvar registry: cvars describe the
// process's configuration surface, not one World's.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace lwmpi::obs {

enum class CvarScope : std::uint8_t {
  Startup,   // read once at object construction
  Runtime,   // consumers re-read; writes take effect on their next tick
  Constant,  // read-only echo; writes rejected
};

const char* to_string(CvarScope s) noexcept;

// Typed handles for in-tree consumers (tools enumerate by name instead).
enum class Cv : std::uint8_t {
  SamplerIntervalMs = 0,  // Runtime: telemetry sampling period
  SamplerRingDepth,       // Startup: per-rank sample ring capacity
  LatSampleShift,         // Startup: BuildConfig::lat_sample_shift override
  TraceEnable,            // Startup: BuildConfig::trace override
  WatchdogStallMs,        // Startup: WatchdogOptions::stall_ns default
  WatchdogPollMs,         // Startup: WatchdogOptions::poll_ns default
  NetmodDefault,          // Startup (string): WorldOptions::netmod default
  Prof,                   // Startup: enable the aggregate profiler (WorldOptions::prof)
  ProfDefaultPhase,       // Startup (string): name of phase 0 (default "main")
  ProfPath,               // Startup (string): World-teardown profile JSON path
  Record,                 // Startup: enable the flight recorder (WorldOptions::record)
  RecordPath,             // Startup (string): trace-bundle prefix for the flush
  RecordRingDepth,        // Startup: per-rank op-ring capacity (records kept)
  RecordSampleShift,      // Startup: 1 in 2^n recorded ops carry timing stamps
  MaxVcis,                // Constant: compile-time kMaxVcis echo (writes rejected)
  kCount,
};
inline constexpr int kNumCvars = static_cast<int>(Cv::kCount);

struct CvarInfo {
  std::string_view name;  // e.g. "sampler_interval_ms"
  std::string_view desc;
  CvarScope scope = CvarScope::Runtime;
  bool is_string = false;       // string-valued; numeric otherwise
  std::int64_t default_value = 0;  // numeric default (unused for strings)
  std::string_view default_str = {};  // string default (unused for numerics)
};

// --- registry enumeration (MPI_T_cvar_* analogs) ----------------------------
int LWMPI_T_cvar_num() noexcept;
Err LWMPI_T_cvar_get_info(int index, CvarInfo* info) noexcept;
// Name -> index, or -1 when unknown (MPI_T_CVAR_GET_INDEX analog).
int LWMPI_T_cvar_index(std::string_view name) noexcept;

// --- numeric access ---------------------------------------------------------
Err LWMPI_T_cvar_read(int index, std::int64_t* value) noexcept;
// Rejects Constant-scope and string-valued variables with Err::Arg.
Err LWMPI_T_cvar_write(int index, std::int64_t value) noexcept;

// --- string access (string-valued variables only; Err::Arg otherwise) -------
Err LWMPI_T_cvar_read_str(int index, std::string* value);
Err LWMPI_T_cvar_write_str(int index, std::string_view value);

// --- typed conveniences for in-tree consumers --------------------------------
std::int64_t cvar(Cv v) noexcept;
void cvar_set(Cv v, std::int64_t value) noexcept;
std::string cvar_str(Cv v);
// True once the variable has been set from the environment or written through
// the API -- Startup consumers use this to apply a cvar only when the user
// actually asked (so defaults never perturb explicitly-configured options).
bool cvar_overridden(Cv v) noexcept;
// The environment variable bound to `v`: "LWMPI_CVAR_" + upper-cased name.
std::string cvar_env_name(Cv v);

// One-line-per-cvar dump (name, scope, value, overridden flag); the text form
// stats tooling prints.
std::string cvar_report();

namespace detail {
// Re-read every LWMPI_CVAR_* environment binding, discarding API writes.
// Test-only: lets a test process exercise the env path after setenv().
void cvar_reload_env_for_testing();
}  // namespace detail

}  // namespace lwmpi::obs
