// Shared harness for the paper-reproduction benchmarks.
//
// Message-rate methodology (Figures 3-5): the paper measures the maximum
// rate at which a single core can inject 1-byte messages into the network.
// We time the sender's issue loop (isend/put + periodic completion) over the
// chosen network profile. On the real-network profiles a receiver rank
// drains the fabric; on the blackhole ("infinitely fast") profile the run is
// a single rank targeting itself, exactly mirroring the paper's modified
// library that executes the full stack without transmitting.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "net/profile.hpp"
#include "obs/json.hpp"
#include "obs/table.hpp"
#include "runtime/backoff.hpp"
#include "runtime/world.hpp"

namespace lwmpi::bench {

// The five stack variants of Figures 3-5.
struct StackVariant {
  std::string label;
  DeviceKind device;
  BuildConfig build;
};

inline std::vector<StackVariant> figure_variants() {
  return {
      {"mpich/original", DeviceKind::Orig, BuildConfig::dflt()},
      {"mpich/ch4 (default)", DeviceKind::Ch4, BuildConfig::dflt()},
      {"mpich/ch4 (no-err)", DeviceKind::Ch4, BuildConfig::no_err()},
      {"mpich/ch4 (no-err-single)", DeviceKind::Ch4, BuildConfig::no_err_single()},
      {"mpich/ch4 (no-err-single-ipo)", DeviceKind::Ch4, BuildConfig::no_err_single_ipo()},
  };
}

inline constexpr int kRateWindow = 256;

// Messages per measurement; small enough for a 1-core box, large enough to
// amortize timer noise.
inline int default_messages(const net::Profile& p) { return p.blackhole ? 400000 : 120000; }

// --- MPI_ISEND issue rate ----------------------------------------------------
inline double isend_rate(const net::Profile& profile, DeviceKind device, BuildConfig build,
                         int messages, const std::string& netmod = "mailbox") {
  WorldOptions o;
  o.profile = profile;
  o.device = device;
  o.build = build;
  o.netmod = netmod;
  o.ranks_per_node = 1;  // force the inter-node cost parameters
  const int nranks = profile.blackhole ? 1 : 2;
  const Rank target = profile.blackhole ? 0 : 1;
  World w(nranks, o);
  double rate = 0.0;
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      char byte = 1;
      std::vector<Request> reqs(kRateWindow, kRequestNull);
      // Warmup.
      for (int i = 0; i < kRateWindow; ++i) {
        e.isend(&byte, 1, kChar, target, 0, kCommWorld, &reqs[static_cast<std::size_t>(i)]);
      }
      e.waitall(reqs, {});
      const std::uint64_t t0 = rt::now_ns();
      int issued = 0;
      while (issued < messages) {
        for (int i = 0; i < kRateWindow && issued < messages; ++i, ++issued) {
          e.isend(&byte, 1, kChar, target, 0, kCommWorld,
                  &reqs[static_cast<std::size_t>(i)]);
        }
        e.waitall(reqs, {});
      }
      const std::uint64_t dt = rt::now_ns() - t0;
      rate = dt > 0 ? messages * 1e9 / static_cast<double>(dt) : 0.0;
    } else {
      // Drain until everything (warmup + measured) has been delivered.
      const std::uint64_t expect =
          static_cast<std::uint64_t>(messages) + kRateWindow;
      rt::Backoff backoff;
      while (e.world().fabric().delivered(1) < expect) {
        e.progress();
        backoff.pause();
      }
    }
  });
  return rate;
}

// --- MPI_PUT issue rate -------------------------------------------------------
inline double put_rate(const net::Profile& profile, DeviceKind device, BuildConfig build,
                       int messages, const std::string& netmod = "mailbox") {
  WorldOptions o;
  o.profile = profile;
  o.device = device;
  o.build = build;
  o.netmod = netmod;
  o.ranks_per_node = 1;
  const int nranks = profile.blackhole ? 1 : 2;
  const Rank target = profile.blackhole ? 0 : 1;
  World w(nranks, o);
  double rate = 0.0;
  std::atomic<bool> done{false};
  w.run([&](Engine& e) {
    std::vector<char> mem(64, 0);
    Win win = kWinNull;
    e.win_create(mem.data(), mem.size(), 1, kCommWorld, &win);
    e.win_fence(win);
    if (e.world_rank() == 0) {
      char byte = 1;
      // Warmup window.
      for (int i = 0; i < kRateWindow; ++i) {
        e.put(&byte, 1, kChar, target, 0, 1, kChar, win);
      }
      e.win_flush_all(win);
      const std::uint64_t t0 = rt::now_ns();
      int issued = 0;
      while (issued < messages) {
        for (int i = 0; i < kRateWindow && issued < messages; ++i, ++issued) {
          e.put(&byte, 1, kChar, target, 0, 1, kChar, win);
        }
        e.win_flush_all(win);
      }
      const std::uint64_t dt = rt::now_ns() - t0;
      rate = dt > 0 ? messages * 1e9 / static_cast<double>(dt) : 0.0;
      done.store(true, std::memory_order_release);
    } else {
      rt::Backoff backoff;
      while (!done.load(std::memory_order_acquire)) {
        e.progress();
        backoff.pause();
      }
    }
    e.win_fence(win);
    e.win_free(&win);
  });
  return rate;
}

// --- Metered instruction counts (the SDE substitute) --------------------------
// The walks live in the attribution tier (obs/table.hpp) so the library,
// World::stats_report, and the benches all share one methodology; these
// aliases keep the historical bench-harness spelling working.
inline cost::Meter metered_isend(DeviceKind device, BuildConfig build) {
  return obs::metered_isend(device, build);
}

inline cost::Meter metered_put(DeviceKind device, BuildConfig build) {
  return obs::metered_put(device, build);
}

// --- JSON result emission -----------------------------------------------------
// Minimal machine-readable bench output: each benchmark accumulates labeled
// scalar results (plus optional pre-serialized blobs like a stats_report) and
// writes them to BENCH_<name>.json in the working directory, so runs can be
// diffed or plotted without scraping stdout.
class JsonResult {
 public:
  explicit JsonResult(std::string name) : name_(std::move(name)) {}

  void add(const std::string& label, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_.push_back("{\"label\":" + obs::json::quote(label) + ",\"value\":" + buf +
                       ",\"unit\":" + obs::json::quote(unit) + "}");
  }
  // Attach an already-serialized JSON value (e.g. World::stats_report(true)).
  void add_raw(const std::string& key, const std::string& json) {
    raw_.push_back(obs::json::quote(key) + ":" + json);
  }

  std::string str() const {
    std::string out = "{\"bench\":" + obs::json::quote(name_) + ",\"results\":[";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += (i == 0 ? "" : ",");
      out += entries_[i];
    }
    out += "]";
    for (const std::string& r : raw_) out += "," + r;
    out += "}";
    return out;
  }

  // Write BENCH_<name>.json into $LWMPI_BENCH_DIR (falling back to the
  // working directory); returns false (and prints a warning) on failure.
  bool write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (const char* dir = std::getenv("LWMPI_BENCH_DIR"); dir != nullptr && *dir != '\0') {
      path = std::string(dir) + "/" + path;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string body = str();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::string> entries_;
  std::vector<std::string> raw_;
};

// --- Output helpers ------------------------------------------------------------
inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void print_bar(const char* label, double value, double max_value, const char* unit) {
  constexpr int kWidth = 44;
  const int fill =
      max_value > 0 ? static_cast<int>(value / max_value * kWidth + 0.5) : 0;
  std::printf("%-30s %12.3g %s |", label, value, unit);
  for (int i = 0; i < fill; ++i) std::printf("#");
  std::printf("\n");
}

inline std::string human_rate(double msgs_per_sec) {
  char buf[64];
  if (msgs_per_sec >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM msg/s", msgs_per_sec / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fK msg/s", msgs_per_sec / 1e3);
  }
  return buf;
}

}  // namespace lwmpi::bench
