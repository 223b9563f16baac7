// Build-matrix configuration for the MPI stack.
//
// The paper's Figure 2 sweeps MPICH builds: default, no error checking, no
// thread-safety check, and link-time-inlined (ipo). We model the same matrix
// as a runtime configuration: a disabled feature skips both its real work and
// its modeled instruction charge, and "ipo" suppresses the modeled
// function-call and redundant-runtime-check overheads (the C++ fast path is
// already physically inlined).
#pragma once

#include <string>
#include <utility>

namespace lwmpi {

enum class DeviceKind {
  Ch4,   // the paper's contribution: flow-through lightweight device
  Orig,  // CH3-style layered baseline ("MPICH/Original")
};

// Upper bound on virtual communication interfaces per rank; request handles
// reserve 3 payload bits for the VCI id.
inline constexpr int kMaxVcis = 8;

struct BuildConfig {
  bool error_checking = true;  // argument/object validation
  bool thread_safety = true;   // runtime thread gate
  bool ipo = false;            // link-time inlining of the MPI entry points
  // Virtual communication interfaces: independent channel/match/progress
  // state selected per communicator (MPICH's VCI design). 1 reproduces the
  // monolithic engine; more enable concurrent progress across communicators.
  int num_vcis = 4;
  // Observability tiers (src/obs/). `counters` keeps the always-on pvar
  // counter updates (a branch + relaxed fetch_add per site; bench_obs_overhead
  // bounds the cost at <3% of 1-byte ping-pong latency). `trace` additionally
  // records message-lifecycle events into per-thread rings for Chrome-trace
  // export; it is compiled in but off by default.
  bool counters = true;
  bool trace = false;
  // Latency-histogram sampling: 1 in 2^lat_sample_shift messages of each
  // (channel, peer) stream gets TSC-stamped at post/inject/match/complete
  // (obs/histogram.hpp VciLatency); an unsampled message reads no clock. A
  // stamp is ~20ns where the TSC is virtualized, and a 1-byte transfer takes
  // up to four of them, so stamping every message busts the <3%
  // bench_obs_overhead budget; sampling 1/64 keeps the histogram
  // statistically faithful at negligible cost. Set to 0 to stamp every
  // message (tests, hang postmortems).
  int lat_sample_shift = 6;

  // Clamped VCI count used by both World (fabric lanes) and Engine (channels).
  int vcis() const {
    if (num_vcis < 1) return 1;
    if (num_vcis > kMaxVcis) return kMaxVcis;
    return num_vcis;
  }

  static BuildConfig dflt() { return {}; }
  static BuildConfig no_err() { return {.error_checking = false}; }
  static BuildConfig no_err_single() {
    return {.error_checking = false, .thread_safety = false};
  }
  static BuildConfig no_err_single_ipo() {
    return {.error_checking = false, .thread_safety = false, .ipo = true};
  }

  // The build's name: each flag off its default adds its part, in the order
  // no-err, single, ipo ("no-err-single-ipo"); no part reads "default".
  std::string label() const {
    std::string s;
    for (const auto& [on, part] : {std::pair{!error_checking, "no-err"},
                                   std::pair{!thread_safety, "single"}, std::pair{ipo, "ipo"}}) {
      if (!on) continue;
      if (!s.empty()) s += '-';
      s += part;
    }
    return s.empty() ? "default" : s;
  }
};

inline const char* to_string(DeviceKind d) {
  return d == DeviceKind::Ch4 ? "mpich/ch4" : "mpich/original";
}

}  // namespace lwmpi
