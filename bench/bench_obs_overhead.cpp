// Observability overhead on the latency-critical path.
//
// The always-on counter tier (obs/counters.hpp) claims to be near-free: one
// predictable branch plus one relaxed fetch_add per hook -- and since PR 5 the
// same build flag also enables the latency-histogram tier (obs/histogram.hpp):
// TSC timestamps at post/match/complete plus a log2-bucket update for the
// 1-in-2^lat_sample_shift messages the sampling gate arms (the rest pay one
// branch and a counter increment at the post site).
// This bench measures the combined claim on the 1-byte ch4 self ping-pong --
// the shortest end-to-end path through isend/inject/poll/match/recv, i.e. the
// path where a fixed per-hook tax shows up largest -- and asserts the
// instrumented build stays within 3% of the stripped one.
//
// Since the causal tier (obs/causal.hpp), every packet additionally carries a
// piggybacked causal header: net::Fabric::inject stamps a TSC read plus a
// relaxed Lamport tick, and poll CAS-merges the clock, on every message with
// tracing *off*. Both configurations here run with trace off, so that stamp
// is inside the measured path on both sides of the ratio -- the <3% gate thus
// certifies the counter/histogram tax on top of a transport that already
// pays the piggyback cost, and the stamp itself is config-independent by
// design (flipping BuildConfig::trace cannot change transport timing).
//
// Methodology for a noisy 1-core container: the workload is single-rank
// (sender == receiver, no thread handoff, no scheduler dependence). Two
// additive noise sources have to be defeated separately. Temporal noise
// (frequency drift, co-tenant interference) wanders on timescales much
// longer than a measurement slice, so the two configurations run in short
// alternating slices driven from one thread and each keeps its minimum.
// Layout noise (allocation/page placement making one particular World
// instance a few percent faster or slower for its whole lifetime) is
// defeated by repeating that dance over several independently-constructed
// instance pairs; each pair yields one overhead ratio from its two slice
// minima. A real per-hook tax is structural -- it inflates *every* pair --
// while noise only hits some, so the acceptance gate judges a low-order
// statistic: the lower-tercile ratio across pairs. The raw minimum is too
// deflatable (one off-side slowdown fakes a large negative overhead); the
// median needs only half the pairs inflated to false-positive. The tercile
// needs most pairs inflated to trip and several deflated to under-report.
// Since the telemetry plane (obs/sampler.hpp), a background sampler thread
// may snapshot every counter this bench instruments at a configurable
// interval. The sampler reads relaxed atomics only -- the claim is that an
// attached sampler at the default cadence costs the hot path *nothing
// structural* (its reads share no locks with the engine), so its gate is
// tighter: the sampled configuration must stay within 1% of the plain one.
// The telemetry pass emits its own BENCH_telemetry.json plus a Prometheus
// text-exposition artifact that scripts/run_tier1.sh lints with
// `bench_check --promlint`.
// Every top-level MPI entry point opens one obs::SurfaceScope (obs/recorder.hpp),
// which feeds both the aggregate profiler and the flight recorder -- one
// branch when neither is attached. With a profiler attached the scope pays a
// thread-local depth check and a cell bump (two relaxed counter updates) per
// user call, plus a TSC stamp pair on 1 in 2^10 calls per cell. The profiler
// pass pairs counters-on worlds with and without an attached profiler and
// gates the tax at <2% (between the counter tier's 3% and the passive
// sampler's 1%: the scope does strictly more work per call than a counter
// hook but runs only at the user-call boundary, not per packet). It emits
// BENCH_prof.json plus a profile.json artifact that run_tier1.sh validates
// with `bench_check --profcheck`.
// With the flight recorder attached the same scope pays the depth check plus
// a 16-byte ring store and -- at the default 1-in-2^8 sampling --
// occasionally a TSC stamp pair. The record pass gates that tax at <2% (same
// reasoning as the profiler: per user call, not per packet) and emits
// BENCH_record.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/cvar.hpp"
#include "obs/profiler.hpp"
#include "obs/pvar.hpp"
#include "obs/sampler.hpp"

using namespace lwmpi;

namespace {

constexpr int kWarmup = 2000;
constexpr int kSliceIters = 10000;
constexpr int kSlices = 12;  // alternating slices per instance pair
constexpr int kRounds = 7;   // independently-constructed instance pairs

// A 1-rank world whose engine the bench drives directly (self ping-pong:
// isend -> recv -> wait, no thread handoff). `sampled` additionally attaches
// a telemetry sampler at the default cadence for the instance's lifetime;
// `prof` attaches the aggregate profiler (the surface hook profiles every
// call).
class SelfWorld {
 public:
  explicit SelfWorld(bool counters, bool sampled = false, bool prof = false,
                     bool record = false)
      : w_(1, opts(counters, prof, record)), e_(w_.engine(0)) {
    if (sampled) sampler_ = std::make_unique<obs::Sampler>(w_);
    for (int i = 0; i < kWarmup; ++i) iter();
  }

  // Nanoseconds per iteration over one measurement slice.
  double slice_ns() {
    const std::uint64_t t0 = rt::now_ns();
    for (int i = 0; i < kSliceIters; ++i) iter();
    return static_cast<double>(rt::now_ns() - t0) / kSliceIters;
  }

 private:
  static WorldOptions opts(bool counters, bool prof, bool record) {
    WorldOptions o;
    o.profile = net::loopback();
    o.device = DeviceKind::Ch4;
    o.ranks_per_node = 1;
    o.build.counters = counters;
    o.build.trace = false;  // tracing off; the causal stamp still runs (see top)
    o.prof = prof;
    // Always-on recorder configuration: default ring and sampling shift,
    // no flush prefix (the rings are live but never written out).
    o.record = record;
    return o;
  }
  void iter() {
    Request r = kRequestNull;
    e_.isend(&out_, 1, kChar, 0, 0, kCommWorld, &r);
    e_.recv(&in_, 1, kChar, 0, 0, kCommWorld, nullptr);
    e_.wait(&r, nullptr);
  }

  World w_;
  // Declared after w_, destroyed before it (the sampler references the
  // world; see obs/sampler.hpp).
  std::unique_ptr<obs::Sampler> sampler_;
  Engine& e_;
  char out_ = 1, in_ = 0;
};

// A short counters-on run whose stats_report lands in the JSON artifact, so
// the emitted file doubles as an example of the report format. The receive
// side's latency percentiles are also exported as top-level bench fields,
// read back through the pvar registry like any external tool would. Writes
// no file, so it returns no line to print.
std::string add_stats_report(bench::JsonResult& jr) {
  WorldOptions o;
  o.profile = net::loopback();
  o.device = DeviceKind::Ch4;
  o.ranks_per_node = 1;
  o.build.lat_sample_shift = 0;  // stamp everything: the artifact is an example
  World w(2, o);
  w.run([&](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      for (int i = 0; i < 100; ++i) e.send(&b, 1, kChar, 1, i, kCommWorld);
    } else {
      for (int i = 0; i < 100; ++i) e.recv(&b, 1, kChar, 0, i, kCommWorld, nullptr);
    }
  });
  obs::PvarSession s;
  obs::LWMPI_T_pvar_session_create(w.engine(1), &s);
  for (const char* name : {"lat_recv_eager_p50_ns", "lat_recv_eager_p99_ns",
                           "lat_recv_eager_max_ns"}) {
    std::uint64_t v = 0;
    obs::LWMPI_T_pvar_read(s, obs::LWMPI_T_pvar_index(name), &v);
    jr.add(name, static_cast<double>(v), "ns");
  }
  obs::LWMPI_T_pvar_session_free(&s);
  jr.add_raw("stats", w.stats_report(true));
  return "";
}

// The instrumentation pairings this bench gates. Counters compares stripped
// vs counter-instrumented builds; the others run counters on both sides and
// attach the named subsystem to the "on" side only.
enum class Pair { Counters, Sampler, Prof, Record };

struct Measured {
  double best_off = std::numeric_limits<double>::infinity();  // ns/iter
  double best_on = std::numeric_limits<double>::infinity();
  double pct = 0.0;         // lower-tercile overhead ratio: the gate statistic
  double median_pct = 0.0;  // the typical value
};

// One full measurement pass: kRounds instance pairs. The lower tercile is the
// gate statistic because a structural tax shows up in all of them.
Measured measure(Pair pair) {
  Measured m;
  std::vector<double> ratios;
  ratios.reserve(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    SelfWorld off_world(pair != Pair::Counters, false, false);
    SelfWorld on_world(true, pair == Pair::Sampler, pair == Pair::Prof,
                       pair == Pair::Record);
    double round_off = std::numeric_limits<double>::infinity();
    double round_on = std::numeric_limits<double>::infinity();
    for (int s = 0; s < kSlices; ++s) {
      round_off = std::min(round_off, off_world.slice_ns());
      round_on = std::min(round_on, on_world.slice_ns());
    }
    ratios.push_back(round_on / round_off);
    m.best_off = std::min(m.best_off, round_off);
    m.best_on = std::min(m.best_on, round_on);
  }
  std::sort(ratios.begin(), ratios.end());
  m.median_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  m.pct = (ratios[ratios.size() / 3] - 1.0) * 100.0;
  return m;
}

// Telemetry-plane example artifact: a short 2-rank sampled run whose
// Prometheus exposition is written next to the bench JSON (tier-1 lints it
// with `bench_check --promlint`). Reports the run's tick count through the
// JSON result and returns a line naming the exposition path.
std::string write_prom_artifact(bench::JsonResult& jr) {
  const std::int64_t saved_interval = obs::cvar(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 5);
  WorldOptions o;
  o.profile = net::loopback();
  o.device = DeviceKind::Ch4;
  o.ranks_per_node = 1;
  World w(2, o);
  std::uint64_t ticks = 0;
  {
    obs::Sampler sampler(w);
    w.run([&](Engine& e) {
      char b = 1;
      if (e.world_rank() == 0) {
        for (int i = 0; i < 2000; ++i) e.send(&b, 1, kChar, 1, i % 64, kCommWorld);
      } else {
        for (int i = 0; i < 2000; ++i) e.recv(&b, 1, kChar, 0, i % 64, kCommWorld, nullptr);
      }
    });
    sampler.sample_now();
    ticks = sampler.ticks();

    std::string path = "telemetry.prom";
    if (const char* dir = std::getenv("LWMPI_BENCH_DIR"); dir != nullptr && *dir != '\0') {
      path = std::string(dir) + "/" + path;
    }
    std::ofstream f(path, std::ios::trunc);
    if (f) f << sampler.prometheus();
    jr.add("prom_sample_ticks", static_cast<double>(ticks), "count");
    obs::cvar_set(obs::Cv::SamplerIntervalMs, saved_interval);
    return "prometheus exposition: " + path;
  }
}

// Profiler-tier example artifact: a short phased 2-rank profiled run whose
// profile.json lands next to the bench JSON (tier-1 validates it with
// `bench_check --profcheck`). Reports the run's aggregate counts through the
// JSON result and returns a line naming the artifact path.
std::string write_profile_artifact(bench::JsonResult& jr) {
  std::string path = "profile.json";
  if (const char* dir = std::getenv("LWMPI_BENCH_DIR"); dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/" + path;
  }
  WorldOptions o;
  o.profile = net::loopback();
  o.device = DeviceKind::Ch4;
  o.ranks_per_node = 1;
  o.prof = true;
  o.prof_path = path;
  {
    World w(2, o);
    w.phase_push("exchange");
    w.run([](Engine& e) {
      char b = 1;
      if (e.world_rank() == 0) {
        for (int i = 0; i < 500; ++i) e.send(&b, 1, kChar, 1, i % 16, kCommWorld);
      } else {
        for (int i = 0; i < 500; ++i) e.recv(&b, 1, kChar, 0, i % 16, kCommWorld, nullptr);
      }
    });
    w.phase_pop();
    const obs::Profiler* p = w.profiler();
    jr.add("prof_matrix_packet_bytes",
           static_cast<double>(p->matrix().total_packet_bytes()), "count");
    const int exchange = w.profiler()->intern_phase("exchange");
    jr.add("prof_exchange_sends",
           static_cast<double>(p->rank(0).site_count(exchange, obs::Callsite::Send)),
           "count");
    // ~World writes the artifact at teardown.
  }
  return "profile artifact: " + path;
}

// One gated pass: the pairing it measures, its gate and retry budget, and
// the BENCH_<bench>.json it writes. Entry labels are
// pingpong_<key>_{off,on}_ns and <prefix>overhead{,_median}_pct; `extra`
// adds the pass's own entries or example artifact and returns a line to
// print ("" for none).
struct Pass {
  Pair pair;
  const char* header;
  const char* off_row;
  const char* on_row;
  double gate_pct;
  int retries;
  const char* bench;
  const char* key;
  const char* prefix;
  std::string (*extra)(bench::JsonResult&);
};

constexpr Pass kPasses[] = {
    {Pair::Counters, "observability counter + histogram overhead (1-byte ch4 self ping-pong)",
     "counters off", "counters on", 3.0, 2, "obs", "counters", "", add_stats_report},
    {Pair::Sampler, "telemetry sampler overhead (counters on, sampler attached vs not)",
     "sampler detached", "sampler attached", 1.0, 2, "telemetry", "sampler", "sampler_",
     write_prom_artifact},
    {Pair::Prof, "aggregate profiler overhead (counters on, profiler attached vs not)",
     "profiler detached", "profiler attached", 2.0, 2, "prof", "prof", "prof_",
     write_profile_artifact},
    // One more retry than the earlier gates: this one runs last, when a
    // single-core host has accumulated the most scheduler/thermal drift.
    {Pair::Record, "flight recorder overhead (counters on, recording vs not)", "recorder off",
     "recorder on", 2.0, 3, "record", "record", "record_", nullptr},
};

}  // namespace

int main() {
  bool pass = true;
  for (const Pass& p : kPasses) {
    bench::print_header(p.header);
    Measured m = measure(p.pair);
    // An over-threshold pass on a shared container is more often a sustained
    // interference window than a regression; a real regression reproduces, so
    // re-measure and keep the best pass before judging.
    for (int retry = 0; retry < p.retries && m.pct >= p.gate_pct; ++retry) {
      const Measured again = measure(p.pair);
      m.best_off = std::min(m.best_off, again.best_off);
      m.best_on = std::min(m.best_on, again.best_on);
      if (again.pct < m.pct) {
        m.pct = again.pct;
        m.median_pct = again.median_pct;
      }
    }
    pass = pass && m.pct < p.gate_pct;

    std::printf("%-28s %10.1f ns/iter (best of %dx%d slices)\n", p.off_row, m.best_off,
                kRounds, kSlices);
    std::printf("%-28s %10.1f ns/iter (best of %dx%d slices)\n", p.on_row, m.best_on,
                kRounds, kSlices);
    std::printf("%-28s %+9.2f %%  (median %+.2f %%)  [acceptance: < %g%%]\n", "overhead",
                m.pct, m.median_pct, p.gate_pct);

    bench::JsonResult jr(p.bench);
    const std::string key = std::string("pingpong_") + p.key;
    jr.add(key + "_off_ns", m.best_off, "ns/iter");
    jr.add(key + "_on_ns", m.best_on, "ns/iter");
    jr.add(std::string(p.prefix) + "overhead_pct", m.pct, "%");
    jr.add(std::string(p.prefix) + "overhead_median_pct", m.median_pct, "%");
    const std::string note = p.extra != nullptr ? p.extra(jr) : "";
    jr.write();
    if (!note.empty()) std::printf("%s\n", note.c_str());
  }
  return pass ? 0 : 1;
}
