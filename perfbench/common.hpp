// Shared pieces of the lwmpi benchmark: the span tracer, sample statistics,
// the metric report, and the run context every workload group writes into.
//
// Spans are recorded only from this directory's files, around the calls the
// benchmark makes into each layer's public functions. A span carries the
// layer it enters, an id shared by every span of one logical unit (one
// ping-pong iteration, one replay), the number of operations it covers (a
// window of sub-microsecond calls is one span, so the clock read does not
// swamp the call), and its parent, so a layer's self time is its span minus
// its children.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/backoff.hpp"

namespace lwmpi {
class World;
}

namespace pb {

inline std::uint64_t now_ns() noexcept { return lwmpi::rt::now_ns(); }

// The repo's modules, used as span layers. `bench` is the benchmark's own
// loop (ping-pong iteration, replay round) that parents the layer spans.
enum class Layer : std::uint8_t {
  bench, runtime, net, core, orig, match, datatype, coll, rma, cost, obs, apps, kCount
};
inline constexpr const char* kLayerNames[] = {"bench", "runtime", "net",  "core",
                                              "orig",  "match",   "datatype", "coll",
                                              "rma",   "cost",    "obs",  "apps"};

struct Span {
  const char* name;  // string literal, e.g. "core.isend"
  Layer layer;
  std::uint32_t id;
  std::uint32_t ops;
  std::int32_t parent;  // index into the tracer's span vector, -1 for a root
  std::uint64_t t0, t1;
  std::uint64_t child_ns;  // time covered by direct children
};

// One thread's span recorder. A disabled tracer records nothing and costs one
// branch per open/close; spans stay in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  int open(const char* name, Layer layer, std::uint32_t id, std::uint32_t ops = 1) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, layer, id, ops, parent, now_ns(), 0, 0});
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.t1 = now_ns();
    stack_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += s.t1 - s.t0;
  }
  // Spans recorded on another thread's tracer join this one (no nesting
  // across the boundary: they become roots here).
  void absorb(const Tracer& other) {
    const auto base = static_cast<std::int32_t>(spans_.size());
    for (Span s : other.spans_) {
      s.parent = s.parent < 0 ? -1 : s.parent + base;
      spans_.push_back(s);
    }
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null tracer is the untraced run.
class Scope {
 public:
  Scope(Tracer* t, const char* name, Layer layer, std::uint32_t id = 0, std::uint32_t ops = 1)
      : t_(t), idx_(t != nullptr ? t->open(name, layer, id, ops) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// Median over the spans named `name` of span ns / span ops: robust to the
// odd preempted window, unlike total / ops.
double span_median_ns(const Tracer& t, std::string_view name);
// Self time (span minus direct children) summed per layer, in ns.
std::vector<std::uint64_t> layer_self_ns(const Tracer& t);

// --- sample statistics -------------------------------------------------------
double quantile(std::vector<double> v, double q);  // linear interpolation
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Pin the calling thread to the `slot`-th CPU this process may run on
// (modulo their number), so chunk k of a measurement can be placed on CPU k.
void pin_thread(int slot);

// --- metrics ------------------------------------------------------------------
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count and method, printed beside the value
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});
  double get(const std::string& name) const;
  const std::map<std::string, Metric>& all() const noexcept { return m_; }

 private:
  std::map<std::string, Metric> m_;
};

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

// --- run context ----------------------------------------------------------------
struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool force_wrong = false;  // --force-wrong: corrupt one observed result per group
  std::string trace_dir = "bench/traces";

  std::mt19937_64 rng;
  int orders = 0;  // order() calls since the last reseed
  int slot = 0;    // rotates chunk placement over the CPUs
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over seeded inputs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::set<std::string> forced;

  Report e2e;     // untraced end-to-end metrics
  Report layers;  // per-layer metrics (traced run)
  std::vector<std::string> table1;  // modeled-vs-measured rows, printed and archived

  // Count `n` attempted operations of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad, const char* what) {
    attempted += n;
    failed += bad;
    if (bad != 0 && failures.size() < 32) failures.push_back(fmt("%s: %llu failed", what,
                                                  static_cast<unsigned long long>(bad)));
  }
  // One checked result.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
    }
  }
  // True once per group under --force-wrong: that group's next checked
  // result is corrupted, so its check must fail the run.
  bool force_wrong_once(const char* group) {
    return force_wrong && forced.insert(group).second;
  }
  void mix(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) digest = (digest ^ b[i]) * 1099511628211ull;
  }
  // Restart the input stream for one group, so its inputs depend only on the
  // seed and not on how many rounds the groups before it ran.
  void reseed(std::string_view group) {
    std::uint64_t h = seed;
    for (char ch : group) h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    rng.seed(h);
    orders = 0;
  }
  // Seeded permutation of 0..n-1: the order a group's sub-cases interleave.
  // Only the first orders enter the digest: how many rounds run depends on
  // the time budget.
  std::vector<int> order(int n) {
    std::vector<int> o(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) o[static_cast<std::size_t>(i)] = i;
    std::shuffle(o.begin(), o.end(), rng);
    if (orders++ < 4) mix(o.data(), o.size() * sizeof(int));  // every group runs >= 4 rounds
    return o;
  }
};

// Deadline helper: true while a measurement loop should keep going. At least
// `min_rounds` rounds always run, so a tiny budget still yields a median.
struct Budget {
  std::uint64_t end_ns;
  int min_rounds;
  int rounds = 0;
  Budget(double seconds, int min_rounds_)
      : end_ns(now_ns() + static_cast<std::uint64_t>(seconds * 1e9)), min_rounds(min_rounds_) {}
  bool next() { return rounds++ < min_rounds || now_ns() < end_ns; }
};

// A pvar summed over every rank of a world.
std::uint64_t pvar_sum(lwmpi::World& w, const char* name);

// --- workload groups ------------------------------------------------------------
// `e2e` measures a group's end-to-end metrics into `out` for about `seconds`,
// spanning its layer calls into `tr` when traced (null = untraced) and
// checking its outputs through `c`. `layers` runs the per-layer micro loops
// of the traced run. `setup` constructs the group's worlds and loads its
// inputs once and returns the seconds that took.
struct Group {
  const char* name;
  const char* headline;     // end-to-end metric used for the tracing overhead
  bool headline_higher;     // true when a larger headline value is better
  void (*e2e)(Ctx& c, Report& out, double seconds, Tracer* tr);
  void (*layers)(Ctx& c, Tracer& tr);
  double (*setup)(Ctx& c);
};

extern const Group kSendPath, kPingpong, kHalo, kReplay;

}  // namespace pb
