// Continuous telemetry sampler (obs/sampler.hpp).
//
// Collection discipline: every value the tick reads is a relaxed atomic
// (CounterBlock, LatencyHist buckets, fabric/netmod counters) or an engine
// accessor documented lock-free, so a tick can run concurrently with hot
// rank threads without taking any engine lock. Derivation is subtraction
// against the previous tick's cumulative baseline; counter deltas saturate at
// zero so the documented lossy counter races can never produce a wrapped
// rate.
#include "obs/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/engine.hpp"
#include "obs/counters.hpp"
#include "obs/cvar.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "runtime/world.hpp"

namespace lwmpi::obs {

namespace {

// The SLO rule table. Each rule pairs a stable name with the runtime-scope
// cvar holding its threshold; a threshold <= 0 disables the rule. The value
// extractor lives in evaluate_slo (a switch on the index), so adding a rule
// is one table row plus one case.
struct SloRule {
  const char* name;
  Cv threshold;
};
constexpr SloRule kSloRules[] = {
    {"credit_stall_pct", Cv::SloCreditStallPct},
    {"unexpected_depth", Cv::SloUnexpectedDepth},
    {"unexpected_growth", Cv::SloUnexpectedGrowth},
    {"progress_idle_pct", Cv::SloProgressIdlePct},
};
constexpr int kNumSloRules = static_cast<int>(sizeof(kSloRules) / sizeof(kSloRules[0]));

std::uint64_t sat_sub(std::uint64_t now, std::uint64_t was) noexcept {
  return now >= was ? now - was : 0;
}

// JSON/Prometheus-safe double rendering: %.6g never emits inf/nan here
// because every rate divides by a clamped-positive interval.
void put_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os << buf;
}

const char* wait_name(std::size_t idx) noexcept {
  return to_string(static_cast<Wait>(idx + 1));  // skip Wait::None
}

}  // namespace

std::string render_json(const RankSample& s) {
  std::ostringstream o;
  o << "{\"rank\":" << s.rank << ",\"seq\":" << s.seq << ",\"t_ns\":" << s.t_ns
    << ",\"dt_ns\":" << s.dt_ns << ",\"interval_ns\":" << s.interval_ns
    << ",\"sends_per_s\":";
  put_double(o, s.sends_per_s);
  o << ",\"recvs_per_s\":";
  put_double(o, s.recvs_per_s);
  o << ",\"send_p99_ns\":" << s.send_p99_ns << ",\"recv_p99_ns\":" << s.recv_p99_ns
    << ",\"posted_depth\":" << s.posted_depth
    << ",\"unexpected_depth\":" << s.unexpected_depth
    << ",\"posted_growth\":" << s.posted_growth
    << ",\"unexpected_growth\":" << s.unexpected_growth << ",\"credit_stall_pct\":";
  put_double(o, s.credit_stall_pct);
  o << ",\"idle_pct\":";
  put_double(o, s.idle_pct);
  o << ",\"wait\":{";
  for (std::size_t i = 0; i < kNumWaitStates; ++i) {
    o << (i == 0 ? "" : ",") << '"' << wait_name(i) << "\":" << s.wait_delta[i];
  }
  o << "},\"lanes\":[";
  for (std::size_t v = 0; v < s.lanes.size(); ++v) {
    const LaneSample& l = s.lanes[v];
    o << (v == 0 ? "" : ",") << "{\"vci\":" << v << ",\"send_per_s\":";
    put_double(o, l.send_per_s);
    o << ",\"deliver_per_s\":";
    put_double(o, l.deliver_per_s);
    o << ",\"deliver_bytes_per_s\":";
    put_double(o, l.deliver_bytes_per_s);
    o << ",\"inject_bytes_per_s\":";
    put_double(o, l.inject_bytes_per_s);
    o << ",\"posted\":" << l.posted_depth << ",\"unexpected\":" << l.unexpected_depth
      << '}';
  }
  o << "],\"alerts\":[";
  for (std::size_t i = 0; i < s.alerts.size(); ++i) {
    const Alert& a = s.alerts[i];
    o << (i == 0 ? "" : ",") << "{\"rule\":\"" << a.rule << "\",\"value\":";
    put_double(o, a.value);
    o << ",\"threshold\":";
    put_double(o, a.threshold);
    o << '}';
  }
  o << "]}";
  return o.str();
}

Sampler::Sampler(World& world, SamplerOptions opts)
    : world_(world),
      opts_(std::move(opts)),
      ring_depth_(static_cast<std::size_t>(
          std::clamp<std::int64_t>(cvar(Cv::SamplerRingDepth), 2, 1 << 20))) {
  const auto n = static_cast<std::size_t>(world_.nranks());
  raw_.resize(n);
  rings_.resize(n);
  // Baseline collection: the first tick's deltas are relative to "now", not
  // to process start, so a sampler attached mid-run reports honest rates.
  for (std::size_t r = 0; r < n; ++r) {
    collect(world_.engine(static_cast<Rank>(r)), &raw_[r]);
  }
  thread_ = std::thread([this] { run(); });
}

Sampler::~Sampler() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  // Final interval: whatever happened since the last periodic tick still
  // lands in the time series before the teardown files are written.
  sample_now();
  if (!opts_.jsonl_path.empty()) {
    std::ofstream f(opts_.jsonl_path, std::ios::trunc);
    if (f) export_jsonl(f);
  }
  if (!opts_.prom_path.empty()) {
    std::ofstream f(opts_.prom_path, std::ios::trunc);
    if (f) f << prometheus();
  }
}

void Sampler::run() {
  // Same sliced-sleep pattern as the watchdog: destruction never waits out a
  // full interval, and the interval cvar is re-read on every pass so a
  // runtime write changes the cadence from the next tick on.
  constexpr std::uint64_t kSliceNs = 2'000'000;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::int64_t ms = std::max<std::int64_t>(1, cvar(Cv::SamplerIntervalMs));
    const auto interval_ns = static_cast<std::uint64_t>(ms) * 1'000'000;
    std::uint64_t slept = 0;
    while (slept < interval_ns && !stop_.load(std::memory_order_acquire)) {
      const std::uint64_t chunk = std::min(kSliceNs, interval_ns - slept);
      std::this_thread::sleep_for(std::chrono::nanoseconds(chunk));
      slept += chunk;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    tick();
  }
}

void Sampler::collect(Engine& e, RawRank* out) const {
  const int nv = e.num_vcis();
  const Rank r = e.world_rank();
  net::Fabric& fab = world_.fabric();
  const auto nvs = static_cast<std::size_t>(nv);
  out->lane_sends.assign(nvs, 0);
  out->lane_delivered.assign(nvs, 0);
  out->lane_deliver_bytes.assign(nvs, 0);
  out->lane_inject_bytes.assign(nvs, 0);
  out->sends = e.sends_issued();
  out->recvs = 0;
  out->posted_depth = 0;
  out->unexpected_depth = 0;
  out->waits.fill(0);
  out->send_lat = LatSnapshot{};
  out->recv_lat = LatSnapshot{};
  for (int v = 0; v < nv; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const VciCounters& c = e.vci_counters(v);
    out->lane_sends[vi] = c.get(VciCtr::SendEager) + c.get(VciCtr::SendRdv) +
                          c.get(VciCtr::SendNoreq) + c.get(VciCtr::SendQueued);
    out->lane_delivered[vi] = fab.delivered(r, v);
    out->lane_deliver_bytes[vi] = fab.delivered_bytes(r, v);
    out->lane_inject_bytes[vi] = fab.injected_bytes(r, v);
    out->recvs += c.get(VciCtr::RecvPosted);
    out->posted_depth += c.get(VciCtr::PostedDepth);
    out->unexpected_depth += c.get(VciCtr::UnexpectedDepth);
    const WaitBlock& w = e.vci_waits(v);
    for (std::size_t s = 0; s < kNumWaitStates; ++s) {
      out->waits[s] += w.of(static_cast<Wait>(s + 1)).snapshot().count;
    }
    const VciLatency& lat = e.vci_latency(v);
    out->send_lat.merge(lat.of(LatPath::SendEager));
    out->send_lat.merge(lat.of(LatPath::SendRdv));
    out->recv_lat.merge(lat.of(LatPath::RecvEager));
    out->recv_lat.merge(lat.of(LatPath::RecvRdv));
  }
  out->idle = e.engine_counters().get(EngCtr::ProgressIdle);
  out->swept = e.engine_counters().get(EngCtr::ProgressSwept);
  out->stall_ns = fab.net_stat(net::NetStat::RingStallNs, r);
  out->t_ns = lat_now_ns();
}

void Sampler::tick() {
  std::lock_guard<std::mutex> lk(mu_);
  const std::int64_t ms = std::max<std::int64_t>(1, cvar(Cv::SamplerIntervalMs));
  ++seq_;
  const int n = world_.nranks();
  for (int r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    RawRank now;
    collect(world_.engine(static_cast<Rank>(r)), &now);
    const RawRank& prev = raw_[ri];

    RankSample s;
    s.t_ns = now.t_ns;
    s.dt_ns = sat_sub(now.t_ns, prev.t_ns);
    s.interval_ns = static_cast<std::uint64_t>(ms) * 1'000'000;
    s.seq = seq_;
    s.rank = static_cast<Rank>(r);
    const double dt_s =
        s.dt_ns > 0 ? static_cast<double>(s.dt_ns) / 1e9 : 1e-9;

    s.lanes.resize(now.lane_sends.size());
    for (std::size_t v = 0; v < now.lane_sends.size(); ++v) {
      LaneSample& l = s.lanes[v];
      l.send_per_s =
          static_cast<double>(sat_sub(now.lane_sends[v], prev.lane_sends[v])) / dt_s;
      l.deliver_per_s =
          static_cast<double>(sat_sub(now.lane_delivered[v], prev.lane_delivered[v])) /
          dt_s;
      l.deliver_bytes_per_s =
          static_cast<double>(
              sat_sub(now.lane_deliver_bytes[v], prev.lane_deliver_bytes[v])) /
          dt_s;
      l.inject_bytes_per_s =
          static_cast<double>(
              sat_sub(now.lane_inject_bytes[v], prev.lane_inject_bytes[v])) /
          dt_s;
    }
    // Instantaneous per-lane depths (levels, not deltas).
    {
      Engine& e = world_.engine(static_cast<Rank>(r));
      for (std::size_t v = 0; v < s.lanes.size(); ++v) {
        const VciCounters& c = e.vci_counters(static_cast<int>(v));
        s.lanes[v].posted_depth = c.get(VciCtr::PostedDepth);
        s.lanes[v].unexpected_depth = c.get(VciCtr::UnexpectedDepth);
      }
    }

    s.sends_per_s = static_cast<double>(sat_sub(now.sends, prev.sends)) / dt_s;
    s.recvs_per_s = static_cast<double>(sat_sub(now.recvs, prev.recvs)) / dt_s;
    s.send_p99_ns = now.send_lat.delta(prev.send_lat).percentile(0.99);
    s.recv_p99_ns = now.recv_lat.delta(prev.recv_lat).percentile(0.99);
    s.posted_depth = now.posted_depth;
    s.unexpected_depth = now.unexpected_depth;
    s.posted_growth = static_cast<std::int64_t>(now.posted_depth) -
                      static_cast<std::int64_t>(prev.posted_depth);
    s.unexpected_growth = static_cast<std::int64_t>(now.unexpected_depth) -
                          static_cast<std::int64_t>(prev.unexpected_depth);
    const std::uint64_t stall = sat_sub(now.stall_ns, prev.stall_ns);
    s.credit_stall_pct =
        s.dt_ns > 0 ? 100.0 * static_cast<double>(stall) / static_cast<double>(s.dt_ns)
                    : 0.0;
    const std::uint64_t idle = sat_sub(now.idle, prev.idle);
    const std::uint64_t swept = sat_sub(now.swept, prev.swept);
    s.idle_pct = idle + swept > 0
                     ? 100.0 * static_cast<double>(idle) /
                           static_cast<double>(idle + swept)
                     : 0.0;
    for (std::size_t i = 0; i < kNumWaitStates; ++i) {
      s.wait_delta[i] = sat_sub(now.waits[i], prev.waits[i]);
    }

    evaluate_slo(&s);

    auto& ring = rings_[ri];
    ring.push_back(std::move(s));
    while (ring.size() > ring_depth_) ring.pop_front();
    raw_[ri] = std::move(now);
  }
  ticks_.fetch_add(1, std::memory_order_release);
}

void Sampler::evaluate_slo(RankSample* s) {
  for (int i = 0; i < kNumSloRules; ++i) {
    const auto thr = static_cast<double>(cvar(kSloRules[i].threshold));
    if (thr <= 0.0) continue;  // rule disabled
    double value = 0.0;
    switch (i) {
      case 0: value = s->credit_stall_pct; break;
      case 1: value = static_cast<double>(s->unexpected_depth); break;
      case 2: value = static_cast<double>(s->unexpected_growth); break;
      case 3: value = s->idle_pct; break;
      default: break;
    }
    if (value <= thr) continue;
    Alert a;
    a.rule = kSloRules[i].name;
    a.rule_index = i;
    a.rank = s->rank;
    a.value = value;
    a.threshold = thr;
    a.t_ns = s->t_ns;
    a.seq = s->seq;
    s->alerts.push_back(a);
    alerts_fired_.fetch_add(1, std::memory_order_release);
    // Structured alert event into the World's alert ring (a no-op unless
    // the world was built with BuildConfig::trace): seq 0 keeps it out of
    // message chains; tag carries the rule index, bytes the observed value,
    // wait_ns the threshold -- all integers by contract.
    world_.trace_alert(trace::Event{.ts_ns = rt::now_ns(),
                                    .seq = 0,
                                    .bytes = static_cast<std::uint64_t>(value),
                                    .lclock = world_.fabric().lclock(s->rank),
                                    .wait_ns = static_cast<std::uint64_t>(thr),
                                    .rank = s->rank,
                                    .peer = -1,
                                    .tag = i,
                                    .vci = 0,
                                    .wait = 0,
                                    .kind = trace::Ev::Alert});
  }
}

void Sampler::sample_now() { tick(); }

std::vector<RankSample> Sampler::history(Rank r) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& ring = rings_.at(static_cast<std::size_t>(r));
  return std::vector<RankSample>(ring.begin(), ring.end());
}

void Sampler::export_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ring : rings_) {
    for (const RankSample& s : ring) os << render_json(s) << '\n';
  }
}

std::string Sampler::timeline_json(std::size_t last_n) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const RankSample*> sel;
  for (const auto& ring : rings_) {
    const std::size_t start = ring.size() > last_n ? ring.size() - last_n : 0;
    for (std::size_t i = start; i < ring.size(); ++i) sel.push_back(&ring[i]);
  }
  std::sort(sel.begin(), sel.end(), [](const RankSample* a, const RankSample* b) {
    if (a->seq != b->seq) return a->seq < b->seq;
    return a->rank < b->rank;
  });
  std::ostringstream o;
  o << '[';
  for (std::size_t i = 0; i < sel.size(); ++i) {
    o << (i == 0 ? "" : ",") << render_json(*sel[i]);
  }
  o << ']';
  return o.str();
}

std::string Sampler::prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream o;
  const std::int64_t ms = std::max<std::int64_t>(1, cvar(Cv::SamplerIntervalMs));

  o << "# HELP lwmpi_sampler_interval_seconds Configured telemetry sampling interval.\n"
       "# TYPE lwmpi_sampler_interval_seconds gauge\n"
       "lwmpi_sampler_interval_seconds ";
  put_double(o, static_cast<double>(ms) / 1000.0);
  o << '\n';

  o << "# HELP lwmpi_sampler_ticks_total Sampling intervals recorded.\n"
       "# TYPE lwmpi_sampler_ticks_total counter\n"
       "lwmpi_sampler_ticks_total "
    << ticks_.load(std::memory_order_relaxed) << '\n';

  o << "# HELP lwmpi_alerts_total SLO rule firings since start.\n"
       "# TYPE lwmpi_alerts_total counter\n"
       "lwmpi_alerts_total "
    << alerts_fired_.load(std::memory_order_relaxed) << '\n';

  // Latest-interval derived gauges, one series per rank.
  struct G {
    const char* name;
    const char* help;
    double (*get)(const RankSample&);
  };
  static constexpr G kRankGauges[] = {
      {"lwmpi_sends_per_second", "Interval send rate (operations issued).",
       [](const RankSample& s) { return s.sends_per_s; }},
      {"lwmpi_recvs_per_second", "Interval receive-post rate.",
       [](const RankSample& s) { return s.recvs_per_s; }},
      {"lwmpi_send_p99_seconds", "Interval-local p99 send completion latency.",
       [](const RankSample& s) { return static_cast<double>(s.send_p99_ns) / 1e9; }},
      {"lwmpi_recv_p99_seconds", "Interval-local p99 receive completion latency.",
       [](const RankSample& s) { return static_cast<double>(s.recv_p99_ns) / 1e9; }},
      {"lwmpi_credit_stall_ratio", "Credit-stall time over the interval (0-1).",
       [](const RankSample& s) { return s.credit_stall_pct / 100.0; }},
      {"lwmpi_progress_idle_ratio", "Idle fraction of progress calls (0-1).",
       [](const RankSample& s) { return s.idle_pct / 100.0; }},
      {"lwmpi_alerts_active", "SLO alerts fired on the latest interval.",
       [](const RankSample& s) { return static_cast<double>(s.alerts.size()); }},
  };
  for (const G& g : kRankGauges) {
    o << "# HELP " << g.name << ' ' << g.help << "\n# TYPE " << g.name << " gauge\n";
    for (const auto& ring : rings_) {
      if (ring.empty()) continue;
      const RankSample& s = ring.back();
      o << g.name << "{rank=\"" << s.rank << "\"} ";
      put_double(o, g.get(s));
      o << '\n';
    }
  }

  // Per-(rank, vci) lane gauges from the latest interval.
  struct L {
    const char* name;
    const char* help;
    double (*get)(const LaneSample&);
  };
  static constexpr L kLaneGauges[] = {
      {"lwmpi_lane_sends_per_second", "Interval sends issued on this channel.",
       [](const LaneSample& l) { return l.send_per_s; }},
      {"lwmpi_lane_delivered_per_second", "Interval packets delivered to this lane.",
       [](const LaneSample& l) { return l.deliver_per_s; }},
      {"lwmpi_lane_delivered_bytes_per_second",
       "Interval payload bytes delivered to this lane.",
       [](const LaneSample& l) { return l.deliver_bytes_per_s; }},
      {"lwmpi_lane_injected_bytes_per_second",
       "Interval payload bytes injected toward this lane.",
       [](const LaneSample& l) { return l.inject_bytes_per_s; }},
      {"lwmpi_lane_posted_depth", "Posted-receive queue depth at tick time.",
       [](const LaneSample& l) { return static_cast<double>(l.posted_depth); }},
      {"lwmpi_lane_unexpected_depth", "Unexpected-queue depth at tick time.",
       [](const LaneSample& l) { return static_cast<double>(l.unexpected_depth); }},
  };
  for (const L& g : kLaneGauges) {
    o << "# HELP " << g.name << ' ' << g.help << "\n# TYPE " << g.name << " gauge\n";
    for (const auto& ring : rings_) {
      if (ring.empty()) continue;
      const RankSample& s = ring.back();
      for (std::size_t v = 0; v < s.lanes.size(); ++v) {
        o << g.name << "{rank=\"" << s.rank << "\",vci=\"" << v << "\"} ";
        put_double(o, g.get(s.lanes[v]));
        o << '\n';
      }
    }
  }

  // Cumulative wait-state classification counts (from the raw baselines --
  // these are since-construction totals, the natural Prometheus counter).
  o << "# HELP lwmpi_wait_events_total Classified wait events since sampler start.\n"
       "# TYPE lwmpi_wait_events_total counter\n";
  for (std::size_t r = 0; r < raw_.size(); ++r) {
    for (std::size_t i = 0; i < kNumWaitStates; ++i) {
      o << "lwmpi_wait_events_total{rank=\"" << r << "\",class=\"" << wait_name(i)
        << "\"} " << raw_[r].waits[i] << '\n';
    }
  }

  // Per-peer traffic from the aggregate profiler's communication matrix
  // (cumulative; zero cells are skipped so the series count stays sparse even
  // at large rank counts). Only present when WorldOptions::prof is on.
  if (const Profiler* p = world_.profiler(); p != nullptr) {
    const CommMatrix& m = p->matrix();
    o << "# HELP lwmpi_prof_peer_bytes_total Payload bytes injected src->dst by class.\n"
         "# TYPE lwmpi_prof_peer_bytes_total counter\n";
    for (int src = 0; src < m.nranks(); ++src) {
      for (int dst = 0; dst < m.nranks(); ++dst) {
        for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
          const auto cls = static_cast<MsgClass>(c);
          const std::uint64_t b = m.bytes(src, dst, cls);
          if (b == 0) continue;
          o << "lwmpi_prof_peer_bytes_total{rank=\"" << src << "\",peer=\"" << dst
            << "\",class=\"" << to_string(cls) << "\"} " << b << '\n';
        }
      }
    }
    o << "# HELP lwmpi_prof_peer_msgs_total Messages injected src->dst by class.\n"
         "# TYPE lwmpi_prof_peer_msgs_total counter\n";
    for (int src = 0; src < m.nranks(); ++src) {
      for (int dst = 0; dst < m.nranks(); ++dst) {
        for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
          const auto cls = static_cast<MsgClass>(c);
          const std::uint64_t n = m.count(src, dst, cls);
          if (n == 0) continue;
          o << "lwmpi_prof_peer_msgs_total{rank=\"" << src << "\",peer=\"" << dst
            << "\",class=\"" << to_string(cls) << "\"} " << n << '\n';
        }
      }
    }
    o << "# HELP lwmpi_prof_phase_depth Profiler phase-stack depth per rank.\n"
         "# TYPE lwmpi_prof_phase_depth gauge\n";
    for (int r = 0; r < p->nranks(); ++r) {
      o << "lwmpi_prof_phase_depth{rank=\"" << r << "\"} " << p->rank(r).phase_depth()
        << '\n';
    }
    o << "# HELP lwmpi_prof_pop_warnings_total Phase pops on an empty stack.\n"
         "# TYPE lwmpi_prof_pop_warnings_total counter\n";
    for (int r = 0; r < p->nranks(); ++r) {
      o << "lwmpi_prof_pop_warnings_total{rank=\"" << r << "\"} "
        << p->rank(r).pop_warnings() << '\n';
    }
  }

  // Flight-recorder counters (the rec_* pvars). Only present when
  // WorldOptions::record is on.
  if (Recorder* rec = world_.recorder(); rec != nullptr) {
    struct R {
      const char* name;
      const char* help;
      std::uint64_t (*get)(const RankRec&);
    };
    static constexpr R kRecCounters[] = {
        {"lwmpi_rec_ops_total", "Surface calls captured by the flight recorder.",
         [](const RankRec& r) { return r.ops().recorded(); }},
        {"lwmpi_rec_ops_dropped_total", "Recorded ops overwritten before flush.",
         [](const RankRec& r) { return r.ops().dropped(); }},
        {"lwmpi_rec_ops_sampled_total", "Recorded ops carrying TSC timing anchors.",
         [](const RankRec& r) { return r.anchors().recorded(); }},
        {"lwmpi_rec_flushed_bytes_total", "Trace-bundle bytes written per rank.",
         [](const RankRec& r) { return r.flushed_bytes(); }},
        {"lwmpi_rec_flush_seconds_total", "Seconds spent flushing per rank.",
         [](const RankRec& r) { return r.flush_ns(); }},
    };
    for (const R& g : kRecCounters) {
      const bool seconds = std::string_view(g.name).ends_with("seconds_total");
      o << "# HELP " << g.name << ' ' << g.help << "\n# TYPE " << g.name << " counter\n";
      for (int r = 0; r < world_.nranks(); ++r) {
        o << g.name << "{rank=\"" << r << "\"} ";
        if (seconds) {
          put_double(o, static_cast<double>(g.get(rec->rank(r))) / 1e9);
        } else {
          o << g.get(rec->rank(r));
        }
        o << '\n';
      }
    }
  }

  return o.str();
}

}  // namespace lwmpi::obs
