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
#include "runtime/world.hpp"

namespace lwmpi::obs {

namespace {

std::uint64_t sat_sub(std::uint64_t now, std::uint64_t was) noexcept {
  return now >= was ? now - was : 0;
}

// JSON-safe double rendering: %.6g never emits inf/nan here because every
// rate divides by a clamped-positive interval.
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
  o << "]}";
  return o.str();
}

Sampler::Sampler(World& world, SamplerOptions opts)
    : world_(world), opts_(std::move(opts)) {
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
  // lands in the time series before the JSONL file is written.
  sample_now();
  if (!opts_.jsonl_path.empty()) {
    std::ofstream f(opts_.jsonl_path, std::ios::trunc);
    if (f) export_jsonl(f);
  }
}

void Sampler::run() {
  // Same sliced-sleep pattern as the watchdog: destruction never waits out a
  // full interval.
  constexpr std::uint64_t kSliceNs = 2'000'000;
  while (!stop_.load(std::memory_order_acquire)) {
    std::uint64_t slept = 0;
    while (slept < opts_.interval_ns && !stop_.load(std::memory_order_acquire)) {
      const std::uint64_t chunk = std::min(kSliceNs, opts_.interval_ns - slept);
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
  out->lane_posted.assign(nvs, 0);
  out->lane_unexpected.assign(nvs, 0);
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
    // One read per lane and depth: the rank-level depth is the sum of the
    // very values the lanes report.
    out->lane_posted[vi] = c.get(VciCtr::PostedDepth);
    out->lane_unexpected[vi] = c.get(VciCtr::UnexpectedDepth);
    out->posted_depth += out->lane_posted[vi];
    out->unexpected_depth += out->lane_unexpected[vi];
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
    s.interval_ns = opts_.interval_ns;
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
      l.posted_depth = now.lane_posted[v];  // levels, not deltas
      l.unexpected_depth = now.lane_unexpected[v];
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

    auto& ring = rings_[ri];
    ring.push_back(std::move(s));
    while (ring.size() > ring_depth()) ring.pop_front();
    raw_[ri] = std::move(now);
  }
  ticks_.fetch_add(1, std::memory_order_release);
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

}  // namespace lwmpi::obs
