#include "obs/pvar.hpp"

#include <span>

#include "core/engine.hpp"
#include "net/fabric.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "runtime/world.hpp"

namespace lwmpi::obs {

const char* to_string(PvarClass c) noexcept {
  switch (c) {
    case PvarClass::Counter: return "counter";
    case PvarClass::Level: return "level";
    case PvarClass::Highwatermark: return "highwatermark";
  }
  return "?";
}

namespace {

using ReadFn = std::uint64_t (*)(Engine&, int vci);

struct Entry {
  PvarInfo info;
  ReadFn read;  // one channel for Vci-bound entries; vci ignored otherwise
};

template <VciCtr C>
std::uint64_t read_vci_ctr(Engine& e, int vci) {
  return e.vci_counters(vci).get(C);
}
template <EngCtr C>
std::uint64_t read_eng_ctr(Engine& e, int) {
  return e.engine_counters().get(C);
}

constexpr PvarInfo vci_counter(std::string_view name, std::string_view desc) {
  return {name, desc, PvarClass::Counter, PvarBind::Vci};
}

// Latency-histogram readers: fold one path's histogram across the engine's
// channels, then extract a statistic. Percentiles/max are Level-class (an
// instantaneous property of the distribution); counts are Counter-class so
// sessions can baseline them like any other event count.
LatSnapshot merged_lat(Engine& e, LatPath p) {
  LatSnapshot s;
  for (int v = 0; v < e.num_vcis(); ++v) s.merge(e.vci_latency(v).of(p));
  return s;
}
template <LatPath P>
std::uint64_t read_lat_p50(Engine& e, int) {
  return merged_lat(e, P).percentile(0.50);
}
template <LatPath P>
std::uint64_t read_lat_p99(Engine& e, int) {
  return merged_lat(e, P).percentile(0.99);
}
template <LatPath P>
std::uint64_t read_lat_max(Engine& e, int) {
  return merged_lat(e, P).max_ns;
}
template <LatPath P>
std::uint64_t read_lat_count(Engine& e, int) {
  return merged_lat(e, P).count;
}

constexpr PvarInfo lat_level(std::string_view name, std::string_view desc) {
  return {name, desc, PvarClass::Level, PvarBind::Engine};
}

// Wait-state histogram readers (obs/causal.hpp): fold one classification's
// histogram across the engine's channels, same shape as the lat_* readers.
LatSnapshot merged_waits(Engine& e, Wait w) {
  LatSnapshot s;
  for (int v = 0; v < e.num_vcis(); ++v) s.merge(e.vci_waits(v).of(w));
  return s;
}
template <Wait W>
std::uint64_t read_wait_count(Engine& e, int) {
  return merged_waits(e, W).count;
}
template <Wait W>
std::uint64_t read_wait_p99(Engine& e, int) {
  return merged_waits(e, W).percentile(0.99);
}
template <Wait W>
std::uint64_t read_wait_max(Engine& e, int) {
  return merged_waits(e, W).max_ns;
}

const Entry kRegistry[] = {
    {vci_counter("vci_sends_eager", "sends issued on the eager path"),
     &read_vci_ctr<VciCtr::SendEager>},
    {vci_counter("vci_sends_rdv", "sends issued on the rendezvous path"),
     &read_vci_ctr<VciCtr::SendRdv>},
    {vci_counter("vci_sends_noreq", "_NOREQ sends (counter-completed)"),
     &read_vci_ctr<VciCtr::SendNoreq>},
    {vci_counter("vci_sends_queued", "packets staged in the orig-device send queue"),
     &read_vci_ctr<VciCtr::SendQueued>},
    {vci_counter("vci_recvs_posted", "receives posted to the matcher"),
     &read_vci_ctr<VciCtr::RecvPosted>},
    {{"vci_posted_depth", "current posted-receive-queue depth", PvarClass::Level,
      PvarBind::Vci},
     &read_vci_ctr<VciCtr::PostedDepth>},
    {{"vci_posted_hwm", "posted-receive-queue high-water mark", PvarClass::Highwatermark,
      PvarBind::Vci},
     &read_vci_ctr<VciCtr::PostedHwm>},
    {{"vci_unexpected_depth", "current unexpected-queue depth", PvarClass::Level,
      PvarBind::Vci},
     &read_vci_ctr<VciCtr::UnexpectedDepth>},
    {{"vci_unexpected_hwm", "unexpected-queue high-water mark", PvarClass::Highwatermark,
      PvarBind::Vci},
     &read_vci_ctr<VciCtr::UnexpectedHwm>},
    {vci_counter("vci_posted_matches", "arrivals that matched a posted receive"),
     &read_vci_ctr<VciCtr::PostedMatch>},
    {vci_counter("vci_posted_misses", "arrivals retained on the unexpected queue"),
     &read_vci_ctr<VciCtr::PostedMiss>},
    {vci_counter("vci_gate_contended", "VciGate acquisitions that missed try_lock"),
     &read_vci_ctr<VciCtr::GateContended>},
    {vci_counter("vci_busy_instr", "modeled instructions executed on the channel"),
     +[](Engine& e, int vci) { return e.vci_busy_instr(vci); }},
    {vci_counter("rma_ops", "RMA data operations issued on the channel"),
     &read_vci_ctr<VciCtr::RmaOp>},
    {vci_counter("rma_flushes", "RMA flush/fence synchronizations on the channel"),
     &read_vci_ctr<VciCtr::RmaFlush>},
    {{"progress_calls_idle", "progress() calls resolved by the lock-free idle path",
      PvarClass::Counter, PvarBind::Engine},
     &read_eng_ctr<EngCtr::ProgressIdle>},
    {{"progress_calls_swept", "progress() calls that swept the VCI poll set",
      PvarClass::Counter, PvarBind::Engine},
     &read_eng_ctr<EngCtr::ProgressSwept>},
    {vci_counter("fabric_injected", "packets injected into this rank's fabric lane"),
     +[](Engine& e, int vci) { return e.world().fabric().injected(e.world_rank(), vci); }},
    {vci_counter("fabric_delivered", "packets delivered from this rank's fabric lane"),
     +[](Engine& e, int vci) { return e.world().fabric().delivered(e.world_rank(), vci); }},
    // Per-lane payload byte counters; the profiler's comm matrix must sum to
    // fabric_injected_bytes.
    {vci_counter("fabric_injected_bytes", "payload bytes injected toward this rank's lane"),
     +[](Engine& e, int vci) {
       return e.world().fabric().injected_bytes(e.world_rank(), vci);
     }},
    {vci_counter("fabric_delivered_bytes", "payload bytes delivered from this rank's lane"),
     +[](Engine& e, int vci) {
       return e.world().fabric().delivered_bytes(e.world_rank(), vci);
     }},
    // A window deeper than the lane's 64-cell ring spills to its overflow
    // queue; the count is the lane's own, so reading it adds no write.
    {vci_counter("fabric_lane_overflows", "packets that found this rank's lane ring full"),
     +[](Engine& e, int vci) {
       return e.world().fabric().lane_overflows(e.world_rank(), vci);
     }},
    // Fabric-wide blackhole drop count (infinitely-fast-network methodology).
    // The counter is shared by every rank of the world, so per-rank reports
    // repeat the same value; fig5/fig6 runs read it from rank 0.
    {{"fabric_dropped", "packets dropped at the injection boundary (blackhole)",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) { return e.world().fabric().dropped(); }},
    // rdma-netmod statistics: all read 0 on backends without the mechanism.
    {{"rdma_reg_cache_hits", "buffer registrations resolved from the cache",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::RegCacheHit, e.world_rank());
     }},
    {{"rdma_reg_cache_misses", "buffer registrations that paid the pin cost",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::RegCacheMiss, e.world_rank());
     }},
    {{"rdma_reg_cache_evictions", "LRU registrations unpinned to make room",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::RegCacheEviction, e.world_rank());
     }},
    {{"rdma_ring_occupancy_hwm", "eager receive-ring occupancy high-water mark",
      PvarClass::Highwatermark, PvarBind::Vci},
     +[](Engine& e, int vci) {
       return e.world().fabric().net_stat(net::NetStat::RingOccupancyHwm, e.world_rank(),
                                          vci);
     }},
    {{"rdma_ring_stalls", "injections that waited for an eager-ring credit",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::RingStall, e.world_rank());
     }},
    {{"rdma_zero_copy_writes", "one-sided zero-copy transfers issued by this rank",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::ZeroCopyWrite, e.world_rank());
     }},
    {{"rdma_zero_copy_bytes", "payload bytes moved by zero-copy rdma_write",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::ZeroCopyBytes, e.world_rank());
     }},
    {{"requests_live", "request-pool slots currently allocated", PvarClass::Level,
      PvarBind::Engine},
     +[](Engine& e, int) { return static_cast<std::uint64_t>(e.live_requests()); }},
    {{"sends_issued", "total sends issued by this rank", PvarClass::Counter,
      PvarBind::Engine},
     +[](Engine& e, int) { return e.sends_issued(); }},
    // Events this rank's channel rings overwrote before collection, so
    // exported Perfetto timelines can be flagged as incomplete.
    {{"trace_events_dropped", "trace-ring events overwritten before collection",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       std::uint64_t n = 0;
       for (int v = 0; v < e.num_vcis(); ++v) n += e.vci_trace(v).dropped();
       return n;
     }},
    // Message-lifetime latency distributions (obs/histogram.hpp), merged over
    // the engine's channels.
    {lat_level("lat_send_eager_p50_ns", "eager send lifetime p50 (ns)"),
     &read_lat_p50<LatPath::SendEager>},
    {lat_level("lat_send_eager_p99_ns", "eager send lifetime p99 (ns)"),
     &read_lat_p99<LatPath::SendEager>},
    {lat_level("lat_send_eager_max_ns", "eager send lifetime max (ns)"),
     &read_lat_max<LatPath::SendEager>},
    {lat_level("lat_send_rdv_p50_ns", "rendezvous send lifetime p50 (ns)"),
     &read_lat_p50<LatPath::SendRdv>},
    {lat_level("lat_send_rdv_p99_ns", "rendezvous send lifetime p99 (ns)"),
     &read_lat_p99<LatPath::SendRdv>},
    {lat_level("lat_send_rdv_max_ns", "rendezvous send lifetime max (ns)"),
     &read_lat_max<LatPath::SendRdv>},
    {lat_level("lat_recv_eager_p50_ns", "eager receive lifetime p50 (ns)"),
     &read_lat_p50<LatPath::RecvEager>},
    {lat_level("lat_recv_eager_p99_ns", "eager receive lifetime p99 (ns)"),
     &read_lat_p99<LatPath::RecvEager>},
    {lat_level("lat_recv_eager_max_ns", "eager receive lifetime max (ns)"),
     &read_lat_max<LatPath::RecvEager>},
    {lat_level("lat_recv_rdv_p50_ns", "rendezvous receive lifetime p50 (ns)"),
     &read_lat_p50<LatPath::RecvRdv>},
    {lat_level("lat_recv_rdv_p99_ns", "rendezvous receive lifetime p99 (ns)"),
     &read_lat_p99<LatPath::RecvRdv>},
    {lat_level("lat_recv_rdv_max_ns", "rendezvous receive lifetime max (ns)"),
     &read_lat_max<LatPath::RecvRdv>},
    {{"lat_send_eager_count", "eager send lifetimes recorded", PvarClass::Counter,
      PvarBind::Engine},
     &read_lat_count<LatPath::SendEager>},
    {{"lat_send_rdv_count", "rendezvous send lifetimes recorded", PvarClass::Counter,
      PvarBind::Engine},
     &read_lat_count<LatPath::SendRdv>},
    {{"lat_recv_eager_count", "eager receive lifetimes recorded", PvarClass::Counter,
      PvarBind::Engine},
     &read_lat_count<LatPath::RecvEager>},
    {{"lat_recv_rdv_count", "rendezvous receive lifetimes recorded", PvarClass::Counter,
      PvarBind::Engine},
     &read_lat_count<LatPath::RecvRdv>},
    {{"lat_unexpected_wait_count", "unexpected-queue waits recorded", PvarClass::Counter,
      PvarBind::Engine},
     &read_lat_count<LatPath::UnexpectedWait>},
    {{"lat_send_queue_wait_count", "send-queue residencies recorded", PvarClass::Counter,
      PvarBind::Engine},
     &read_lat_count<LatPath::SendQueueWait>},
    {lat_level("lat_calibration_ns", "ns the process spent calibrating the TSC clock"),
     +[](Engine&, int) { return lat_calibration_spin_ns.load(std::memory_order_relaxed); }},
    // Causal wait-state distributions (obs/causal.hpp): every matched
    // message's wait interval, classified by its dominant cause and merged
    // over the engine's channels.
    {{"wait_late_sender_count", "matches classified late-sender", PvarClass::Counter,
      PvarBind::Engine},
     &read_wait_count<Wait::LateSender>},
    {lat_level("wait_late_sender_p99_ns", "late-sender wait p99 (ns)"),
     &read_wait_p99<Wait::LateSender>},
    {lat_level("wait_late_sender_max_ns", "late-sender wait max (ns)"),
     &read_wait_max<Wait::LateSender>},
    {{"wait_late_receiver_count", "matches classified late-receiver", PvarClass::Counter,
      PvarBind::Engine},
     &read_wait_count<Wait::LateReceiver>},
    {lat_level("wait_late_receiver_p99_ns", "late-receiver wait p99 (ns)"),
     &read_wait_p99<Wait::LateReceiver>},
    {lat_level("wait_late_receiver_max_ns", "late-receiver wait max (ns)"),
     &read_wait_max<Wait::LateReceiver>},
    {{"wait_progress_starved_count", "matches classified progress-starved",
      PvarClass::Counter, PvarBind::Engine},
     &read_wait_count<Wait::ProgressStarved>},
    {lat_level("wait_progress_starved_p99_ns", "progress-starved wait p99 (ns)"),
     &read_wait_p99<Wait::ProgressStarved>},
    {lat_level("wait_progress_starved_max_ns", "progress-starved wait max (ns)"),
     &read_wait_max<Wait::ProgressStarved>},
    {{"wait_credit_stalled_count", "matches classified credit-stalled",
      PvarClass::Counter, PvarBind::Engine},
     &read_wait_count<Wait::CreditStalled>},
    {lat_level("wait_credit_stalled_p99_ns", "credit-stalled wait p99 (ns)"),
     &read_wait_p99<Wait::CreditStalled>},
    {lat_level("wait_credit_stalled_max_ns", "credit-stalled wait max (ns)"),
     &read_wait_max<Wait::CreditStalled>},
    {{"wait_reg_cache_miss_count", "zcopy registrations that paid the pin cost",
      PvarClass::Counter, PvarBind::Engine},
     &read_wait_count<Wait::RegCacheMiss>},
    {lat_level("wait_reg_cache_miss_p99_ns", "reg-cache-miss wait p99 (ns)"),
     &read_wait_p99<Wait::RegCacheMiss>},
    {lat_level("wait_reg_cache_miss_max_ns", "reg-cache-miss wait max (ns)"),
     &read_wait_max<Wait::RegCacheMiss>},
    // rdma credit state (satellite of the causal tier): live ring credits and
    // registration-cache size, so a hang report can show credit exhaustion.
    {{"rdma_ring_credits", "free eager-ring credits (scarcest lane)", PvarClass::Level,
      PvarBind::Vci},
     +[](Engine& e, int vci) {
       return e.world().fabric().net_stat(net::NetStat::RingCredits, e.world_rank(), vci);
     }},
    {{"rdma_ring_stall_ns", "total ns injections busy-waited for a credit",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::RingStallNs, e.world_rank());
     }},
    {{"rdma_reg_cache_size", "current registration-cache entry count", PvarClass::Level,
      PvarBind::Engine},
     +[](Engine& e, int) {
       return e.world().fabric().net_stat(net::NetStat::RegCacheSize, e.world_rank());
     }},
    // Aggregate-profiler pvars (obs/profiler.hpp): communication-matrix row /
    // column sums for this rank plus phase and misuse state. All read 0 when
    // profiling is off. prof_tx_bytes mirrors the fabric_injected_bytes sum
    // by construction (the profcheck invariant).
    {{"prof_tx_bytes", "packet payload bytes this rank injected (matrix row sum)",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const Profiler* p = e.world().profiler();
       return p == nullptr ? 0 : p->matrix().tx_bytes(e.world_rank());
     }},
    {{"prof_rx_bytes", "packet payload bytes addressed to this rank (matrix column sum)",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const Profiler* p = e.world().profiler();
       return p == nullptr ? 0 : p->matrix().rx_bytes(e.world_rank());
     }},
    {{"prof_tx_msgs", "packets this rank injected (matrix row sum)", PvarClass::Counter,
      PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const Profiler* p = e.world().profiler();
       return p == nullptr ? 0 : p->matrix().tx_msgs(e.world_rank());
     }},
    {{"prof_rx_msgs", "packets addressed to this rank (matrix column sum)",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const Profiler* p = e.world().profiler();
       return p == nullptr ? 0 : p->matrix().rx_msgs(e.world_rank());
     }},
    {{"prof_zcopy_tx_bytes", "zero-copy rdma_write bytes this rank originated",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const Profiler* p = e.world().profiler();
       if (p == nullptr) return 0;
       const Rank r = e.world_rank();
       return p->matrix().tx_bytes(r, /*include_zcopy=*/true) - p->matrix().tx_bytes(r);
     }},
    {{"prof_phase_depth", "current profiler phase-stack depth", PvarClass::Level,
      PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const RankProf* rp = e.prof();
       return rp == nullptr ? 0 : static_cast<std::uint64_t>(rp->phase_depth());
     }},
    {{"prof_pop_warnings", "phase pops on an empty stack (profiler misuse)",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const RankProf* rp = e.prof();
       return rp == nullptr ? 0 : rp->pop_warnings();
     }},
    {{"prof_phases", "distinct phase names interned by the profiler", PvarClass::Level,
      PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const Profiler* p = e.world().profiler();
       return p == nullptr ? 0 : static_cast<std::uint64_t>(p->num_phases());
     }},
    // Flight-recorder pvars (obs/recorder.hpp). All read 0 when recording is
    // off (WorldOptions::record).
    {{"rec_ops_captured", "surface calls captured by the flight recorder",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const RankRec* r = e.rec();
       return r == nullptr ? 0 : r->ops().recorded();
     }},
    {{"rec_ops_dropped", "recorded ops overwritten in the ring before flush",
      PvarClass::Counter, PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const RankRec* r = e.rec();
       return r == nullptr ? 0 : r->ops().dropped();
     }},
    {{"rec_ops_sampled", "recorded ops carrying TSC timing anchors", PvarClass::Counter,
      PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const RankRec* r = e.rec();
       return r == nullptr ? 0 : r->anchors().recorded();
     }},
    {{"rec_bytes_flushed", "trace-bundle bytes written for this rank", PvarClass::Counter,
      PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const RankRec* r = e.rec();
       return r == nullptr ? 0 : r->flushed_bytes();
     }},
    {{"rec_flush_ns", "total ns spent flushing this rank's trace", PvarClass::Counter,
      PvarBind::Engine},
     +[](Engine& e, int) -> std::uint64_t {
       const RankRec* r = e.rec();
       return r == nullptr ? 0 : r->flush_ns();
     }},
};

constexpr int kNumPvars = static_cast<int>(std::size(kRegistry));

// Absolute (pre-baseline) value, summed over channels for Vci-bound entries.
std::uint64_t raw_read(Engine& e, int index, int vci) {
  const Entry& ent = kRegistry[index];
  if (ent.info.bind == PvarBind::Engine) return ent.read(e, 0);
  if (vci >= 0) return ent.read(e, vci);
  std::uint64_t sum = 0;
  for (int v = 0; v < e.num_vcis(); ++v) sum += ent.read(e, v);
  return sum;
}

bool bad_index(int index) noexcept { return index < 0 || index >= kNumPvars; }

}  // namespace

int LWMPI_T_pvar_num() noexcept { return kNumPvars; }

Err LWMPI_T_pvar_get_info(int index, PvarInfo* info) noexcept {
  if (info == nullptr) return Err::Arg;
  if (bad_index(index)) return Err::Arg;
  *info = kRegistry[index].info;
  return Err::Success;
}

int LWMPI_T_pvar_index(std::string_view name) noexcept {
  for (int i = 0; i < kNumPvars; ++i) {
    if (kRegistry[i].info.name == name) return i;
  }
  return -1;
}

Err LWMPI_T_pvar_session_create(Engine& e, PvarSession* s) {
  if (s == nullptr) return Err::Arg;
  s->engine_ = &e;
  s->baseline_.assign(static_cast<std::size_t>(kNumPvars), 0);
  return Err::Success;
}

Err LWMPI_T_pvar_session_free(PvarSession* s) {
  if (s == nullptr || s->engine_ == nullptr) return Err::Arg;
  s->engine_ = nullptr;
  s->baseline_.clear();
  return Err::Success;
}

Err LWMPI_T_pvar_start(PvarSession& s, int index) {
  if (!s.valid() || bad_index(index)) return Err::Arg;
  if (kRegistry[index].info.klass == PvarClass::Counter) {
    s.baseline_[static_cast<std::size_t>(index)] = raw_read(*s.engine_, index, -1);
  }
  return Err::Success;
}

Err LWMPI_T_pvar_read(PvarSession& s, int index, std::uint64_t* value) {
  if (value == nullptr || !s.valid() || bad_index(index)) return Err::Arg;
  std::uint64_t v = raw_read(*s.engine_, index, -1);
  if (kRegistry[index].info.klass == PvarClass::Counter) {
    v -= s.baseline_[static_cast<std::size_t>(index)];
  }
  *value = v;
  return Err::Success;
}

Err LWMPI_T_pvar_read_vci(PvarSession& s, int index, int vci, std::uint64_t* value) {
  if (value == nullptr || !s.valid() || bad_index(index)) return Err::Arg;
  if (vci >= s.engine_->num_vcis()) return Err::Arg;
  if (vci < 0) return LWMPI_T_pvar_read(s, index, value);
  *value = raw_read(*s.engine_, index, vci);
  return Err::Success;
}

Err LWMPI_T_pvar_reset(PvarSession& s, int index) { return LWMPI_T_pvar_start(s, index); }

}  // namespace lwmpi::obs
