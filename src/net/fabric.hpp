// The simulated fabric: a facade over a pluggable netmod backend.
//
// This is the reproduction's stand-in for the cluster interconnect. Ranks are
// grouped into simulated nodes; intra-node traffic takes the shmmod cost
// parameters and inter-node traffic the netmod parameters. The transport
// mechanism itself -- how injection, delivery, and flow control work -- lives
// behind the Netmod interface (net/netmod.hpp): "mailbox" is the original
// unbounded per-(rank, vci) transport, "rdma" models eager-over-RDMA-write
// credit rings, a registration cache, and zero-copy rendezvous handoff. Both
// deliver into the same receive lanes (net/lane.hpp).
//
// Every call site in core/, rma/, obs/, and bench/ programs against this
// facade, so swapping backends never touches the engine. The facade also owns
// the vci bounds policy: an out-of-range lane index falls back to lane 0 on
// every operation, symmetric with inject's long-standing behavior, so a
// corrupted or miscomputed vci can skew a counter but never read out of
// bounds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/types.hpp"
#include "net/netmod.hpp"
#include "net/profile.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::rt {
struct Packet;
}

namespace lwmpi::net {

class Fabric {
 public:
  // `netmod` selects the backend ("mailbox" or "rdma"); unknown names throw
  // std::invalid_argument (see make_netmod). `lamport` turns on the causal
  // clock and the send stamp on every packet; World passes
  // BuildConfig::trace, because trace events are the clock's only readers.
  Fabric(int nranks, int ranks_per_node, Profile profile, int lanes_per_rank = 1,
         std::string_view netmod = "mailbox", bool lamport = false);
  ~Fabric();  // the backend reclaims undelivered packets

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  std::string_view backend_name() const noexcept { return mod_->name(); }

  int nranks() const noexcept { return mod_->nranks(); }
  int ranks_per_node() const noexcept { return mod_->ranks_per_node(); }
  int lanes_per_rank() const noexcept { return mod_->lanes_per_rank(); }
  int node_of(Rank r) const noexcept { return mod_->node_of(r); }
  bool same_node(Rank a, Rank b) const noexcept { return mod_->same_node(a, b); }
  const Profile& profile() const noexcept { return mod_->profile(); }

  // Send `p` to rank `dst`, on the lane named by p->hdr.vci (out-of-range vci
  // falls back to lane 0). Takes ownership. Busy-waits the injection cost,
  // stamps latency, and enqueues into the destination lane. In blackhole mode
  // the packet is dropped at this boundary (Figure 5/6 methodology).
  //
  // The facade stamps the causal header here, so both backends carry it
  // without transport changes. A traced world ticks the Lamport clock and
  // stamps every packet:
  //   L := ++clock[src];  hdr.lclock = L;  hdr.send_ns = lat_now_ns().
  // The tick is a locked read-modify-write on rank-global state, and trace
  // events are the clock's only readers, so untraced packets keep
  // lclock = 0, which also makes poll() skip its merge.
  // An untraced world stamps send_ns only on a packet the sender marked
  // `sampled`: the latency tier samples both ends of a (channel, peer) stream
  // at the same messages (obs/histogram.hpp VciLatency), and only a sampled
  // receive classifies its wait with the stamp. An unsampled send reads no
  // clock.
  //
  // The aggregate profiler's rank x rank communication matrix is stamped at
  // the same boundary for the same reason. The stamp sits before the backend
  // call (the backend frees the packet on drop paths), but set_profiler
  // refuses blackhole worlds, so matrix bytes track the backends' own
  // injected_bytes counters exactly (the profcheck invariant).
  void inject(Rank src, Rank dst, rt::Packet* p) noexcept {
    if (lamport_) [[unlikely]] {
      if (src >= 0 && src < nranks()) {
        p->hdr.lclock =
            clock_[static_cast<std::size_t>(src)].fetch_add(1, std::memory_order_relaxed) +
            1;
      }
      p->hdr.send_ns = obs::lat_now_ns();
    } else if (p->hdr.sampled != 0) [[unlikely]] {
      p->hdr.send_ns = obs::lat_now_ns();
    }
    if (prof_ != nullptr) prof_->on_inject(src, dst, p->hdr.kind, p->payload.size());
    mod_->inject(src, dst, p);
  }

  // Pay the per-message injection cost without transmitting anything. Used by
  // the ch4 direct (simulated-RDMA) RMA path: hardware still consumes a
  // descriptor slot per operation even though no software-visible packet flows.
  void charge_injection(Rank src, Rank dst) noexcept { mod_->charge_injection(src, dst); }

  // Consume one matured packet from `self`'s lane `vci`, or nullptr. Must
  // only be called while holding the consuming side of that lane (the Engine
  // serializes on the owning VCI's lock).
  //
  // Merges the Lamport clock on delivery: clock[self] := max(clock[self],
  // hdr.lclock + 1), so any event the receiver records after this poll carries
  // a clock strictly greater than everything that happened-before the send.
  // Untraced packets carry lclock 0 and skip the merge.
  rt::Packet* poll(Rank self, int vci = 0) noexcept {
    rt::Packet* p = mod_->poll(self, lane(vci));
    if (p != nullptr && p->hdr.lclock != 0 && self >= 0 && self < nranks()) {
      auto& c = clock_[static_cast<std::size_t>(self)];
      const std::uint64_t want = p->hdr.lclock + 1;
      std::uint64_t cur = c.load(std::memory_order_relaxed);
      while (cur < want &&
             !c.compare_exchange_weak(cur, want, std::memory_order_relaxed)) {
      }
    }
    return p;
  }

  // Current Lamport clock of `r` (causal trace events snapshot this); stays 0
  // in an untraced world.
  std::uint64_t lclock(Rank r) const noexcept {
    if (r < 0 || r >= nranks()) return 0;
    return clock_[static_cast<std::size_t>(r)].load(std::memory_order_relaxed);
  }

  // The doorbell the progress poll set reads: true if a packet may be waiting
  // on `self`'s lane `vci` (matured or not). It reads the lane's head cell,
  // not counters other cores write, and may miss a packet whose cell is still
  // being written; the next call sees it.
  bool ready(Rank self, int vci) const noexcept { return mod_->ready(self, lane(vci)); }

  // ready() over `self`'s lanes that have ever carried a message: an idle
  // progress call on a rank that never receives reads one word.
  bool ready_any(Rank self) const noexcept { return mod_->ready_any(self); }

  // True if no packet is currently visible for `self` on any lane.
  bool idle(Rank self) const noexcept { return !ready_any(self); }

  // Exact injected-minus-delivered count for one lane, and its sum over
  // `self`'s lanes: the watchdog's "traffic in flight" test. Progress reads
  // the doorbell instead.
  std::uint64_t pending(Rank self, int vci) const noexcept {
    return mod_->pending(self, lane(vci));
  }
  std::uint64_t pending_any(Rank self) const noexcept { return mod_->pending_any(self); }

  // Aggregate counters over all of a rank's lanes.
  std::uint64_t injected(Rank r) const noexcept {
    std::uint64_t n = 0;
    for (int v = 0; v < lanes_per_rank(); ++v) n += mod_->injected(r, v);
    return n;
  }
  std::uint64_t delivered(Rank r) const noexcept {
    std::uint64_t n = 0;
    for (int v = 0; v < lanes_per_rank(); ++v) n += mod_->delivered(r, v);
    return n;
  }
  // Per-lane counters (observability / pvar export).
  std::uint64_t injected(Rank r, int vci) const noexcept {
    return mod_->injected(r, lane(vci));
  }
  std::uint64_t delivered(Rank r, int vci) const noexcept {
    return mod_->delivered(r, lane(vci));
  }
  // Per-lane payload byte counters (the fabric_*_bytes pvars; the profiler
  // checks sum(matrix bytes) == fabric_injected_bytes against them).
  std::uint64_t injected_bytes(Rank r, int vci) const noexcept {
    return mod_->injected_bytes(r, lane(vci));
  }
  std::uint64_t delivered_bytes(Rank r, int vci) const noexcept {
    return mod_->delivered_bytes(r, lane(vci));
  }
  // Pushes into the lane that found its ring full (the fabric_lane_overflows
  // pvar): a window deeper than the ring says so here.
  std::uint64_t lane_overflows(Rank r, int vci) const noexcept {
    return mod_->lane_overflows(r, lane(vci));
  }
  std::uint64_t dropped() const noexcept { return mod_->dropped(); }

  // --- RDMA-semantics extensions (forwarded; no-ops on non-rdma backends) -----
  bool rdma_capable() const noexcept { return mod_->rdma_capable(); }
  std::uint64_t register_memory(Rank self, const void* base, std::size_t bytes) {
    return mod_->register_memory(self, base, bytes);
  }
  void rdma_write(Rank src, Rank dst, const void* from, std::uint64_t rkey,
                  std::size_t bytes) noexcept {
    if (prof_ != nullptr) prof_->on_rdma_write(src, dst, bytes);
    mod_->rdma_write(src, dst, from, rkey, bytes);
  }
  void credit_return(Rank self, int vci) noexcept { mod_->credit_return(self, lane(vci)); }
  std::uint64_t net_stat(NetStat s, Rank self, int vci = -1) const noexcept {
    return mod_->stat(s, self, vci);
  }

  // Attach the aggregate profiler's communication matrix (obs/profiler.hpp);
  // World installs this when profiling is on. Blackhole worlds stay detached:
  // their backends drop packets before counting bytes, and the matrix mirrors
  // the backends' byte counters by construction.
  void set_profiler(obs::Profiler* p) noexcept {
    prof_ = (p != nullptr && !mod_->profile().blackhole) ? p : nullptr;
  }

 private:
  // The facade-wide vci bounds policy: anything outside [0, lanes) reads lane
  // 0, matching inject's fallback, so no index computed from a packet header
  // or caller argument can walk off the lane table.
  int lane(int vci) const noexcept {
    return vci >= 0 && vci < mod_->lanes_per_rank() ? vci : 0;
  }

  std::unique_ptr<Netmod> mod_;
  // Per-rank Lamport logical clocks, ticked at inject and merged at poll when
  // `lamport_` is set.
  std::unique_ptr<std::atomic<std::uint64_t>[]> clock_;
  const bool lamport_;
  // Aggregate-profiler hook (null when profiling is off): one predictable
  // branch on the injection path, matching the counters discipline.
  obs::Profiler* prof_ = nullptr;
};

}  // namespace lwmpi::net
