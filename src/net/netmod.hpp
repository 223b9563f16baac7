// Pluggable network-module (netmod) interface.
//
// The paper's fig3/fig4 crossovers were measured on two genuinely different
// injection semantics (OFI/PSM2 vs UCX/EDR). To let the reproduction re-derive
// those crossovers per *mechanism* rather than per cost profile, the transport
// behind the Fabric facade is a backend implementing this interface:
//
//   * "mailbox" -- the original transport: unbounded delivery into each
//     (rank, vci) lane, per-message injection cost, maturation latency.
//   * "rdma"    -- RDMA-style semantics modeled on MPICH2-over-InfiniBand and
//     pMR's connection-less endpoints: eager packets are RDMA-written into
//     pre-registered per-(rank, vci) rings of bounded depth (senders consume
//     credits, the receiving engine returns them after copy-out), large
//     transfers move zero-copy via registered-buffer handoff, and buffer
//     registration goes through an LRU cache over simulated pin/unpin costs.
//
// Both backends deliver into the same receive lanes (net/lane.hpp): one ring
// of one-line cells per (rank, vci), where a small eager message rides inline
// as a record and every other packet as a pointer. The lane table, poll, the
// counts and the doorbell live here, once; a backend owns only how a packet
// gets to its lane (injection cost, maturation stamp, rdma's credits) and the
// RDMA-semantics extensions.
//
// The interface is the contract the Engine's progress/pt2pt/RMA paths program
// against: inject / charge_injection / poll, the doorbell ready / ready_any
// that progress reads, and the exact counts pending / pending_any and
// per-lane traffic counters that the watchdog, pvars and tests read.
// RDMA-semantics extensions (registration, one-sided write, credit return)
// default to "unsupported" so a backend only implements what its mechanism
// provides; callers must gate zero-copy paths on rdma_capable().
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/lane.hpp"
#include "net/profile.hpp"
#include "obs/counters.hpp"

namespace lwmpi::rt {
struct Packet;
}

namespace lwmpi::net {

// Backend-side statistics surfaced through the pvar registry (obs/pvar.cpp).
// Backends without a given mechanism report 0 (the Netmod default).
enum class NetStat : std::uint8_t {
  RegCacheHit,       // registration resolved from the cache
  RegCacheMiss,      // registration paid the pin cost
  RegCacheEviction,  // LRU entry unpinned to make room
  RingOccupancyHwm,  // per-(rank, vci) eager-ring occupancy high-water mark
  RingStall,         // injections that waited for a ring credit
  RingStallNs,       // total ns injections busy-waited for a credit (vs sender)
  RingCredits,       // current free credits on a (rank, vci) ring (-1 vci: min)
  RegCacheSize,      // current LRU registration-cache entry count
  ZeroCopyWrite,     // rdma_write transfers issued by this rank
  ZeroCopyBytes,     // payload bytes moved by those rdma_write transfers
};

class Netmod {
 public:
  Netmod(int nranks, int ranks_per_node, Profile profile, int lanes_per_rank)
      : nranks_(nranks),
        ranks_per_node_(ranks_per_node < 1 ? 1 : ranks_per_node),
        lanes_(lanes_per_rank < 1 ? 1 : lanes_per_rank),
        profile_(std::move(profile)),
        rx_(std::make_unique<Lane[]>(rows() * static_cast<std::size_t>(lanes_))),
        live_(std::make_unique<LiveMask[]>(rows())),
        drops_(rows() * static_cast<std::size_t>(lanes_)) {}
  virtual ~Netmod() = default;
  Netmod(const Netmod&) = delete;
  Netmod& operator=(const Netmod&) = delete;

  virtual std::string_view name() const noexcept = 0;

  // --- mandatory transport operations ---------------------------------------
  // Send `p` to rank `dst` on the lane named by p->hdr.vci; takes ownership.
  // Pays the injection cost, stamps the maturation time and delivers it.
  virtual void inject(Rank src, Rank dst, rt::Packet* p) noexcept = 0;
  // Pay the per-message injection cost without transmitting anything (the ch4
  // direct/simulated-RDMA RMA path: the NIC consumes a descriptor slot even
  // though no software-visible packet flows).
  virtual void charge_injection(Rank src, Rank dst) noexcept = 0;

  // --- the receive lanes, shared by every backend ------------------------------
  // `vci` is in [0, lanes_per_rank()); the Fabric facade clamps it.
  // Consume one matured packet from `self`'s lane `vci`, or nullptr. The
  // caller must serialize consumers per lane (the Engine's VCI lock does).
  rt::Packet* poll(Rank self, int vci) noexcept { return lane_at(self, vci).poll(); }
  // The doorbell progress reads: "a packet may be waiting" on one lane, or on
  // any lane of `self`. ready_any reads only the lanes that have ever carried
  // a message, so a rank that never receives pays one load.
  bool ready(Rank self, int vci) const noexcept { return lane_at(self, vci).ready(); }
  bool ready_any(Rank self) const noexcept {
    std::uint64_t m =
        live_[static_cast<std::size_t>(self)].bits.load(std::memory_order_acquire);
    while (m != 0) {
      const int b = std::countr_zero(m);
      m &= m - 1;
      for (int v = b; v < lanes_; v += 64) {
        if (lane_at(self, v).ready()) return true;
      }
    }
    return false;
  }
  // Exact injected-minus-delivered counts, for the watchdog and the tests.
  std::uint64_t pending(Rank self, int vci) const noexcept {
    return lane_at(self, vci).pending();
  }
  std::uint64_t pending_any(Rank self) const noexcept {
    std::uint64_t n = 0;
    for (int v = 0; v < lanes_; ++v) n += lane_at(self, v).pending();
    return n;
  }
  // Per-lane traffic counters (observability / pvar export). The byte counts
  // feed the fabric_*_bytes pvars and the profiler invariant
  // sum(matrix bytes) == fabric_injected_bytes.
  std::uint64_t injected(Rank r, int vci) const noexcept { return lane_at(r, vci).injected(); }
  std::uint64_t delivered(Rank r, int vci) const noexcept { return lane_at(r, vci).delivered(); }
  std::uint64_t injected_bytes(Rank r, int vci) const noexcept {
    return lane_at(r, vci).injected_bytes();
  }
  std::uint64_t delivered_bytes(Rank r, int vci) const noexcept {
    return lane_at(r, vci).delivered_bytes();
  }
  // Pushes that found the lane's ring full (or overflow still draining).
  std::uint64_t lane_overflows(Rank r, int vci) const noexcept {
    return lane_at(r, vci).overflows();
  }
  // Packets dropped at the injection boundary (blackhole methodology), summed
  // over the per-(source rank, lane) counters.
  std::uint64_t dropped() const noexcept {
    std::uint64_t n = 0;
    for (const DropCount& d : drops_) n += d.n.load(std::memory_order_relaxed);
    return n;
  }

  // --- RDMA-semantics extensions (default: not provided) ---------------------
  // True when the backend supports registered-buffer handoff: register_memory
  // returns usable rkeys and rdma_write moves data without a staging copy.
  virtual bool rdma_capable() const noexcept { return false; }
  // Register [base, base+bytes) for remote access on behalf of `self`; pays
  // the (cached) pin cost and returns an rkey token, or 0 if unsupported. The
  // token is valid for the world's lifetime (windows/buffers are never
  // unpinned mid-transfer in this simulation; eviction only re-pins later).
  virtual std::uint64_t register_memory(Rank self, const void* base, std::size_t bytes) {
    (void)self;
    (void)base;
    (void)bytes;
    return 0;
  }
  // One-sided write of `bytes` from `from` into the remote region named by
  // `rkey` (as returned by the peer's register_memory). Pays the injection
  // cost; the data movement itself is the copy. Completion must still be
  // signaled by the caller (an RdvDone control packet).
  virtual void rdma_write(Rank src, Rank dst, const void* from, std::uint64_t rkey,
                          std::size_t bytes) noexcept {
    (void)src;
    (void)dst;
    (void)from;
    (void)rkey;
    (void)bytes;
  }
  // Return one eager-ring credit for `self`'s lane `vci` after the consuming
  // engine has copied a polled packet out of the ring (core/progress.cpp).
  virtual void credit_return(Rank self, int vci) noexcept {
    (void)self;
    (void)vci;
  }
  // Backend statistic, or 0 when the mechanism does not exist. `vci` is
  // meaningful only for lane-scoped stats (RingOccupancyHwm); -1 sums lanes.
  virtual std::uint64_t stat(NetStat s, Rank self, int vci) const noexcept {
    (void)s;
    (void)self;
    (void)vci;
    return 0;
  }

  // --- shared topology --------------------------------------------------------
  int nranks() const noexcept { return nranks_; }
  int ranks_per_node() const noexcept { return ranks_per_node_; }
  int lanes_per_rank() const noexcept { return lanes_; }
  int node_of(Rank r) const noexcept { return static_cast<int>(r) / ranks_per_node_; }
  bool same_node(Rank a, Rank b) const noexcept { return node_of(a) == node_of(b); }
  const Profile& profile() const noexcept { return profile_; }

 protected:
  // Hand a packet whose maturation time is stamped to `dst`'s lane `vci`,
  // which the caller has bounded to [0, lanes_). The push that installs a
  // lane's cells marks the lane live for ready_any.
  void deliver(Rank dst, int vci, rt::Packet* p) noexcept {
    if (lane_at(dst, vci).push(p)) [[unlikely]] {
      live_[static_cast<std::size_t>(dst)].bits.fetch_or(std::uint64_t{1} << (vci % 64),
                                                          std::memory_order_release);
    }
  }

  // Count one blackhole drop by `src` on `lane`, which the caller has bounded
  // to [0, lanes_); an out-of-range `src` counts against rank 0. Each (source
  // rank, lane) counter has one writer at a time: the sender holding that
  // lane's channel lock, or owning an all-opts channel.
  void count_drop(Rank src, int lane) noexcept {
    const std::size_t r = src >= 0 && src < nranks_ ? static_cast<std::size_t>(src) : 0;
    obs::add_single_writer(
        drops_[r * static_cast<std::size_t>(lanes_) + static_cast<std::size_t>(lane)].n, 1);
  }

  const int nranks_;
  const int ranks_per_node_;
  const int lanes_;
  const Profile profile_;

 private:
  // Cache-line padded so two lanes' senders never false-share.
  struct alignas(64) DropCount {
    std::atomic<std::uint64_t> n{0};
  };
  // Lanes of one rank that have ever carried a message: bit v % 64 for lane
  // v. Set once per lane, read by every ready_any.
  struct alignas(64) LiveMask {
    std::atomic<std::uint64_t> bits{0};
  };

  std::size_t rows() const noexcept {
    return static_cast<std::size_t>(nranks_ < 1 ? 1 : nranks_);
  }
  Lane& lane_at(Rank r, int vci) const noexcept {
    return rx_[static_cast<std::size_t>(r) * static_cast<std::size_t>(lanes_) +
               static_cast<std::size_t>(vci)];
  }

  std::unique_ptr<Lane[]> rx_;         // nranks x lanes, row-major
  std::unique_ptr<LiveMask[]> live_;   // one per rank
  std::vector<DropCount> drops_;       // nranks x lanes, row-major
};

// Backend factory. Known names: "mailbox", "rdma". Unknown names are a hard
// configuration error (std::invalid_argument) -- a silently substituted
// transport would invalidate every per-backend measurement downstream.
std::unique_ptr<Netmod> make_netmod(std::string_view name, int nranks, int ranks_per_node,
                                    Profile profile, int lanes_per_rank);

}  // namespace lwmpi::net
