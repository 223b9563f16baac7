// "rdma" netmod: RDMA-style injection semantics, modeled on MPICH2 over
// InfiniBand (Liu et al.) and pMR's connection-less endpoint design.
//
// Mechanisms, and how they differ from the mailbox transport:
//
//   * Connection-less endpoints: the only per-destination state is the
//     destination's receive ring -- there is no per-peer connection object,
//     queue pair, or handshake. Any rank may write to any other at any time.
//   * Eager over RDMA write: every packet is "written" into a pre-registered
//     per-(rank, vci) receive ring of bounded depth. Senders consume a ring
//     credit per packet and busy-wait (with backoff) when the ring is full;
//     the receiving engine returns the credit once it has copied the packet
//     out (Netmod::credit_return, called from core/progress.cpp). Ring
//     occupancy and credit stalls are exported as pvars. The credit counter is
//     the model of that ring; the packets themselves travel through the
//     receive lanes both backends share (net/lane.hpp), so one credit line
//     still moves per message beside the lane's cell.
//   * Rendezvous zero-copy: register_memory pins buffers through an LRU
//     registration cache (hit/miss/eviction pvars; misses busy-wait the
//     profile's pin cost per page, evictions the unpin cost) and returns an
//     rkey; rdma_write then moves the payload straight into the remote buffer
//     with a single copy and no intermediate packet staging.
//
// The ring depth, pin cost, and cache capacity come from net::Profile
// (rdma_ring_depth, pin_cost_ns_per_page, reg_cache_capacity), so cost
// profiles keep owning the numbers while this backend owns the mechanism.
#include <atomic>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/netmod.hpp"
#include "runtime/backoff.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::net {

namespace {

constexpr std::uint64_t kPageShift = 12;  // 4 KiB pages, the common host size

class RdmaNetmod final : public Netmod {
 public:
  RdmaNetmod(int nranks, int ranks_per_node, Profile profile, int lanes_per_rank)
      : Netmod(nranks, ranks_per_node, std::move(profile), lanes_per_rank),
        ring_depth_(profile_.rdma_ring_depth < 1 ? 1 : profile_.rdma_ring_depth),
        rings_(std::make_unique<Ring[]>(static_cast<std::size_t>(nranks_) *
                                        static_cast<std::size_t>(lanes_))),
        ranks_(std::make_unique<RankState[]>(static_cast<std::size_t>(nranks_))) {
    for (int i = 0; i < nranks_ * lanes_; ++i) {
      rings_[static_cast<std::size_t>(i)].credits.store(ring_depth_, std::memory_order_relaxed);
    }
  }

  std::string_view name() const noexcept override { return "rdma"; }

  // --- RDMA extensions --------------------------------------------------------

  bool rdma_capable() const noexcept override { return true; }

  std::uint64_t register_memory(Rank self, const void* base, std::size_t bytes) override {
    RankState& rs = ranks_[static_cast<std::size_t>(self)];
    const std::uint64_t addr = reinterpret_cast<std::uint64_t>(base);
    const std::uint64_t first_page = addr >> kPageShift;
    const std::uint64_t last_page = (addr + (bytes == 0 ? 0 : bytes - 1)) >> kPageShift;
    const std::uint64_t npages = last_page - first_page + 1;

    std::uint64_t pin_pages = 0;
    {
      std::lock_guard<std::mutex> lk(rs.cache.mu);
      auto it = rs.cache.by_page.find(first_page);
      if (it != rs.cache.by_page.end() && it->second->last_page >= last_page) {
        rs.reg_hits.fetch_add(1, std::memory_order_relaxed);
        // LRU touch.
        rs.cache.lru.splice(rs.cache.lru.begin(), rs.cache.lru, it->second);
      } else {
        rs.reg_misses.fetch_add(1, std::memory_order_relaxed);
        pin_pages = npages;
        if (it != rs.cache.by_page.end()) {
          // Same base, longer range: grow the registration in place.
          it->second->last_page = last_page;
          rs.cache.lru.splice(rs.cache.lru.begin(), rs.cache.lru, it->second);
        } else {
          rs.cache.lru.push_front(RegEntry{first_page, last_page});
          rs.cache.by_page[first_page] = rs.cache.lru.begin();
          const std::size_t cap =
              profile_.reg_cache_capacity < 1 ? 1
                                              : static_cast<std::size_t>(
                                                    profile_.reg_cache_capacity);
          while (rs.cache.lru.size() > cap) {
            const RegEntry victim = rs.cache.lru.back();
            rs.cache.by_page.erase(victim.first_page);
            rs.cache.lru.pop_back();
            rs.reg_evictions.fetch_add(1, std::memory_order_relaxed);
            // Unpinning walks the same page list as pinning but skips the
            // kernel fault path; model it at half the pin cost.
            rt::spin_for_ns((victim.last_page - victim.first_page + 1) *
                            profile_.pin_cost_ns_per_page / 2);
          }
        }
      }
    }
    if (pin_pages != 0) rt::spin_for_ns(pin_pages * profile_.pin_cost_ns_per_page);
    return addr;
  }

  void rdma_write(Rank src, Rank dst, const void* from, std::uint64_t rkey,
                  std::size_t bytes) noexcept override {
    rt::spin_for_ns(inject_cost(src, dst));
    RankState& rs = ranks_[static_cast<std::size_t>(src)];
    rs.zcopy_writes.fetch_add(1, std::memory_order_relaxed);
    rs.zcopy_bytes.fetch_add(bytes, std::memory_order_relaxed);
    // The one-sided data movement: one copy, straight into the registered
    // remote buffer. No packet, no staging.
    std::memcpy(reinterpret_cast<void*>(rkey), from, bytes);
  }

  void credit_return(Rank self, int vci) noexcept override {
    const int lane = vci >= 0 && vci < lanes_ ? vci : 0;
    rings_[index(self, lane)].credits.fetch_add(1, std::memory_order_release);
  }

  std::uint64_t stat(NetStat s, Rank self, int vci) const noexcept override {
    const RankState& rs = ranks_[static_cast<std::size_t>(self)];
    switch (s) {
      case NetStat::RegCacheHit: return rs.reg_hits.load(std::memory_order_relaxed);
      case NetStat::RegCacheMiss: return rs.reg_misses.load(std::memory_order_relaxed);
      case NetStat::RegCacheEviction:
        return rs.reg_evictions.load(std::memory_order_relaxed);
      case NetStat::RingStall: return rs.ring_stalls.load(std::memory_order_relaxed);
      case NetStat::RingStallNs:
        return rs.stall_ns_total.load(std::memory_order_relaxed);
      case NetStat::RingCredits: {
        // Free credits on one lane, or the scarcest lane when vci is -1 --
        // a hang report wants "how close to credit exhaustion is this rank".
        if (vci >= 0 && vci < lanes_) {
          const int c = rings_[index(self, vci)].credits.load(std::memory_order_relaxed);
          return c < 0 ? 0 : static_cast<std::uint64_t>(c);
        }
        int m = ring_depth_;
        for (int v = 0; v < lanes_; ++v) {
          const int c = rings_[index(self, v)].credits.load(std::memory_order_relaxed);
          if (c < m) m = c;
        }
        return m < 0 ? 0 : static_cast<std::uint64_t>(m);
      }
      case NetStat::RegCacheSize: {
        std::lock_guard<std::mutex> lk(rs.cache.mu);
        return rs.cache.lru.size();
      }
      case NetStat::ZeroCopyWrite: return rs.zcopy_writes.load(std::memory_order_relaxed);
      case NetStat::ZeroCopyBytes: return rs.zcopy_bytes.load(std::memory_order_relaxed);
      case NetStat::RingOccupancyHwm: {
        if (vci >= 0 && vci < lanes_) {
          return rings_[index(self, vci)].occupancy_hwm.load(std::memory_order_relaxed);
        }
        std::uint64_t m = 0;
        for (int v = 0; v < lanes_; ++v) {
          const std::uint64_t h =
              rings_[index(self, v)].occupancy_hwm.load(std::memory_order_relaxed);
          if (h > m) m = h;
        }
        return m;
      }
    }
    return 0;
  }

 private:
  Admission admit(Rank src, Rank dst, int lane, std::uint64_t wire_bytes) noexcept override {
    rt::spin_for_ns(inject_cost(src, dst));

    if (profile_.blackhole) {
      count_drop(src, lane);
      return {.dropped = true};
    }

    const bool local = same_node(src, dst);
    const std::uint64_t latency = local ? profile_.shm_latency_ns : profile_.latency_ns;
    const std::uint64_t wire = profile_.serialization_ns(wire_bytes);
    Admission a{.deliver_at = (latency || wire) ? rt::now_ns() + latency + wire : 0};
    const std::uint64_t stall = acquire_credit(rings_[index(dst, lane)], src);
    // The credit-stall duration travels in the causal header so the
    // receiver's wait classifier can attribute the delay without reaching
    // back into the backend (saturating: a >4s stall is a hang, not a
    // classification case). A stalled message keeps, or becomes, a Packet:
    // a lane record has no stall field.
    a.stall_ns = stall > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(stall);
    return a;
  }

  // Credit state of one (rank, vci) eager ring: `credits` is the free-slot
  // count senders draw from. The packets travel through the shared lane.
  struct alignas(64) Ring {
    std::atomic<int> credits{0};
    std::atomic<std::uint64_t> occupancy_hwm{0};
  };

  struct RegEntry {
    std::uint64_t first_page = 0;
    std::uint64_t last_page = 0;
  };

  // LRU registration cache, keyed by the region's first page. One per rank
  // (registrations belong to the process that owns the memory), guarded by a
  // mutex because a rank's MPI calls may come from several user threads.
  struct RegCache {
    mutable std::mutex mu;  // mutable: const stat() readers take a size snapshot
    std::list<RegEntry> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::list<RegEntry>::iterator> by_page;
  };

  // Per-rank endpoint state, cache-line separated across ranks.
  struct alignas(64) RankState {
    std::atomic<std::uint64_t> reg_hits{0};
    std::atomic<std::uint64_t> reg_misses{0};
    std::atomic<std::uint64_t> reg_evictions{0};
    std::atomic<std::uint64_t> ring_stalls{0};  // counted against the sender
    std::atomic<std::uint64_t> stall_ns_total{0};  // total credit-stall ns (vs sender)
    std::atomic<std::uint64_t> zcopy_writes{0};
    std::atomic<std::uint64_t> zcopy_bytes{0};
    RegCache cache;
  };

  std::size_t index(Rank r, int vci) const noexcept {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(lanes_) +
           static_cast<std::size_t>(vci);
  }

  // Draw one credit, busy-waiting (with backoff) while the ring is full.
  // Returns the nanoseconds spent stalled (0 on the fast path).
  std::uint64_t acquire_credit(Ring& ring, Rank src) noexcept {
    rt::Backoff backoff;
    std::uint64_t stall_start = 0;
    for (;;) {
      int c = ring.credits.load(std::memory_order_acquire);
      while (c > 0) {
        if (ring.credits.compare_exchange_weak(c, c - 1, std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
          const std::uint64_t occ =
              static_cast<std::uint64_t>(ring_depth_ - (c - 1));
          std::uint64_t hwm = ring.occupancy_hwm.load(std::memory_order_relaxed);
          while (occ > hwm && !ring.occupancy_hwm.compare_exchange_weak(
                                  hwm, occ, std::memory_order_relaxed)) {
          }
          if (stall_start == 0) return 0;
          const std::uint64_t stall = rt::now_ns() - stall_start;
          ranks_[static_cast<std::size_t>(src)].stall_ns_total.fetch_add(
              stall, std::memory_order_relaxed);
          return stall;
        }
      }
      if (stall_start == 0) {
        stall_start = rt::now_ns();
        ranks_[static_cast<std::size_t>(src)].ring_stalls.fetch_add(
            1, std::memory_order_relaxed);
      }
      backoff.pause();
    }
  }

  const int ring_depth_;
  std::unique_ptr<Ring[]> rings_;       // nranks x lanes, row-major
  std::unique_ptr<RankState[]> ranks_;  // one per rank
};

}  // namespace

std::unique_ptr<Netmod> make_rdma_netmod(int nranks, int ranks_per_node, Profile profile,
                                         int lanes_per_rank) {
  return std::make_unique<RdmaNetmod>(nranks, ranks_per_node, std::move(profile),
                                      lanes_per_rank);
}

}  // namespace lwmpi::net
