// "mailbox" netmod: the original simulated transport, unchanged in behavior.
//
// One unbounded MPSC mailbox per (rank, vci) lane. Injection busy-waits the
// profile's per-message cost (NIC occupancy) and stamps a maturation time
// (wire latency + serialization); the receiving rank's progress engine only
// sees a packet once it has matured. This backend is the baseline every
// committed BENCH_* artifact was measured against, so its semantics must not
// drift: the rdma backend exists precisely so new mechanisms do not have to
// be retrofitted here.
#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "net/netmod.hpp"
#include "runtime/backoff.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::net {

namespace {

class MailboxNetmod final : public Netmod {
 public:
  MailboxNetmod(int nranks, int ranks_per_node, Profile profile, int lanes_per_rank)
      : Netmod(nranks, ranks_per_node, std::move(profile), lanes_per_rank) {
    boxes_.reserve(static_cast<std::size_t>(nranks_) * static_cast<std::size_t>(lanes_));
    for (int i = 0; i < nranks_ * lanes_; ++i) boxes_.push_back(std::make_unique<Mailbox>());
    meters_ = std::make_unique<RankMeter[]>(static_cast<std::size_t>(nranks_));
  }

  ~MailboxNetmod() override {
    for (auto& box : boxes_) {
      for (rt::Packet* p : box->staged) rt::PacketPool::free(p);
      while (rt::Packet* p = box->queue.pop()) rt::PacketPool::free(p);
    }
  }

  std::string_view name() const noexcept override { return "mailbox"; }

  void inject(Rank src, Rank dst, rt::Packet* p) noexcept override {
    const bool local = same_node(src, dst);
    const std::uint64_t inject_cost =
        local ? profile_.shm_inject_cost_ns : profile_.inject_cost_ns;
    rt::spin_for_ns(inject_cost);

    const int lane = p->hdr.vci < lanes_ ? p->hdr.vci : 0;
    if (profile_.blackhole) {
      count_drop(src, lane);
      rt::PacketPool::free(p);
      return;
    }

    const std::uint64_t latency = local ? profile_.shm_latency_ns : profile_.latency_ns;
    const std::uint64_t wire = profile_.serialization_ns(p->payload.size());
    p->deliver_at_ns = (latency || wire) ? rt::now_ns() + latency + wire : 0;

    Mailbox& box = *boxes_[index(dst, lane)];
    box.injected.fetch_add(1, std::memory_order_release);
    box.injected_bytes.fetch_add(p->payload.size(), std::memory_order_relaxed);
    meters_[static_cast<std::size_t>(dst)].injected.fetch_add(1, std::memory_order_release);
    box.queue.push(p);
  }

  void charge_injection(Rank src, Rank dst) noexcept override {
    const bool local = same_node(src, dst);
    rt::spin_for_ns(local ? profile_.shm_inject_cost_ns : profile_.inject_cost_ns);
  }

  rt::Packet* poll(Rank self, int vci) noexcept override {
    Mailbox& box = *boxes_[index(self, vci)];
    // Drain newly arrived packets into the staging deque so maturation does
    // not reorder them relative to each other.
    while (rt::Packet* p = box.queue.pop()) box.staged.push_back(p);
    if (box.staged.empty()) return nullptr;
    rt::Packet* front = box.staged.front();
    if (front->deliver_at_ns != 0 && front->deliver_at_ns > rt::now_ns()) return nullptr;
    box.staged.pop_front();
    box.delivered.fetch_add(1, std::memory_order_relaxed);
    box.delivered_bytes.fetch_add(front->payload.size(), std::memory_order_relaxed);
    meters_[static_cast<std::size_t>(self)].delivered.fetch_add(1,
                                                               std::memory_order_relaxed);
    return front;
  }

  std::uint64_t pending(Rank self, int vci) const noexcept override {
    const Mailbox& box = *boxes_[index(self, vci)];
    return box.injected.load(std::memory_order_acquire) -
           box.delivered.load(std::memory_order_relaxed);
  }

  std::uint64_t pending_any(Rank self) const noexcept override {
    const RankMeter& m = meters_[static_cast<std::size_t>(self)];
    return m.injected.load(std::memory_order_acquire) -
           m.delivered.load(std::memory_order_relaxed);
  }

  bool idle(Rank self) noexcept override {
    for (int v = 0; v < lanes_; ++v) {
      Mailbox& box = *boxes_[index(self, v)];
      if (!box.staged.empty() || !box.queue.empty()) return false;
    }
    return true;
  }

  std::uint64_t injected(Rank r, int vci) const noexcept override {
    return boxes_[index(r, vci)]->injected.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered(Rank r, int vci) const noexcept override {
    return boxes_[index(r, vci)]->delivered.load(std::memory_order_relaxed);
  }
  std::uint64_t injected_bytes(Rank r, int vci) const noexcept override {
    return boxes_[index(r, vci)]->injected_bytes.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_bytes(Rank r, int vci) const noexcept override {
    return boxes_[index(r, vci)]->delivered_bytes.load(std::memory_order_relaxed);
  }

 private:
  struct Mailbox {
    rt::MpscQueue<rt::Packet> queue;
    // Consumer-owned staging area for packets popped but not yet matured.
    std::deque<rt::Packet*> staged;
    std::atomic<std::uint64_t> injected{0};  // packets sent *to* this lane
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> injected_bytes{0};  // payload bytes, same scoping
    std::atomic<std::uint64_t> delivered_bytes{0};
  };

  // Whole-rank counters backing pending_any(). Cache-line separated so two
  // ranks' meters never false-share.
  struct RankMeter {
    alignas(64) std::atomic<std::uint64_t> injected{0};
    std::atomic<std::uint64_t> delivered{0};
  };

  std::size_t index(Rank r, int vci) const noexcept {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(lanes_) +
           static_cast<std::size_t>(vci);
  }

  std::vector<std::unique_ptr<Mailbox>> boxes_;  // nranks x lanes, row-major
  std::unique_ptr<RankMeter[]> meters_;          // one per rank
};

}  // namespace

std::unique_ptr<Netmod> make_mailbox_netmod(int nranks, int ranks_per_node, Profile profile,
                                            int lanes_per_rank) {
  return std::make_unique<MailboxNetmod>(nranks, ranks_per_node, std::move(profile),
                                         lanes_per_rank);
}

}  // namespace lwmpi::net
