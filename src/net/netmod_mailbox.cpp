// "mailbox" netmod: the original simulated transport, unchanged in behavior.
//
// Unbounded delivery into each (rank, vci) receive lane. Injection busy-waits
// the profile's per-message cost (NIC occupancy) and stamps a maturation time
// (wire latency + serialization); the receiving rank's progress engine only
// sees a packet once it has matured. This backend is the baseline every
// committed BENCH_* artifact was measured against, so its semantics must not
// drift: the rdma backend exists precisely so new mechanisms do not have to
// be retrofitted here.
#include <memory>

#include "net/netmod.hpp"
#include "runtime/backoff.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::net {

namespace {

class MailboxNetmod final : public Netmod {
 public:
  using Netmod::Netmod;

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
    deliver(dst, lane, p);
  }

  void charge_injection(Rank src, Rank dst) noexcept override {
    const bool local = same_node(src, dst);
    rt::spin_for_ns(local ? profile_.shm_inject_cost_ns : profile_.inject_cost_ns);
  }
};

}  // namespace

std::unique_ptr<Netmod> make_mailbox_netmod(int nranks, int ranks_per_node, Profile profile,
                                            int lanes_per_rank) {
  return std::make_unique<MailboxNetmod>(nranks, ranks_per_node, std::move(profile),
                                         lanes_per_rank);
}

}  // namespace lwmpi::net
