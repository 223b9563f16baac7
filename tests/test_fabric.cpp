// Network simulator (fabric + profiles) tests.
#include <gtest/gtest.h>

#include <thread>

#include "net/fabric.hpp"
#include "net/profile.hpp"
#include "runtime/backoff.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::net {
namespace {

rt::Packet* make_packet(Tag tag) {
  rt::Packet* p = rt::PacketPool::alloc();
  p->hdr.tag = tag;
  return p;
}

TEST(Profile, SerializationTime) {
  Profile p;
  p.bytes_per_us = 1000;  // 1 GB/s
  EXPECT_EQ(p.serialization_ns(0), 0u);
  EXPECT_EQ(p.serialization_ns(1000), 1000u);
  EXPECT_EQ(p.serialization_ns(500), 500u);
  Profile inf;
  EXPECT_EQ(inf.serialization_ns(1 << 20), 0u);  // infinite bandwidth
}

TEST(Profile, SerializationTimeLargePayloadsDoNotOverflow) {
  Profile p;
  p.bytes_per_us = 12'000;  // the psm2/ucx profile bandwidth

  // The naive `bytes * 1000 / bytes_per_us` wraps once bytes exceeds
  // 2^64 / 1000 (~18.4 PB): with this bandwidth the wrapped result for 2^54
  // bytes came out ~5 orders of magnitude too small. Check against the exact
  // value computed without the intermediate product.
  const std::uint64_t big = std::uint64_t{1} << 54;  // 16 PiB: bytes*1000 wraps
  const std::uint64_t whole_us = big / p.bytes_per_us;
  const std::uint64_t rem = big % p.bytes_per_us;
  const std::uint64_t exact = whole_us * 1000 + rem * 1000 / p.bytes_per_us;
  EXPECT_EQ(p.serialization_ns(big), exact);
  EXPECT_GT(p.serialization_ns(big), p.serialization_ns(big / 2));

  // Sub-microsecond remainders keep nanosecond resolution.
  p.bytes_per_us = 1000;
  EXPECT_EQ(p.serialization_ns(1), 1u);
  EXPECT_EQ(p.serialization_ns(999), 999u);
  EXPECT_EQ(p.serialization_ns(1001), 1001u);
  // Boundary: exactly one whole microsecond per division step.
  p.bytes_per_us = 3;
  EXPECT_EQ(p.serialization_ns(3), 1000u);
  EXPECT_EQ(p.serialization_ns(4), 1333u);  // 1000 + floor(1*1000/3)
}

TEST(Profile, NamedProfilesAreSane) {
  EXPECT_GT(psm2().inject_cost_ns, 0u);
  EXPECT_GT(ucx_edr().inject_cost_ns, psm2().inject_cost_ns);
  EXPECT_TRUE(infinite().blackhole);
  EXPECT_EQ(infinite().inject_cost_ns, 0u);
  EXPECT_GT(bgq().latency_ns, psm2().latency_ns);
  // shm path must be cheaper than the network path on every real profile.
  for (const Profile& p : {psm2(), ucx_edr(), bgq()}) {
    EXPECT_LT(p.shm_inject_cost_ns, p.inject_cost_ns) << p.name;
    EXPECT_LT(p.shm_latency_ns, p.latency_ns) << p.name;
  }
}

TEST(Fabric, NodeLocality) {
  Fabric f(8, 4, loopback());
  EXPECT_EQ(f.node_of(0), 0);
  EXPECT_EQ(f.node_of(3), 0);
  EXPECT_EQ(f.node_of(4), 1);
  EXPECT_TRUE(f.same_node(0, 3));
  EXPECT_FALSE(f.same_node(3, 4));
  EXPECT_EQ(f.ranks_per_node(), 4);
}

TEST(Fabric, RanksPerNodeClampedToOne) {
  Fabric f(4, 0, loopback());
  EXPECT_EQ(f.ranks_per_node(), 1);
  EXPECT_FALSE(f.same_node(0, 1));
}

TEST(Fabric, DeliversInOrder) {
  Fabric f(2, 2, loopback());
  for (Tag t = 0; t < 5; ++t) f.inject(0, 1, make_packet(t));
  for (Tag t = 0; t < 5; ++t) {
    rt::Packet* p = f.poll(1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->hdr.tag, t);
    rt::PacketPool::free(p);
  }
  EXPECT_EQ(f.poll(1), nullptr);
  EXPECT_TRUE(f.idle(1));
}

TEST(Fabric, CountsInjectedAndDelivered) {
  Fabric f(2, 2, loopback());
  f.inject(0, 1, make_packet(1));
  f.inject(0, 1, make_packet(2));
  EXPECT_EQ(f.injected(1), 2u);
  EXPECT_EQ(f.delivered(1), 0u);
  rt::PacketPool::free(f.poll(1));
  EXPECT_EQ(f.delivered(1), 1u);
  rt::PacketPool::free(f.poll(1));
  EXPECT_EQ(f.delivered(1), 2u);
}

TEST(Fabric, BlackholeDropsAtInjection) {
  Fabric f(2, 2, infinite());
  f.inject(0, 1, make_packet(1));
  f.inject(0, 1, make_packet(2));
  EXPECT_EQ(f.dropped(), 2u);
  EXPECT_EQ(f.injected(1), 0u);
  EXPECT_EQ(f.poll(1), nullptr);
}

TEST(Fabric, LatencyMaturation) {
  Profile p;
  p.latency_ns = 3'000'000;  // 3 ms inter-node
  p.shm_latency_ns = 0;
  Fabric f(4, 2, p);
  f.inject(0, 2, make_packet(7));  // cross-node: latency applies
  // Immediately after injection the packet has not matured.
  EXPECT_EQ(f.poll(2), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  rt::Packet* got = f.poll(2);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->hdr.tag, 7);
  rt::PacketPool::free(got);
}

TEST(Fabric, IntraNodeSkipsNetworkLatency) {
  Profile p;
  p.latency_ns = 50'000'000;  // would stall for 50 ms if misclassified
  p.shm_latency_ns = 0;
  Fabric f(4, 2, p);
  f.inject(0, 1, make_packet(9));  // same node
  rt::Packet* got = f.poll(1);
  ASSERT_NE(got, nullptr);
  rt::PacketPool::free(got);
}

TEST(Fabric, InjectionCostIsPaid) {
  Profile p;
  p.inject_cost_ns = 2'000'000;  // 2 ms, measurable
  Fabric f(2, 1, p);
  const auto t0 = rt::now_ns();
  f.inject(0, 1, make_packet(1));
  const auto dt = rt::now_ns() - t0;
  EXPECT_GE(dt, 2'000'000u);
  rt::PacketPool::free(f.poll(1));
}

TEST(Fabric, ChargeInjectionWithoutPacket) {
  Profile p;
  p.inject_cost_ns = 2'000'000;
  Fabric f(2, 1, p);
  const auto t0 = rt::now_ns();
  f.charge_injection(0, 1);
  EXPECT_GE(rt::now_ns() - t0, 2'000'000u);
  EXPECT_EQ(f.poll(1), nullptr);  // nothing was transmitted
}

TEST(Fabric, DefaultBackendIsMailbox) {
  Fabric f(2, 2, loopback());
  EXPECT_EQ(f.backend_name(), "mailbox");
}

// Regression test: an out-of-range vci used to index straight into the lane
// table on the poll/counter side (inject alone had the lane-0 fallback). The
// facade now clamps every lane argument to lane 0.
TEST(Fabric, OutOfRangeVciFallsBackToLaneZero) {
  Fabric f(2, 2, loopback(), 2);
  rt::Packet* p = make_packet(5);
  p->hdr.vci = 7;  // out of range: inject falls back to lane 0
  f.inject(0, 1, p);
  EXPECT_EQ(f.pending(1, 7), f.pending(1, 0));
  EXPECT_EQ(f.pending(1, -3), f.pending(1, 0));
  // The doorbell follows the same policy.
  EXPECT_TRUE(f.ready(1, 0));
  EXPECT_TRUE(f.ready(1, 7));
  EXPECT_TRUE(f.ready(1, -3));
  EXPECT_FALSE(f.ready(1, 1));
  EXPECT_EQ(f.injected(1, 99), f.injected(1, 0));
  EXPECT_EQ(f.injected(1, 0), 1u);
  // poll with an out-of-range lane reads lane 0 instead of walking off the
  // lane table.
  rt::Packet* got = f.poll(1, 42);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->hdr.tag, 5);
  rt::PacketPool::free(got);
  EXPECT_EQ(f.delivered(1, -1), 1u);
  EXPECT_EQ(f.poll(1, 1), nullptr);  // in-range lanes unaffected
  EXPECT_FALSE(f.ready(1, 7));
  EXPECT_FALSE(f.ready(1, -3));
  EXPECT_TRUE(f.idle(1));
}

TEST(Fabric, OutOfRangeVciGuardsApplyToRdmaBackendToo) {
  Fabric f(2, 2, loopback(), 2, "rdma");
  rt::Packet* p = make_packet(3);
  p->hdr.vci = 200;
  f.inject(0, 1, p);
  EXPECT_EQ(f.pending(1, 31), 1u);
  EXPECT_TRUE(f.ready(1, 7));
  EXPECT_TRUE(f.ready(1, -3));
  EXPECT_FALSE(f.ready(1, 1));
  rt::Packet* got = f.poll(1, 31);
  ASSERT_NE(got, nullptr);
  rt::PacketPool::free(got);
  f.credit_return(1, 31);  // clamped like every other lane argument
  EXPECT_EQ(f.delivered(1, 31), 1u);
  EXPECT_FALSE(f.ready(1, 7));
  EXPECT_FALSE(f.ready(1, -3));
  EXPECT_TRUE(f.idle(1));
}

TEST(Backoff, SpinForNsWaitsAtLeastThatLong) {
  const auto t0 = rt::now_ns();
  rt::spin_for_ns(1'000'000);
  EXPECT_GE(rt::now_ns() - t0, 1'000'000u);
}

}  // namespace
}  // namespace lwmpi::net
