// Netmod backend tests: factory dispatch, the receive lane both backends
// share (ordering, overflow, records, maturation, packet ownership), the rdma
// backend's mechanisms (credit rings, registration cache, zero-copy
// rendezvous), and backend selection through World::Options.
//
// The other half of backend-selection coverage -- that the default `mailbox`
// backend is baseline-identical -- is enforced by test_bench_check and the
// bench_regression ctest, which compare the live library's BENCH_table1/fig2
// artifacts bit-for-bit against the committed baselines (default netmod).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "net/fabric.hpp"
#include "net/lane.hpp"
#include "net/netmod.hpp"
#include "net/profile.hpp"
#include "obs/pvar.hpp"
#include "runtime/backoff.hpp"
#include "runtime/packet.hpp"
#include "runtime/world.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

rt::Packet* make_packet(Tag tag) {
  rt::Packet* p = rt::PacketPool::alloc();
  p->hdr.tag = tag;
  return p;
}

using test::read_pvar;

// --- factory ----------------------------------------------------------------

TEST(NetmodFactory, KnownBackends) {
  auto mb = net::make_netmod("mailbox", 2, 1, net::loopback(), 1);
  EXPECT_EQ(mb->name(), "mailbox");
  EXPECT_FALSE(mb->rdma_capable());
  auto rd = net::make_netmod("rdma", 2, 1, net::loopback(), 1);
  EXPECT_EQ(rd->name(), "rdma");
  EXPECT_TRUE(rd->rdma_capable());
}

TEST(NetmodFactory, UnknownBackendIsAHardError) {
  EXPECT_THROW(net::make_netmod("verbs", 2, 1, net::loopback(), 1),
               std::invalid_argument);
  EXPECT_THROW(net::Fabric(2, 1, net::loopback(), 1, "tcp"), std::invalid_argument);
  WorldOptions o;
  o.netmod = "not-a-netmod";
  EXPECT_THROW(World(2, o), std::invalid_argument);
}

// --- the receive lane, on both netmods ---------------------------------------

class LaneOnBoth : public ::testing::TestWithParam<const char*> {};

std::byte lane_byte(int producer, int i, std::size_t b) {
  return static_cast<std::byte>(producer * 67 + i * 13 + static_cast<int>(b) * 7);
}

// Message i comes in three shapes: one that fits a lane record, one larger
// than a record, and one traced (seq and lclock set), which must keep its
// Packet. The last two also carry fields no record has.
std::size_t lane_msg_bytes(int i) {
  const auto u = static_cast<std::size_t>(i);
  switch (i % 3) {
    case 0: return u % (net::Lane::kInlineBytes + 1);
    case 1: return 100 + u % 50;
    default: return 8;
  }
}

rt::Packet* lane_msg(int producer, int i) {
  rt::Packet* k = rt::PacketPool::alloc();
  const int shape = i % 3;
  const std::size_t n = lane_msg_bytes(i);
  k->payload.resize(n);
  for (std::size_t b = 0; b < n; ++b) k->payload[b] = lane_byte(producer, i, b);
  k->hdr.match_mode = i % 2 != 0 ? rt::MatchMode::ArrivalOrder : rt::MatchMode::Full;
  k->hdr.ctx = static_cast<std::uint32_t>(7 + producer);
  k->hdr.src_comm_rank = producer + 10;
  k->hdr.src_world = producer;
  k->hdr.tag = i;
  k->hdr.total_bytes = n;
  k->hdr.send_ns = static_cast<std::uint64_t>(i) + 1;
  if (shape != 0) {
    k->hdr.offset = static_cast<std::uint64_t>(i);
    k->hdr.origin_req = static_cast<std::uint32_t>(producer);
  }
  if (shape == 2) {
    k->hdr.seq = static_cast<std::uint64_t>(i) + 1;
    k->hdr.lclock = static_cast<std::uint64_t>(i) + 1;
  }
  return k;
}

// Every header field and payload byte of message i of `producer`, as sent.
void expect_lane_msg(const rt::Packet& k, int producer, int i, bool rdma) {
  const int shape = i % 3;
  ASSERT_EQ(k.hdr.kind, rt::PacketKind::Eager);
  EXPECT_EQ(k.hdr.match_mode, i % 2 != 0 ? rt::MatchMode::ArrivalOrder : rt::MatchMode::Full);
  EXPECT_EQ(k.hdr.vci, 0);
  EXPECT_EQ(k.hdr.ctx, static_cast<std::uint32_t>(7 + producer));
  EXPECT_EQ(k.hdr.src_comm_rank, producer + 10);
  EXPECT_EQ(k.hdr.src_world, producer);
  EXPECT_EQ(k.hdr.tag, i);
  EXPECT_EQ(k.hdr.total_bytes, k.payload.size());
  EXPECT_EQ(k.hdr.send_ns, static_cast<std::uint64_t>(i) + 1);
  EXPECT_EQ(k.hdr.sampled, 0);
  EXPECT_EQ(k.hdr.offset, shape != 0 ? static_cast<std::uint64_t>(i) : 0u);
  EXPECT_EQ(k.hdr.origin_req, shape != 0 ? static_cast<std::uint32_t>(producer) : 0u);
  EXPECT_EQ(k.hdr.seq, shape == 2 ? static_cast<std::uint64_t>(i) + 1 : 0u);
  EXPECT_EQ(k.hdr.lclock, shape == 2 ? static_cast<std::uint64_t>(i) + 1 : 0u);
  if (!rdma) {  // an rdma packet may have waited for a credit
    EXPECT_EQ(k.hdr.stall_ns, 0u);
  }
  const std::size_t n = lane_msg_bytes(i);
  ASSERT_EQ(k.payload.size(), n);
  for (std::size_t b = 0; b < n; ++b) ASSERT_EQ(k.payload[b], lane_byte(producer, i, b)) << b;
}

// Three producers each push 20,000 messages into one lane. The consumer
// starts only once the ring has overflowed, drains phase one completely, and
// then runs beside the producers' phase two, whose first push finds the
// overflow drained and takes the ring again.
TEST_P(LaneOnBoth, KeepsEachProducersOrderThroughOverflow) {
  constexpr int kProducers = 3;
  constexpr int kPerPhase = 10'000;
  constexpr int kPerProducer = 2 * kPerPhase;
  const bool rdma = std::string(GetParam()) == "rdma";
  net::Fabric f(4, 4, net::loopback(), 1, GetParam());
  const Rank dst = 1;
  const Rank producers[kProducers] = {0, 2, 3};
  std::atomic<bool> phase2{false};
  std::uint64_t bytes = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      rt::Packet* k = lane_msg(p, i);
      bytes += k->payload.size();
      rt::PacketPool::free(k);
    }
  }

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (i == kPerPhase) {
          rt::Backoff b;
          while (!phase2.load(std::memory_order_acquire)) b.pause();
        }
        f.inject(producers[p], dst, lane_msg(p, i));
      }
    });
  }

  rt::Backoff wait_overflow;
  while (f.lane_overflows(dst, 0) == 0) wait_overflow.pause();

  std::array<int, kProducers> next{};
  const auto consume = [&](int want) {
    for (int got = 0; got < want;) {
      rt::Packet* k = f.poll(dst, 0);
      if (k == nullptr) continue;
      f.credit_return(dst, 0);
      ++got;
      const int p = k->hdr.src_world;  // the producer's index, not its rank
      if (p < 0 || p >= kProducers) {
        ADD_FAILURE() << "unknown producer " << p;
      } else {
        int& want_i = next[static_cast<std::size_t>(p)];
        EXPECT_EQ(k->hdr.tag, want_i) << "producer " << p << " out of order";
        expect_lane_msg(*k, p, k->hdr.tag, rdma);
        want_i = k->hdr.tag + 1;
      }
      rt::PacketPool::free(k);
    }
  };
  consume(kProducers * kPerPhase);
  EXPECT_EQ(f.pending(dst, 0), 0u);
  const std::uint64_t phase1_overflows = f.lane_overflows(dst, 0);
  phase2.store(true, std::memory_order_release);
  consume(kProducers * kPerPhase);
  for (auto& t : threads) t.join();

  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[static_cast<std::size_t>(p)], kPerProducer);
  EXPECT_EQ(f.poll(dst, 0), nullptr);
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(f.injected(dst, 0), kTotal);
  EXPECT_EQ(f.delivered(dst, 0), kTotal);
  EXPECT_EQ(f.injected_bytes(dst, 0), bytes);
  EXPECT_EQ(f.delivered_bytes(dst, 0), bytes);
  EXPECT_EQ(f.pending(dst, 0), 0u);
  EXPECT_EQ(f.pending_any(dst), 0u);
  EXPECT_TRUE(f.idle(dst));
  EXPECT_GT(phase1_overflows, 0u);
  EXPECT_LT(f.lane_overflows(dst, 0), phase1_overflows + kProducers * kPerPhase);
}

// A record carries its maturation time: under a latency profile it is not
// delivered before deliver_at, and neither is the packet queued behind it.
TEST_P(LaneOnBoth, RecordIsNotDeliveredBeforeItsDeliverAt) {
  net::Profile prof = net::psm2();
  prof.latency_ns = 2'000'000;  // 2 ms inter-node: far above any poll's cost
  net::Fabric f(2, 1, prof, 1, GetParam());
  const std::uint64_t t0 = rt::now_ns();
  f.inject(0, 1, lane_msg(0, 0));  // fits a record
  f.inject(0, 1, lane_msg(0, 1));  // a Packet
  EXPECT_TRUE(f.ready(1, 0));      // the doorbell rings for an immature packet too
  std::vector<std::pair<rt::Packet*, std::uint64_t>> got;  // packet, time polled
  const auto take = [&] {
    if (rt::Packet* k = f.poll(1, 0)) {
      got.emplace_back(k, rt::now_ns());
      f.credit_return(1, 0);
    }
  };
  take();
  EXPECT_TRUE(got.empty()) << "delivered before its deliver_at";
  while (got.size() < 2 && rt::now_ns() < t0 + 2'000'000'000) take();
  ASSERT_EQ(got.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    const auto [k, t] = got[static_cast<std::size_t>(i)];
    EXPECT_GE(k->deliver_at_ns, t0 + prof.latency_ns);
    EXPECT_GE(t, k->deliver_at_ns);
    expect_lane_msg(*k, 0, i, std::string(GetParam()) == "rdma");
    rt::PacketPool::free(k);
  }
}

// A 1-byte eager message travels as a record: the sender's Packet goes back
// to the sender's pool at injection, and the receiver builds its own, so
// neither rank's pool drains into the other's. Rank 1 acks each window, so
// the backlog stays within the ring (a spilled packet keeps its Packet).
TEST_P(LaneOnBoth, EagerBytePacketNeverLeavesItsThread) {
  constexpr int kMsgs = 10'000;
  constexpr int kWindow = 40;
  static_assert(kWindow < net::Lane::kCells);
  constexpr std::size_t kPrimed = 256;
  WorldOptions o = test::fast_opts();
  o.netmod = GetParam();
  World w(2, o);
  std::array<std::size_t, 2> before{}, after{};
  w.run([&](Engine& e) {
    const int me = e.world_rank();
    rt::PacketPool::tl_drain();
    std::vector<rt::Packet*> prime(kPrimed);
    for (auto& k : prime) k = rt::PacketPool::alloc();
    for (auto* k : prime) rt::PacketPool::free(k);
    before[static_cast<std::size_t>(me)] = rt::PacketPool::tl_pool_size();
    char b = 1;
    for (int i = 0; i < kMsgs; i += kWindow) {
      if (me == 0) {
        for (int k = 0; k < kWindow; ++k) e.send(&b, 1, kChar, 1, 0, kCommWorld);
        e.recv(&b, 1, kChar, 1, 1, kCommWorld, nullptr);
      } else {
        for (int k = 0; k < kWindow; ++k) e.recv(&b, 1, kChar, 0, 0, kCommWorld, nullptr);
        e.send(&b, 1, kChar, 0, 1, kCommWorld);
      }
    }
    after[static_cast<std::size_t>(me)] = rt::PacketPool::tl_pool_size();
  });
  EXPECT_EQ(before[0], kPrimed);
  EXPECT_EQ(after[0], kPrimed);
  EXPECT_EQ(after[1], before[1]);
}

// fabric_lane_overflows: a window deeper than the 64-cell ring, sent before
// the receiver polls, spills everything past the 64th message.
TEST_P(LaneOnBoth, OverflowPvarCountsAWindowDeeperThanTheRing) {
  constexpr int kWindow = 200;
  WorldOptions o = test::fast_opts();
  o.netmod = GetParam();
  World w(2, o);
  std::atomic<bool> sent{false};
  w.run([&](Engine& e) {
    char b = 2;
    if (e.world_rank() == 0) {
      for (int i = 0; i < kWindow; ++i) e.send(&b, 1, kChar, 1, 0, kCommWorld);
      sent.store(true, std::memory_order_release);
      return;
    }
    rt::Backoff backoff;
    while (!sent.load(std::memory_order_acquire)) backoff.pause();
    for (int i = 0; i < kWindow; ++i) e.recv(&b, 1, kChar, 0, 0, kCommWorld, nullptr);
  });
  EXPECT_EQ(read_pvar(w.engine(1), "fabric_lane_overflows"),
            static_cast<std::uint64_t>(kWindow) - net::Lane::kCells);
  EXPECT_EQ(read_pvar(w.engine(0), "fabric_lane_overflows"), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothNetmods, LaneOnBoth, ::testing::Values("mailbox", "rdma"),
                         [](const auto& info) { return std::string(info.param); });

// --- rdma backend: transport basics -----------------------------------------

TEST(RdmaNetmod, DeliversInOrderAndCounts) {
  net::Fabric f(2, 2, net::loopback(), 1, "rdma");
  for (Tag t = 0; t < 5; ++t) f.inject(0, 1, make_packet(t));
  EXPECT_EQ(f.injected(1), 5u);
  EXPECT_EQ(f.pending_any(1), 5u);
  for (Tag t = 0; t < 5; ++t) {
    rt::Packet* p = f.poll(1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->hdr.tag, t);
    rt::PacketPool::free(p);
    f.credit_return(1, 0);
  }
  EXPECT_EQ(f.delivered(1), 5u);
  EXPECT_EQ(f.poll(1), nullptr);
  EXPECT_TRUE(f.idle(1));
}

TEST(RdmaNetmod, BlackholeDropsBeforeConsumingCredits) {
  net::Profile p = net::infinite();
  p.rdma_ring_depth = 1;
  net::Fabric f(2, 2, p, 1, "rdma");
  // With depth 1, a second inject would block if blackhole drops consumed a
  // ring credit.
  f.inject(0, 1, make_packet(1));
  f.inject(0, 1, make_packet(2));
  EXPECT_EQ(f.dropped(), 2u);
  EXPECT_EQ(f.poll(1), nullptr);
}

TEST(RdmaNetmod, RingCreditFlowBlocksFullRingAndCountsStalls) {
  net::Profile p = net::loopback();
  p.rdma_ring_depth = 2;
  net::Fabric f(2, 2, p, 1, "rdma");
  f.inject(0, 1, make_packet(0));
  f.inject(0, 1, make_packet(1));
  EXPECT_EQ(f.net_stat(net::NetStat::RingOccupancyHwm, 1, 0), 2u);

  // Third inject must wait for a credit; a consumer thread frees one.
  std::thread sender([&] { f.inject(0, 1, make_packet(2)); });
  // Wait until the sender has demonstrably hit the full ring.
  rt::Backoff backoff;
  while (f.net_stat(net::NetStat::RingStall, 0, -1) == 0) backoff.pause();
  EXPECT_EQ(f.pending(1, 0), 2u);  // third not enqueued yet
  rt::Packet* got = f.poll(1, 0);
  ASSERT_NE(got, nullptr);
  rt::PacketPool::free(got);
  f.credit_return(1, 0);
  sender.join();
  EXPECT_GE(f.net_stat(net::NetStat::RingStall, 0, -1), 1u);  // stalls bill the sender
  EXPECT_EQ(f.pending(1, 0), 2u);
  while (rt::Packet* q = f.poll(1, 0)) {
    rt::PacketPool::free(q);
    f.credit_return(1, 0);
  }
}

// --- rdma backend: registration cache ---------------------------------------

TEST(RdmaNetmod, RegCacheHitsMissesAndPinCost) {
  net::Profile p = net::loopback();
  p.pin_cost_ns_per_page = 2'000'000;  // 2 ms per page, measurable
  net::Fabric f(2, 1, p, 1, "rdma");
  std::vector<char> buf(4096);

  const auto t0 = rt::now_ns();
  const std::uint64_t rkey = f.register_memory(0, buf.data(), buf.size());
  EXPECT_GE(rt::now_ns() - t0, 2'000'000u);  // cold: pays the pin cost
  EXPECT_NE(rkey, 0u);
  EXPECT_EQ(f.net_stat(net::NetStat::RegCacheMiss, 0, -1), 1u);

  EXPECT_EQ(f.register_memory(0, buf.data(), buf.size()), rkey);
  EXPECT_EQ(f.net_stat(net::NetStat::RegCacheHit, 0, -1), 1u);
  EXPECT_EQ(f.net_stat(net::NetStat::RegCacheMiss, 0, -1), 1u);  // no re-pin
}

TEST(RdmaNetmod, RegCacheEvictsLeastRecentlyUsed) {
  net::Profile p = net::loopback();
  p.reg_cache_capacity = 2;
  net::Fabric f(2, 1, p, 1, "rdma");
  std::vector<std::vector<char>> bufs(3, std::vector<char>(4096));
  for (auto& b : bufs) f.register_memory(0, b.data(), b.size());
  EXPECT_EQ(f.net_stat(net::NetStat::RegCacheMiss, 0, -1), 3u);
  EXPECT_GE(f.net_stat(net::NetStat::RegCacheEviction, 0, -1), 1u);
  // The evicted (least recently used) first buffer must re-pin.
  f.register_memory(0, bufs[0].data(), bufs[0].size());
  EXPECT_EQ(f.net_stat(net::NetStat::RegCacheMiss, 0, -1), 4u);
}

TEST(RdmaNetmod, RdmaWriteCopiesIntoRegisteredBuffer) {
  net::Fabric f(2, 1, net::loopback(), 1, "rdma");
  std::vector<char> dst(256, 0);
  std::vector<char> src(256);
  std::iota(src.begin(), src.end(), 0);
  const std::uint64_t rkey = f.register_memory(1, dst.data(), dst.size());
  f.rdma_write(0, 1, src.data(), rkey, src.size());
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  EXPECT_EQ(f.net_stat(net::NetStat::ZeroCopyWrite, 0, -1), 1u);
  EXPECT_EQ(f.net_stat(net::NetStat::ZeroCopyWrite, 1, -1), 0u);
}

// --- rdma backend: zero-copy rendezvous through the full stack ---------------

WorldOptions rdv_world(const std::string& netmod) {
  WorldOptions o;
  o.netmod = netmod;
  o.ranks_per_node = 1;
  o.eager_threshold = 1024;  // force rendezvous for the payloads below
  return o;
}

TEST(ZeroCopyRendezvous, MovesDataWithoutStagingOnRdma) {
  World w(2, rdv_world("rdma"));
  const std::size_t n = 64 * 1024;
  std::vector<char> got(n, 0);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      std::vector<char> data(n);
      for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<char>(i * 31 + 7);
      e.send(data.data(), static_cast<int>(n), kChar, 1, 3, kCommWorld);
    } else {
      e.recv(got.data(), static_cast<int>(n), kChar, 0, 3, kCommWorld, nullptr);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], static_cast<char>(i * 31 + 7)) << i;
  }
  // The sender issued a one-sided write; both sides registered memory.
  EXPECT_GE(read_pvar(w.engine(0), "rdma_zero_copy_writes"), 1u);
  EXPECT_GE(read_pvar(w.engine(0), "rdma_reg_cache_misses"), 1u);
  EXPECT_GE(read_pvar(w.engine(1), "rdma_reg_cache_misses"), 1u);
}

TEST(ZeroCopyRendezvous, MailboxBackendStaysOnStagedPath) {
  World w(2, rdv_world("mailbox"));
  const std::size_t n = 64 * 1024;
  std::vector<char> got(n, 0);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      std::vector<char> data(n, 'x');
      e.send(data.data(), static_cast<int>(n), kChar, 1, 3, kCommWorld);
    } else {
      e.recv(got.data(), static_cast<int>(n), kChar, 0, 3, kCommWorld, nullptr);
    }
  });
  EXPECT_EQ(got[0], 'x');
  EXPECT_EQ(got[n - 1], 'x');
  EXPECT_EQ(read_pvar(w.engine(0), "rdma_zero_copy_writes"), 0u);
  EXPECT_EQ(read_pvar(w.engine(1), "rdma_reg_cache_misses"), 0u);
}

TEST(ZeroCopyRendezvous, NoncontiguousReceiverFallsBackToStagedCopy) {
  World w(2, rdv_world("rdma"));
  constexpr int kBlocks = 4096;  // 4096 x 4-byte blocks, stride 8 = 16 KiB data
  std::vector<char> got(static_cast<std::size_t>(kBlocks) * 8, 0);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      std::vector<char> data(static_cast<std::size_t>(kBlocks) * 4, 'z');
      e.send(data.data(), kBlocks * 4, kChar, 1, 3, kCommWorld);
    } else {
      Datatype vec = kDatatypeNull;
      ASSERT_EQ(e.type_vector(kBlocks, 4, 8, kChar, &vec), Err::Success);
      ASSERT_EQ(e.type_commit(&vec), Err::Success);
      ASSERT_EQ(e.recv(got.data(), 1, vec, 0, 3, kCommWorld, nullptr),
                Err::Success);
      ASSERT_EQ(e.type_free(&vec), Err::Success);
    }
  });
  EXPECT_EQ(got[0], 'z');
  EXPECT_EQ(got[3], 'z');
  EXPECT_EQ(got[4], 0);  // the stride gap stays untouched
  // The receiver could not accept the zero-copy offer, so the sender streamed
  // RdvData segments instead of issuing a one-sided write.
  EXPECT_EQ(read_pvar(w.engine(0), "rdma_zero_copy_writes"), 0u);
}

// --- backend selection + observability through the World ----------------------

TEST(WorldNetmod, StatsReportCarriesBackendName) {
  WorldOptions o;
  o.netmod = "rdma";
  World w(1, o);
  const std::string js = w.stats_report(true);
  EXPECT_NE(js.find("\"netmod\":\"rdma\""), std::string::npos);
  EXPECT_EQ(w.fabric().backend_name(), "rdma");
}

TEST(WorldNetmod, FabricDroppedExportedAsPvar) {
  WorldOptions o;
  o.profile = net::infinite();  // blackhole: every injection is dropped
  o.ranks_per_node = 1;
  World w(1, o);
  w.run([&](Engine& e) {
    char b = 1;
    for (int i = 0; i < 10; ++i) e.send(&b, 1, kChar, 0, 0, kCommWorld);
  });
  EXPECT_GE(read_pvar(w.engine(0), "fabric_dropped"), 10u);
}

}  // namespace
}  // namespace lwmpi
