// Netmod backend tests: factory dispatch, the rdma backend's mechanisms
// (credit rings, registration cache, zero-copy rendezvous), and backend
// selection through World::Options.
//
// The other half of backend-selection coverage -- that the default `mailbox`
// backend is baseline-identical -- is enforced by test_bench_check and the
// bench_regression ctest, which compare the live library's BENCH_table1/fig2
// artifacts bit-for-bit against the committed baselines (default netmod).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "net/fabric.hpp"
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
