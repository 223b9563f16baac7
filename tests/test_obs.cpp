// Observability subsystem: pvar registry enumeration, per-VCI counters,
// latency histograms, MPI_T-style sessions, the trace ring, and the
// Chrome-trace exporter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/causal.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/pvar.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

using test::parses;

using test::read_pvar;

// --- registry ----------------------------------------------------------------

TEST(PvarRegistry, EnumeratesAtLeastTwelveUniqueNames) {
  const int n = obs::LWMPI_T_pvar_num();
  ASSERT_GE(n, 12);
  std::set<std::string> names;
  for (int i = 0; i < n; ++i) {
    obs::PvarInfo info;
    ASSERT_EQ(obs::LWMPI_T_pvar_get_info(i, &info), Err::Success);
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.desc.empty());
    EXPECT_TRUE(names.insert(std::string(info.name)).second)
        << "duplicate pvar name " << info.name;
    // Name -> index is the inverse of enumeration.
    EXPECT_EQ(obs::LWMPI_T_pvar_index(info.name), i);
  }
}

TEST(PvarRegistry, RejectsBadArguments) {
  obs::PvarInfo info;
  EXPECT_EQ(obs::LWMPI_T_pvar_get_info(-1, &info), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_get_info(obs::LWMPI_T_pvar_num(), &info), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_get_info(0, nullptr), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_index("no_such_pvar"), -1);

  obs::PvarSession s;  // never bound to an engine
  std::uint64_t v = 0;
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(obs::LWMPI_T_pvar_read(s, 0, &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_session_free(&s), Err::Arg);
}

TEST(PvarRegistry, RejectsOutOfRangeIndicesOnLiveSession) {
  WorldOptions o = test::fast_opts();
  World w(1, o);
  obs::PvarSession s;
  ASSERT_EQ(obs::LWMPI_T_pvar_session_create(w.engine(0), &s), Err::Success);
  const int n = obs::LWMPI_T_pvar_num();
  std::uint64_t v = 0;
  EXPECT_EQ(obs::LWMPI_T_pvar_read(s, -1, &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_read(s, n, &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_read(s, 0, nullptr), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_start(s, -1), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_start(s, n), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_reset(s, n), Err::Arg);
  obs::LWMPI_T_pvar_session_free(&s);
}

TEST(PvarRegistry, RejectsOutOfRangeVci) {
  WorldOptions o = test::fast_opts();
  World w(1, o);
  Engine& e = w.engine(0);
  obs::PvarSession s;
  ASSERT_EQ(obs::LWMPI_T_pvar_session_create(e, &s), Err::Success);
  const int idx = obs::LWMPI_T_pvar_index("vci_sends_eager");
  ASSERT_GE(idx, 0);
  std::uint64_t v = 0;
  EXPECT_EQ(obs::LWMPI_T_pvar_read_vci(s, idx, e.num_vcis(), &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_read_vci(s, idx, 9999, &v), Err::Arg);
  // vci = -1 is the documented sum-over-channels spelling, not an error.
  EXPECT_EQ(obs::LWMPI_T_pvar_read_vci(s, idx, -1, &v), Err::Success);
  obs::LWMPI_T_pvar_session_free(&s);
}

TEST(PvarRegistry, FreedSessionRejectsAllOperations) {
  WorldOptions o = test::fast_opts();
  World w(1, o);
  obs::PvarSession s;
  ASSERT_EQ(obs::LWMPI_T_pvar_session_create(w.engine(0), &s), Err::Success);
  ASSERT_EQ(obs::LWMPI_T_pvar_session_free(&s), Err::Success);
  EXPECT_FALSE(s.valid());
  std::uint64_t v = 0;
  EXPECT_EQ(obs::LWMPI_T_pvar_read(s, 0, &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_read_vci(s, 0, 0, &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_start(s, 0), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_pvar_reset(s, 0), Err::Arg);
  // Double free is also an argument error, not UB.
  EXPECT_EQ(obs::LWMPI_T_pvar_session_free(&s), Err::Arg);
}

// --- counters ----------------------------------------------------------------

TEST(Counters, EagerRdvSplitAtThreshold) {
  WorldOptions o = test::fast_opts();
  o.eager_threshold = 64;
  World w(2, o);
  const int kSmall = 3, kBig = 2;
  std::vector<char> big(256, 'x');
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      char c = 1;
      for (int i = 0; i < kSmall; ++i) e.send(&c, 1, kChar, 1, i, kCommWorld);
      for (int i = 0; i < kBig; ++i) {
        e.send(big.data(), static_cast<int>(big.size()), kChar, 1, 100 + i, kCommWorld);
      }
    } else {
      char c = 0;
      std::vector<char> rbuf(256);
      for (int i = 0; i < kSmall; ++i) e.recv(&c, 1, kChar, 0, i, kCommWorld, nullptr);
      for (int i = 0; i < kBig; ++i) {
        e.recv(rbuf.data(), static_cast<int>(rbuf.size()), kChar, 0, 100 + i, kCommWorld,
               nullptr);
      }
    }
  });
  Engine& sender = w.engine(0);
  EXPECT_EQ(read_pvar(sender, "vci_sends_eager"), static_cast<std::uint64_t>(kSmall));
  EXPECT_EQ(read_pvar(sender, "vci_sends_rdv"), static_cast<std::uint64_t>(kBig));
  Engine& receiver = w.engine(1);
  EXPECT_EQ(read_pvar(receiver, "vci_recvs_posted"),
            static_cast<std::uint64_t>(kSmall + kBig));
  EXPECT_EQ(read_pvar(receiver, "vci_posted_matches") +
                read_pvar(receiver, "vci_posted_misses"),
            static_cast<std::uint64_t>(kSmall + kBig));
}

TEST(Counters, SessionReadsAreBaselineRelative) {
  WorldOptions o = test::fast_opts();
  World w(2, o);
  auto exchange = [&] {
    w.run([&](Engine& e) {
      int v = 7;
      if (e.world_rank() == 0) {
        e.send(&v, 1, kInt, 1, 0, kCommWorld);
      } else {
        e.recv(&v, 1, kInt, 0, 0, kCommWorld, nullptr);
      }
    });
  };
  exchange();

  Engine& sender = w.engine(0);
  obs::PvarSession s;
  ASSERT_EQ(obs::LWMPI_T_pvar_session_create(sender, &s), Err::Success);
  const int idx = obs::LWMPI_T_pvar_index("vci_sends_eager");
  ASSERT_GE(idx, 0);

  std::uint64_t v = 0;
  ASSERT_EQ(obs::LWMPI_T_pvar_read(s, idx, &v), Err::Success);
  EXPECT_EQ(v, 1u);  // fresh session: baseline zero, absolute value visible

  // start() captures the baseline: the first exchange disappears from view.
  ASSERT_EQ(obs::LWMPI_T_pvar_start(s, idx), Err::Success);
  ASSERT_EQ(obs::LWMPI_T_pvar_read(s, idx, &v), Err::Success);
  EXPECT_EQ(v, 0u);

  exchange();
  ASSERT_EQ(obs::LWMPI_T_pvar_read(s, idx, &v), Err::Success);
  EXPECT_EQ(v, 1u);  // only the traffic since start()

  // reset() re-zeros from this session's point of view.
  ASSERT_EQ(obs::LWMPI_T_pvar_reset(s, idx), Err::Success);
  ASSERT_EQ(obs::LWMPI_T_pvar_read(s, idx, &v), Err::Success);
  EXPECT_EQ(v, 0u);
  obs::LWMPI_T_pvar_session_free(&s);
}

TEST(Counters, UnexpectedQueueDepthAndHighWater) {
  // Single-thread drive: the receiver's progress runs only when we call it,
  // so every eager arrival lands on the unexpected queue first.
  WorldOptions o = test::fast_opts();
  World w(2, o);
  Engine& e0 = w.engine(0);
  Engine& e1 = w.engine(1);

  const int kMsgs = 5;
  char c = 'a';
  std::vector<Request> reqs(kMsgs, kRequestNull);
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(e0.isend(&c, 1, kChar, 1, i, kCommWorld, &reqs[static_cast<std::size_t>(i)]),
              Err::Success);
  }
  e0.waitall(reqs, {});  // eager: complete at inject
  e1.progress();         // all five arrive unmatched

  EXPECT_EQ(read_pvar(e1, "vci_unexpected_depth"), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(read_pvar(e1, "vci_unexpected_hwm"), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(read_pvar(e1, "vci_posted_misses"), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(read_pvar(e1, "vci_posted_matches"), 0u);

  // Draining the queue lowers the level; the high-water mark stays.
  for (int i = 0; i < kMsgs; ++i) {
    char got = 0;
    ASSERT_EQ(e1.recv(&got, 1, kChar, 0, i, kCommWorld, nullptr), Err::Success);
    EXPECT_EQ(got, 'a');
  }
  EXPECT_EQ(read_pvar(e1, "vci_unexpected_depth"), 0u);
  EXPECT_EQ(read_pvar(e1, "vci_unexpected_hwm"), static_cast<std::uint64_t>(kMsgs));
}

TEST(Counters, DecSaturatesAtZero) {
  // A level counter whose inc lost a tick to the documented lock-free race
  // must floor at 0 on dec, never wrap to ~2^64.
  obs::VciCounters c;
  c.dec(obs::VciCtr::PostedDepth);  // dec on a zero counter
  EXPECT_EQ(c.get(obs::VciCtr::PostedDepth), 0u);
  c.inc(obs::VciCtr::PostedDepth, 2);
  c.dec(obs::VciCtr::PostedDepth, 5);  // dec by more than the level
  EXPECT_EQ(c.get(obs::VciCtr::PostedDepth), 0u);
  c.inc(obs::VciCtr::PostedDepth, 7);
  c.dec(obs::VciCtr::PostedDepth, 3);  // normal in-range dec still exact
  EXPECT_EQ(c.get(obs::VciCtr::PostedDepth), 4u);
}

TEST(Counters, PostedDepthAndHighWater) {
  // Mirror of UnexpectedQueueDepthAndHighWater for the posted side: receives
  // posted with no matching traffic raise the level and the high-water mark;
  // matching them drains the level but the mark stays.
  WorldOptions o = test::fast_opts();
  World w(2, o);
  Engine& e0 = w.engine(0);
  Engine& e1 = w.engine(1);

  const int kRecvs = 4;
  std::vector<char> got(kRecvs, 0);
  std::vector<Request> rreqs(kRecvs, kRequestNull);
  for (int i = 0; i < kRecvs; ++i) {
    ASSERT_EQ(e1.irecv(&got[static_cast<std::size_t>(i)], 1, kChar, 0, i, kCommWorld,
                       &rreqs[static_cast<std::size_t>(i)]),
              Err::Success);
  }
  EXPECT_EQ(read_pvar(e1, "vci_posted_depth"), static_cast<std::uint64_t>(kRecvs));
  EXPECT_EQ(read_pvar(e1, "vci_posted_hwm"), static_cast<std::uint64_t>(kRecvs));

  char c = 'p';
  for (int i = 0; i < kRecvs; ++i) {
    Request sr = kRequestNull;
    ASSERT_EQ(e0.isend(&c, 1, kChar, 1, i, kCommWorld, &sr), Err::Success);
    ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);
  }
  e1.progress();  // every arrival matches a posted receive
  ASSERT_EQ(e1.waitall(rreqs, {}), Err::Success);
  for (int i = 0; i < kRecvs; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 'p');

  EXPECT_EQ(read_pvar(e1, "vci_posted_depth"), 0u);
  EXPECT_EQ(read_pvar(e1, "vci_posted_hwm"), static_cast<std::uint64_t>(kRecvs));
  EXPECT_EQ(read_pvar(e1, "vci_posted_matches"), static_cast<std::uint64_t>(kRecvs));
}

TEST(Counters, ProgressIdleVsSwept) {
  WorldOptions o = test::fast_opts();
  World w(2, o);
  Engine& e1 = w.engine(1);

  // Nothing in flight: the call resolves on the lock-free idle path.
  e1.progress();
  EXPECT_EQ(read_pvar(e1, "progress_calls_idle"), 1u);
  EXPECT_EQ(read_pvar(e1, "progress_calls_swept"), 0u);

  char c = 'z';
  Request r = kRequestNull;
  ASSERT_EQ(w.engine(0).isend(&c, 1, kChar, 1, 0, kCommWorld, &r), Err::Success);
  w.engine(0).wait(&r, nullptr);
  e1.progress();  // pending fabric traffic forces a sweep
  EXPECT_EQ(read_pvar(e1, "progress_calls_swept"), 1u);
}

TEST(Counters, DisabledBuildKeepsCountersAtZero) {
  WorldOptions o = test::fast_opts();
  o.build.counters = false;
  World w(2, o);
  w.run([&](Engine& e) {
    int v = 3;
    if (e.world_rank() == 0) {
      e.send(&v, 1, kInt, 1, 0, kCommWorld);
    } else {
      e.recv(&v, 1, kInt, 0, 0, kCommWorld, nullptr);
    }
  });
  EXPECT_EQ(read_pvar(w.engine(0), "vci_sends_eager"), 0u);
  EXPECT_EQ(read_pvar(w.engine(1), "vci_recvs_posted"), 0u);
  EXPECT_EQ(read_pvar(w.engine(1), "progress_calls_swept"), 0u);
}

TEST(Counters, RmaOpsAndFlushes) {
  WorldOptions o = test::fast_opts();
  World w(2, o);
  w.run([&](Engine& e) {
    std::vector<int> mem(8, 0);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    e.win_fence(win);
    if (e.world_rank() == 0) {
      const int v = 5;
      ASSERT_EQ(e.put(&v, 1, kInt, 1, 0, 1, kInt, win), Err::Success);
      ASSERT_EQ(e.win_flush_all(win), Err::Success);
    }
    e.win_fence(win);
    e.win_free(&win);
  });
  EXPECT_EQ(read_pvar(w.engine(0), "rma_ops"), 1u);
  // Two fences, one explicit flush_all, plus the implicit flush in win_free.
  EXPECT_EQ(read_pvar(w.engine(0), "rma_flushes"), 4u);
}

TEST(Pvar, FabricByteCounters) {
  // One rank per node so the pair actually crosses the fabric (same-node
  // traffic takes shmmod and never touches the netmod byte counters).
  WorldOptions o = test::fast_opts();
  o.ranks_per_node = 1;
  constexpr int kMsgs = 32;
  constexpr std::uint64_t kBytes = kMsgs * sizeof(std::uint64_t);

  test::spmd(2, [&](Engine& e) {
    std::uint64_t v = 11;
    if (e.world_rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_EQ(e.send(&v, 1, kUint64, 1, i, kCommWorld), Err::Success);
      }
      e.barrier(kCommWorld);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_EQ(e.recv(&v, 1, kUint64, 0, i, kCommWorld, nullptr), Err::Success);
      }
      e.barrier(kCommWorld);
      // Both counters are indexed by the *destination* lane: bytes injected
      // toward this rank, and bytes its own polls delivered.
      EXPECT_GE(read_pvar(e, "fabric_injected_bytes"), kBytes);
      EXPECT_GE(read_pvar(e, "fabric_delivered_bytes"), kBytes);
    }
  }, o);
}

// --- latency histograms ------------------------------------------------------

TEST(LatencyHist, BucketingAndPercentiles) {
  static_assert(obs::LatencyHist::bucket_of(0) == 1);  // |1 floor
  static_assert(obs::LatencyHist::bucket_of(1) == 1);
  static_assert(obs::LatencyHist::bucket_of(255) == 8);
  static_assert(obs::LatencyHist::bucket_of(256) == 9);
  static_assert(obs::LatencyHist::bucket_of(std::uint64_t{1} << 47) == obs::kLatBuckets - 1);
  static_assert(obs::LatencyHist::bucket_of(~std::uint64_t{0}) == obs::kLatBuckets - 1);

  obs::LatencyHist h;
  for (int i = 0; i < 90; ++i) h.record(100);    // bucket 7, upper bound 127
  for (int i = 0; i < 10; ++i) h.record(5000);   // bucket 13, upper bound 8191
  obs::LatSnapshot s;
  s.merge(h);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max_ns, 5000u);
  EXPECT_EQ(s.percentile(0.50), 127u);   // bucket upper bound
  EXPECT_EQ(s.percentile(0.99), 5000u);  // clamped by the observed max
  EXPECT_EQ(s.percentile(1.00), 5000u);

  // Merging a second channel's histogram folds counts and max.
  obs::LatencyHist h2;
  h2.record(70000);
  s.merge(h2);
  EXPECT_EQ(s.count, 101u);
  EXPECT_EQ(s.max_ns, 70000u);

  const obs::LatSnapshot empty;
  EXPECT_EQ(empty.percentile(0.99), 0u);

  // The extremes: record(0) lands in bucket 1 (the |1 floor, so bucket 0
  // stays empty), ~0 clamps into the top bucket, and max_ns keeps ~0.
  obs::LatencyHist edges;
  edges.record(0);
  edges.record(~std::uint64_t{0});
  obs::LatSnapshot e;
  e.merge(edges);
  EXPECT_EQ(e.count, 2u);
  EXPECT_EQ(e.bucket[0], 0u);
  EXPECT_EQ(e.bucket[1], 1u);
  EXPECT_EQ(e.bucket[obs::kLatBuckets - 1], 1u);
  EXPECT_EQ(e.max_ns, ~std::uint64_t{0});
}

// The acceptance check from the paper's protocol-cost argument: at 1 MiB an
// eager send's lifetime is one copy, while a rendezvous send cannot finish
// before the receiver shows up. Drive both worlds single-threaded; in the
// rendezvous world the receiver is deliberately late, so the send-side
// lifetime includes the handshake wait and its p50 must sit far above the
// eager p99. Parameterized over the netmod backend: the rdma rendezvous takes
// the zero-copy CTS/rdma_write path, and its completion stamp must land in
// the same lat_send_rdv histogram the mailbox staging path feeds.
void check_eager_p99_below_rdv_p50(const std::string& netmod) {
  constexpr int kBytes = 1 << 20;
  constexpr auto kReceiverDelay = std::chrono::milliseconds(150);
  std::vector<char> out(kBytes, 'e');
  std::vector<char> in(kBytes, 0);

  std::uint64_t eager_p99 = 0;
  {
    WorldOptions o = test::fast_opts();
    o.netmod = netmod;
    o.eager_threshold = 2 * 1024 * 1024;  // 1 MiB goes eager
    o.build.lat_sample_shift = 0;         // stamp every message
    World w(2, o);
    Engine& e0 = w.engine(0);
    Engine& e1 = w.engine(1);
    for (int i = 0; i < 40; ++i) {
      Request sr = kRequestNull;
      ASSERT_EQ(e0.isend(out.data(), kBytes, kChar, 1, i, kCommWorld, &sr), Err::Success);
      ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);  // eager: completes at inject
      ASSERT_EQ(e1.recv(in.data(), kBytes, kChar, 0, i, kCommWorld, nullptr),
                Err::Success);
    }
    EXPECT_EQ(read_pvar(e0, "lat_send_eager_count"), 40u);
    eager_p99 = read_pvar(e0, "lat_send_eager_p99_ns");
  }

  std::uint64_t rdv_p50 = 0;
  {
    WorldOptions o = test::fast_opts();  // default threshold: 1 MiB goes rendezvous
    o.netmod = netmod;
    o.build.lat_sample_shift = 0;
    World w(2, o);
    Engine& e0 = w.engine(0);
    Engine& e1 = w.engine(1);
    for (int i = 0; i < 5; ++i) {
      Request sr = kRequestNull;
      Request rr = kRequestNull;
      ASSERT_EQ(e0.isend(out.data(), kBytes, kChar, 1, i, kCommWorld, &sr), Err::Success);
      std::this_thread::sleep_for(kReceiverDelay);  // receiver is late
      ASSERT_EQ(e1.irecv(in.data(), kBytes, kChar, 0, i, kCommWorld, &rr), Err::Success);
      e1.progress();  // match the RTS, answer with CTS
      e0.progress();  // handle the CTS, ship the payload
      ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);
      e1.progress();  // deliver the payload
      ASSERT_EQ(e1.wait(&rr, nullptr), Err::Success);
      ASSERT_EQ(in[kBytes / 2], 'e');
    }
    EXPECT_EQ(read_pvar(e0, "lat_send_rdv_count"), 5u);
    rdv_p50 = read_pvar(e0, "lat_send_rdv_p50_ns");
  }

  EXPECT_GT(eager_p99, 0u);
  EXPECT_GE(rdv_p50,
            static_cast<std::uint64_t>(
                std::chrono::nanoseconds(kReceiverDelay).count()));
  EXPECT_LT(eager_p99, rdv_p50);
}

TEST(Latency, EagerP99BelowRendezvousP50AtOneMiB) {
  check_eager_p99_below_rdv_p50("mailbox");
}

TEST(Latency, EagerP99BelowRendezvousP50AtOneMiBRdma) {
  check_eager_p99_below_rdv_p50("rdma");
}

TEST(Latency, DisabledBuildRecordsNothing) {
  WorldOptions o = test::fast_opts();
  o.build.counters = false;  // histogram tier follows the counter switch
  World w(2, o);
  w.run([&](Engine& e) {
    int v = 4;
    if (e.world_rank() == 0) {
      e.send(&v, 1, kInt, 1, 0, kCommWorld);
    } else {
      e.recv(&v, 1, kInt, 0, 0, kCommWorld, nullptr);
    }
  });
  EXPECT_EQ(read_pvar(w.engine(0), "lat_send_eager_count"), 0u);
  EXPECT_EQ(read_pvar(w.engine(1), "lat_recv_eager_count"), 0u);
  EXPECT_EQ(read_pvar(w.engine(0), "lat_send_eager_p99_ns"), 0u);
}

// World construction calibrates the TSC clock, so the ~1 ms spin never lands
// inside a timed message, and publishes what the spin cost.
TEST(Latency, WorldPublishesTheClockCalibration) {
  World w(1, test::fast_opts());
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_GE(read_pvar(w.engine(0), "lat_calibration_ns"), 1'000'000u);
#else
  EXPECT_EQ(read_pvar(w.engine(0), "lat_calibration_ns"), 0u);  // steady clock: no spin
#endif
}

// --- trace ring --------------------------------------------------------------

TEST(TraceRing, OverwritesOldestWithoutBlocking) {
  obs::Ring<obs::trace::Event> ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    obs::trace::Event e;
    e.seq = i;
    e.ts_ns = i;
    EXPECT_EQ(ring.push(e), i - 1);  // the push index
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::uint64_t first = 0;
  std::vector<obs::trace::Event> got = ring.collect(&first);
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(first, 12u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, 13 + i);  // oldest survivor first
  }
  got = ring.last(3, &first);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(first, 17u);
  EXPECT_EQ(got[0].seq, 18u);
  EXPECT_EQ(got[2].seq, 20u);
}

TEST(TraceRing, RoundsCapacityToPowerOfTwo) {
  obs::Ring<obs::trace::Event> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  obs::Ring<obs::trace::Event> none(0);  // an untraced channel's ring
  EXPECT_EQ(none.capacity(), 0u);
  EXPECT_TRUE(none.collect().empty());
  EXPECT_EQ(none.dropped(), 0u);
}

// --- end-to-end tracing ------------------------------------------------------

// Group collected events by message id.
std::map<std::uint64_t, std::vector<obs::trace::Event>> by_seq(
    const std::vector<obs::trace::Event>& events) {
  std::map<std::uint64_t, std::vector<obs::trace::Event>> out;
  for (const auto& e : events) {
    if (e.seq != 0) out[e.seq].push_back(e);
  }
  return out;
}

bool has_kind(const std::vector<obs::trace::Event>& chain, obs::trace::Ev k) {
  for (const auto& e : chain) {
    if (e.kind == k) return true;
  }
  return false;
}

TEST(Trace, FourRankRingExchangeExportsWellFormedChains) {
  WorldOptions o = test::fast_opts();
  o.build.trace = true;
  const int n = 4;
  World w(n, o);
  w.run([&](Engine& e) {
    const Rank me = e.world_rank();
    const Rank next = (me + 1) % n;
    const Rank prev = (me + n - 1) % n;
    int out = 1000 + me, in = -1;
    Request r = kRequestNull;
    ASSERT_EQ(e.isend(&out, 1, kInt, next, 9, kCommWorld, &r), Err::Success);
    ASSERT_EQ(e.recv(&in, 1, kInt, prev, 9, kCommWorld, nullptr), Err::Success);
    ASSERT_EQ(e.wait(&r, nullptr), Err::Success);
    EXPECT_EQ(in, 1000 + prev);
  });

  const std::vector<obs::trace::Event> events = w.trace_events();
  const auto chains = by_seq(events);
  ASSERT_EQ(chains.size(), static_cast<std::size_t>(n));  // one chain per send
  for (const auto& [seq, chain] : chains) {
    EXPECT_TRUE(has_kind(chain, obs::trace::Ev::SendPost)) << "seq " << seq;
    EXPECT_TRUE(has_kind(chain, obs::trace::Ev::Inject)) << "seq " << seq;
    EXPECT_TRUE(has_kind(chain, obs::trace::Ev::Deliver)) << "seq " << seq;
    EXPECT_TRUE(has_kind(chain, obs::trace::Ev::Match)) << "seq " << seq;
    EXPECT_TRUE(has_kind(chain, obs::trace::Ev::Complete)) << "seq " << seq;
    // The chain spans both sides of the wire.
    std::set<std::int32_t> ranks;
    for (const auto& e : chain) ranks.insert(e.rank);
    EXPECT_GE(ranks.size(), 2u) << "seq " << seq;
  }

  std::ostringstream os;
  obs::trace::export_chrome_json(os, events);
  const std::string json = os.str();
  EXPECT_TRUE(parses(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  // The instant-event stream is sorted: ts values are non-decreasing.
  double prev_ts = -1.0;
  std::size_t instants = 0;
  for (std::size_t pos = json.find("\"ph\":\"i\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"i\"", pos + 1)) {
    const std::size_t t = json.find("\"ts\":", pos);
    ASSERT_NE(t, std::string::npos);
    const double ts = std::strtod(json.c_str() + t + 5, nullptr);
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
    ++instants;
  }
  EXPECT_EQ(instants, events.size());

  // One async begin/end pair per message id.
  std::size_t begins = 0, ends = 0;
  for (std::size_t pos = json.find("\"ph\":\"b\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"b\"", pos + 1)) {
    ++begins;
  }
  for (std::size_t pos = json.find("\"ph\":\"e\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"e\"", pos + 1)) {
    ++ends;
  }
  EXPECT_EQ(begins, chains.size());
  EXPECT_EQ(ends, chains.size());
}

// Each message kind's exact trace chain: per rank, the kinds of the events
// recorded under the message's seq, in the order that rank recorded them.
// Every case sends one message after its setup, so one new chain appears.
struct ChainCase {
  const char* name;
  DeviceKind device;
  const char* netmod;
  int bytes;  // above 64 takes the rendezvous path
  enum class Send { Blocking, AllOpts } send;
  enum class Recv { PostedFirst, Unexpected, Strided, NoMatch } recv;
  const char* sender;    // rank 0's kinds
  const char* receiver;  // rank 1's kinds
};

std::string kinds_of(const std::vector<obs::trace::Event>& chain, Rank rank) {
  std::string out;
  for (const auto& e : chain) {
    if (e.rank != rank) continue;
    if (!out.empty()) out += ' ';
    out += obs::trace::to_string(e.kind);
  }
  return out;
}

TEST(Trace, EveryMessageKindRecordsItsExactChain) {
  using S = ChainCase::Send;
  using R = ChainCase::Recv;
  const ChainCase cases[] = {
      {"eager, receive posted first", DeviceKind::Ch4, "mailbox", 8, S::Blocking,
       R::PostedFirst, "send-post inject complete", "deliver match complete"},
      {"eager, arriving unexpected", DeviceKind::Ch4, "mailbox", 8, S::Blocking, R::Unexpected,
       "send-post inject complete", "deliver match complete"},
      {"staged rendezvous on mailbox", DeviceKind::Ch4, "mailbox", 4096, S::Blocking,
       R::Strided, "send-post inject deliver inject complete",
       "deliver match inject deliver complete"},
      {"zero-copy rendezvous on rdma", DeviceKind::Ch4, "rdma", 4096, S::Blocking,
       R::PostedFirst, "send-post inject deliver zcopy-write inject complete",
       "deliver match inject deliver complete"},
      {"isend_all_opts", DeviceKind::Ch4, "mailbox", 8, S::AllOpts, R::NoMatch,
       "send-post inject complete", "deliver match complete"},
      {"orig-device eager", DeviceKind::Orig, "mailbox", 8, S::Blocking, R::PostedFirst,
       "send-post complete inject", "deliver match complete"},
  };
  for (const ChainCase& c : cases) {
    SCOPED_TRACE(c.name);
    WorldOptions o = test::fast_opts(c.device);
    o.build.trace = true;
    o.netmod = c.netmod;
    o.eager_threshold = 64;
    World w(2, o);
    const Comm comm = c.send == S::AllOpts ? kComm1 : kCommWorld;
    if (c.send == S::AllOpts) {
      // Collective setup, traced too: its chains are left out below.
      w.run([](Engine& e) {
        ASSERT_EQ(e.comm_dup_predefined(kCommWorld, kComm1), Err::Success);
      });
    }
    const auto setup = by_seq(w.trace_events());
    std::atomic<bool> ready{false};  // the receive is posted, or the send is out
    w.run([&](Engine& e) {
      const bool recv_first = c.recv != R::Unexpected;
      if (e.world_rank() == 0) {
        std::vector<char> out(static_cast<std::size_t>(c.bytes), 's');
        if (recv_first) {
          while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
        }
        if (c.send == S::AllOpts) {
          ASSERT_EQ(e.isend_all_opts(out.data(), c.bytes, kChar, 1, comm), Err::Success);
        } else {
          ASSERT_EQ(e.send(out.data(), c.bytes, kChar, 1, 5, comm), Err::Success);
        }
        ready.store(true, std::memory_order_release);
        return;
      }
      // Strided receives land every other int of a twice-as-large buffer.
      std::vector<char> in(2 * static_cast<std::size_t>(c.bytes), 0);
      Datatype dt = kChar;
      int count = c.bytes;
      if (c.recv == R::Strided) {
        ASSERT_EQ(e.type_vector(c.bytes / 4, 1, 2, kInt, &dt), Err::Success);
        ASSERT_EQ(e.type_commit(&dt), Err::Success);
        count = 1;
      }
      if (c.recv == R::Unexpected) {
        while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
        bool flag = false;
        while (!flag) ASSERT_EQ(e.iprobe(0, 5, comm, &flag, nullptr), Err::Success);
      }
      Request r = kRequestNull;
      if (c.recv == R::NoMatch) {
        ASSERT_EQ(e.irecv_nomatch(in.data(), count, dt, comm, &r), Err::Success);
      } else {
        ASSERT_EQ(e.irecv(in.data(), count, dt, 0, 5, comm, &r), Err::Success);
      }
      ready.store(true, std::memory_order_release);
      ASSERT_EQ(e.wait(&r, nullptr), Err::Success);
      EXPECT_EQ(in[0], 's');
      if (c.recv == R::Strided) {
        EXPECT_EQ(e.type_free(&dt), Err::Success);
      }
    });
    auto chains = by_seq(w.trace_events());
    for (const auto& [seq, chain] : setup) chains.erase(seq);
    ASSERT_EQ(chains.size(), 1u);
    const auto& chain = chains.begin()->second;
    EXPECT_EQ(kinds_of(chain, 0), c.sender);
    EXPECT_EQ(kinds_of(chain, 1), c.receiver);
  }
}

TEST(Trace, DisabledByDefaultRecordsNothing) {
  WorldOptions o = test::fast_opts();  // build.trace defaults to false
  World w(2, o);
  w.run([&](Engine& e) {
    int v = 2;
    if (e.world_rank() == 0) {
      e.send(&v, 1, kInt, 1, 0, kCommWorld);
    } else {
      e.recv(&v, 1, kInt, 0, 0, kCommWorld, nullptr);
    }
  });
  EXPECT_TRUE(w.trace_events().empty());
  for (const auto* ring : w.trace_rings()) EXPECT_EQ(ring->capacity(), 0u);  // nothing allocated
}

// Each rank counts only the events its own channels overwrote: rank 0
// overflows its ring with all-opts sends (three events each) into a
// blackhole, rank 1 records nothing.
TEST(Trace, DroppedEventsSurfaceThroughPvar) {
  WorldOptions o = test::fast_opts();
  o.build.trace = true;
  o.profile = net::infinite();  // blackhole: no receive-side events
  World w(2, o);
  Engine& e0 = w.engine(0);
  EXPECT_EQ(read_pvar(e0, "trace_events_dropped"), 0u);
  const int v = 1;
  for (std::size_t i = 0; i < obs::trace::kRingCapacity / 3 + 100; ++i) {
    ASSERT_EQ(e0.isend_all_opts(&v, 1, kInt, 1, kCommWorld), Err::Success);
  }
  EXPECT_GE(read_pvar(e0, "trace_events_dropped"), 100u);
  EXPECT_EQ(read_pvar(w.engine(1), "trace_events_dropped"), 0u);
}

// A ring pass of `n` ranks in `w`: every rank sends one message tagged `tag`.
void ring_pass(World& w, int tag) {
  w.run([&](Engine& e) {
    const int n = e.world_size();
    const Rank me = e.world_rank();
    int out = me, in = -1;
    ASSERT_EQ(e.sendrecv(&out, 1, kInt, (me + 1) % n, tag, &in, 1, kInt, (me + n - 1) % n, tag,
                         kCommWorld, nullptr),
              Err::Success);
  });
}

std::set<std::int32_t> tags_of(const std::vector<obs::trace::Event>& events) {
  std::set<std::int32_t> tags;
  for (const auto& e : events) {
    if (e.kind == obs::trace::Ev::SendPost) tags.insert(e.tag);
  }
  return tags;
}

// Trace rings belong to their World: a second World, traced after the first
// is gone, exports only its own messages, in memory and in its causal file.
TEST(Trace, SecondWorldExportsOnlyItsOwnEvents) {
  const std::string path = ::testing::TempDir() + "lwmpi_obs_second_world.jsonl";
  WorldOptions o = test::fast_opts();
  o.build.trace = true;
  o.causal_trace_path = path;
  for (const int tag : {1, 2}) {
    SCOPED_TRACE(tag);
    std::size_t held = 0;
    {
      World w(4, o);
      ring_pass(w, tag);
      const std::vector<obs::trace::Event> events = w.trace_events();
      EXPECT_EQ(tags_of(events), std::set<std::int32_t>{tag});
      EXPECT_EQ(by_seq(events).size(), 4u);
      held = events.size();
    }
    std::ifstream f(path);
    std::vector<obs::trace::Event> saved;
    std::string err;
    ASSERT_TRUE(obs::causal::parse_jsonl(f, &saved, &err)) << err;
    EXPECT_EQ(saved.size(), held);
    EXPECT_EQ(tags_of(saved), std::set<std::int32_t>{tag});
  }
}

// Two run() calls on one World write into the same rings, one per (rank,
// channel), and are collected together.
TEST(Trace, RunsOfOneWorldShareItsRings) {
  WorldOptions o = test::fast_opts();
  o.build.trace = true;
  World w(4, o);
  const std::vector<const obs::Ring<obs::trace::Event>*> rings = w.trace_rings();
  ASSERT_EQ(rings.size(), static_cast<std::size_t>(4 * o.build.vcis()));
  ring_pass(w, 1);
  const std::size_t after_one = w.trace_events().size();
  ring_pass(w, 2);
  EXPECT_EQ(w.trace_rings(), rings);
  const std::vector<obs::trace::Event> events = w.trace_events();
  EXPECT_EQ(events.size(), 2 * after_one);
  EXPECT_EQ(tags_of(events), (std::set<std::int32_t>{1, 2}));
  EXPECT_EQ(by_seq(events).size(), 8u);  // seqs stay unique across runs
}

// --- stats report ------------------------------------------------------------

TEST(StatsReport, TextAndJsonForms) {
  WorldOptions o = test::fast_opts();
  o.build.lat_sample_shift = 0;  // stamp every message: latency block is populated
  World w(2, o);
  w.run([&](Engine& e) {
    int v = 9;
    if (e.world_rank() == 0) {
      e.send(&v, 1, kInt, 1, 0, kCommWorld);
    } else {
      e.recv(&v, 1, kInt, 0, 0, kCommWorld, nullptr);
    }
  });
  const std::string text = w.stats_report(false);
  EXPECT_NE(text.find("rank 0"), std::string::npos);
  EXPECT_NE(text.find("vci_sends_eager"), std::string::npos);
  EXPECT_NE(text.find("mpich/ch4"), std::string::npos);
  EXPECT_NE(text.find("lat[send_eager]"), std::string::npos);

  const std::string json = w.stats_report(true);
  EXPECT_TRUE(parses(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"vci_sends_eager\""), std::string::npos);
  EXPECT_NE(json.find("\"nranks\":2"), std::string::npos);
  EXPECT_NE(json.find("\"device\":\"mpich/ch4\""), std::string::npos);
  // Per-(device, path) latency block: every instrumented path appears with
  // count/p50/p99/max, and the traffic above lands in the eager paths.
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
  for (std::size_t p = 0; p < obs::kNumLatPaths; ++p) {
    const std::string key =
        '"' + std::string(obs::to_string(static_cast<obs::LatPath>(p))) + "\":{\"count\":";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_ns\":"), std::string::npos);
}

}  // namespace
}  // namespace lwmpi
