// Virtual communication interface tests: comm->channel mapping, cross-VCI
// isolation, multithreaded correctness with independent communicators
// driven simultaneously, the single-writer send-path statistics, per-peer
// latency sampling and the pooled packet's header reset (the concurrency
// suite runs these under TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/nek.hpp"
#include "apps/stencil.hpp"
#include "cost/model.hpp"
#include "runtime/packet.hpp"
#include "util.hpp"

using namespace lwmpi;

namespace {

constexpr int kNumThreads = 4;
const Comm kPredefined[kNumThreads] = {kComm1, kComm2, kComm3, kComm4};

// Collectively populate the four predefined communicator slots.
void dup_predefined(Engine& e) {
  for (Comm c : kPredefined) {
    ASSERT_EQ(e.comm_dup_predefined(kCommWorld, c), Err::Success);
  }
}

}  // namespace

TEST(Vci, PredefinedCommsPinToDistinctChannels) {
  test::spmd(2, [](Engine& e) {
    ASSERT_EQ(e.num_vcis(), 4);  // BuildConfig default
    EXPECT_EQ(e.vci_of(kCommWorld), 0);
    EXPECT_EQ(e.vci_of(kCommNull), -1);
    dup_predefined(e);
    std::vector<bool> seen(static_cast<std::size_t>(e.num_vcis()), false);
    for (Comm c : kPredefined) {
      const int v = e.vci_of(c);
      ASSERT_GE(v, 0);
      ASSERT_LT(v, e.num_vcis());
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)])
          << "two predefined comms share channel " << v;
      seen[static_cast<std::size_t>(v)] = true;
    }
    e.barrier(kCommWorld);
  });
}

TEST(Vci, SingleChannelBuildStillWorks) {
  WorldOptions o = test::fast_opts();
  o.build.num_vcis = 1;
  test::spmd(
      2,
      [](Engine& e) {
        ASSERT_EQ(e.num_vcis(), 1);
        dup_predefined(e);
        for (Comm c : kPredefined) EXPECT_EQ(e.vci_of(c), 0);
        int v = e.world_rank();
        int sum = 0;
        ASSERT_EQ(e.allreduce(&v, &sum, 1, kInt, ReduceOp::Sum, kComm3), Err::Success);
        EXPECT_EQ(sum, 1);
      },
      o);
}

// A message sent on one communicator must never satisfy a receive posted on a
// communicator living on a different channel -- matching state is per-VCI.
TEST(Vci, NoCrossChannelMatching) {
  test::spmd(2, [](Engine& e) {
    dup_predefined(e);
    ASSERT_NE(e.vci_of(kComm1), e.vci_of(kComm2));
    if (e.world_rank() == 0) {
      int payload = 42;
      ASSERT_EQ(e.send(&payload, 1, kInt, 1, 7, kComm1), Err::Success);
      e.barrier(kCommWorld);
    } else {
      int sink = 0;
      Request wrong = kRequestNull;
      // Wildcard receive on kComm2: compatible in (src, tag) but on the wrong
      // channel; it must stay posted.
      ASSERT_EQ(e.irecv(&sink, 1, kInt, kAnySource, kAnyTag, kComm2, &wrong),
                Err::Success);
      // Let the sender's packet arrive and sit in kComm1's unexpected queue.
      bool flag = false;
      Status st;
      while (!flag) {
        ASSERT_EQ(e.iprobe(kAnySource, kAnyTag, kComm1, &flag, &st), Err::Success);
      }
      EXPECT_EQ(st.tag, 7);
      bool wrong_flag = true;
      ASSERT_EQ(e.iprobe(kAnySource, kAnyTag, kComm2, &wrong_flag, nullptr), Err::Success);
      EXPECT_FALSE(wrong_flag);
      EXPECT_EQ(sink, 0);  // nothing was delivered to the kComm2 receive

      int got = 0;
      ASSERT_EQ(e.recv(&got, 1, kInt, 0, 7, kComm1, nullptr), Err::Success);
      EXPECT_EQ(got, 42);
      ASSERT_EQ(e.cancel(&wrong), Err::Success);
      ASSERT_EQ(e.wait(&wrong, nullptr), Err::Success);
      e.barrier(kCommWorld);
      // Every queue on every channel drained.
      for (int v = 0; v < e.num_vcis(); ++v) {
        EXPECT_EQ(e.posted_depth(v), 0u) << "vci " << v;
        EXPECT_EQ(e.unexpected_depth(v), 0u) << "vci " << v;
      }
    }
  });
}

// N threads per rank drive N independent communicators simultaneously: eager
// and rendezvous traffic, payload verification, then a clean drain.
TEST(Vci, MultithreadedIndependentComms) {
  constexpr int kRounds = 24;
  constexpr int kEagerInts = 256;                // 1 KiB: eager protocol
  constexpr int kRdvInts = 12 * 1024;            // 48 KiB: rendezvous protocol
  test::spmd(2, [](Engine& e) {
    dup_predefined(e);
    const int me = e.world_rank();
    std::vector<std::thread> threads;
    threads.reserve(kNumThreads);
    for (int t = 0; t < kNumThreads; ++t) {
      threads.emplace_back([&e, me, t] {
        const Comm c = kPredefined[t];
        std::vector<std::int32_t> eager(kEagerInts);
        std::vector<std::int32_t> rdv(kRdvInts);
        for (int round = 0; round < kRounds; ++round) {
          const std::int32_t stamp = t * 1000 + round;
          if (me == 0) {
            for (auto& x : eager) x = stamp;
            for (auto& x : rdv) x = stamp + 1;
            Request r[2] = {kRequestNull, kRequestNull};
            ASSERT_EQ(e.isend(eager.data(), kEagerInts, kInt, 1, round, c, &r[0]),
                      Err::Success);
            ASSERT_EQ(e.isend(rdv.data(), kRdvInts, kInt, 1, round, c, &r[1]),
                      Err::Success);
            ASSERT_EQ(e.waitall(r, {}), Err::Success);
          } else {
            Status st;
            ASSERT_EQ(e.recv(eager.data(), kEagerInts, kInt, 0, round, c, &st),
                      Err::Success);
            ASSERT_EQ(st.byte_count, kEagerInts * sizeof(std::int32_t));
            ASSERT_EQ(e.recv(rdv.data(), kRdvInts, kInt, 0, round, c, nullptr),
                      Err::Success);
            for (const auto& x : eager) ASSERT_EQ(x, stamp);
            for (const auto& x : rdv) ASSERT_EQ(x, stamp + 1);
          }
        }
        // Four concurrent barriers, one per channel.
        ASSERT_EQ(e.barrier(c), Err::Success);
      });
    }
    for (std::thread& th : threads) th.join();
    e.barrier(kCommWorld);
    for (int v = 0; v < e.num_vcis(); ++v) {
      EXPECT_EQ(e.posted_depth(v), 0u) << "vci " << v;
      EXPECT_EQ(e.unexpected_depth(v), 0u) << "vci " << v;
    }
    EXPECT_EQ(e.live_requests(), 0u);
  });
}

// The no-request extension tracks outstanding sends per communicator; the
// counter must drain through the owning channel.
TEST(Vci, NoreqSendsDrainPerChannel) {
  test::spmd(2, [](Engine& e) {
    dup_predefined(e);
    if (e.world_rank() == 0) {
      int v = 9;
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(e.isend_noreq(&v, 1, kInt, 1, i, kComm2), Err::Success);
      }
      ASSERT_EQ(e.comm_waitall(kComm2), Err::Success);
    } else {
      int got = 0;
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(e.recv(&got, 1, kInt, 0, i, kComm2, nullptr), Err::Success);
        EXPECT_EQ(got, 9);
      }
    }
    e.barrier(kCommWorld);
    EXPECT_EQ(e.live_requests(), 0u);
  });
}

// A reaped request's slot goes back to its channel's LIFO free list, and the
// next allocation resets it. So the thread that completes a request must read
// nothing of the slot after publishing `complete`: here a helper thread
// progresses rank 0 while rank 0 reaps each eager receive and at once takes
// the slot back with recv_init (the TSan preset runs this suite).
TEST(Vci, CompletionReadsNoSlotAfterPublishing) {
  constexpr int kMsgs = 10000;
  WorldOptions o = test::fast_opts();
  o.build.num_vcis = 1;
  o.build.lat_sample_shift = 0;  // every receive carries a post stamp
  test::spmd(
      2,
      [](Engine& e) {
        if (e.world_rank() == 1) {
          for (int i = 0; i < kMsgs; ++i) {
            ASSERT_EQ(e.send(&i, 1, kInt, 0, 0, kCommWorld), Err::Success);
          }
          return;
        }
        std::atomic<bool> stop{false};
        std::thread helper([&] {
          while (!stop.load(std::memory_order_acquire)) e.progress();
        });
        int got = -1;
        for (int i = 0; i < kMsgs; ++i) {
          Request r = kRequestNull;
          Request p = kRequestNull;
          if (e.irecv(&got, 1, kInt, 1, 0, kCommWorld, &r) != Err::Success ||
              e.wait(&r, nullptr) != Err::Success ||
              e.recv_init(&got, 1, kInt, 1, 0, kCommWorld, &p) != Err::Success ||
              e.request_free(&p) != Err::Success) {
            ADD_FAILURE() << "round " << i;
            break;
          }
          EXPECT_EQ(got, i);
        }
        stop.store(true, std::memory_order_release);
        helper.join();
      },
      o);
}

// The Lamport clock runs only in a traced world. Untraced, no packet carries
// a clock, so Fabric::poll never merges one and every rank's clock stays 0;
// the traced twin shows the same probe sees the clock when it runs. The send
// stamp follows the latency sample: at the default shift (6) ordinal 64 of
// rank 0's stream to rank 1 is sampled and stamped in both worlds, ordinal
// 32 is not, and only the traced world stamps it.
TEST(SingleWriter, UntracedWorldCarriesNoLamportClock) {
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    WorldOptions o = test::fast_opts();
    o.build.trace = traced;
    World w(2, o);
    std::uint64_t lclock = ~0ull, send_ns_32 = 0, send_ns_64 = ~0ull;
    w.run([&](Engine& e) {
      int v = 7;
      const auto round_trips = [&](int n) {
        for (int i = 0; i < n; ++i) {
          if (e.world_rank() == 0) {
            ASSERT_EQ(e.send(&v, 1, kInt, 1, 3, kCommWorld), Err::Success);
            ASSERT_EQ(e.recv(&v, 1, kInt, 1, 4, kCommWorld, nullptr), Err::Success);
          } else {
            ASSERT_EQ(e.recv(&v, 1, kInt, 0, 3, kCommWorld, nullptr), Err::Success);
            ASSERT_EQ(e.send(&v, 1, kInt, 0, 4, kCommWorld), Err::Success);
          }
        }
      };
      // One more eager message, which rank 1 takes straight off its fabric
      // lane (instead of through progress) to read the causal header.
      const auto probe = [&](std::uint64_t* send_ns) {
        if (e.world_rank() == 0) {
          ASSERT_EQ(e.send(&v, 1, kInt, 1, 9, kCommWorld), Err::Success);
        } else {
          net::Fabric& f = e.world().fabric();
          const int lane = e.vci_of(kCommWorld);
          rt::Packet* p = nullptr;
          while ((p = f.poll(1, lane)) == nullptr) std::this_thread::yield();
          lclock = p->hdr.lclock;
          *send_ns = p->hdr.send_ns;
          f.credit_return(1, lane);
          rt::PacketPool::free(p);
        }
      };
      round_trips(32);
      probe(&send_ns_32);  // ordinal 32 of rank 0's sends to rank 1
      round_trips(31);
      probe(&send_ns_64);  // ordinal 64
    });
    EXPECT_NE(send_ns_64, 0u);  // a sampled message is stamped in both worlds
    if (traced) {
      EXPECT_NE(send_ns_32, 0u);
      EXPECT_GT(lclock, 0u);
      EXPECT_GT(w.fabric().lclock(0), 0u);
      EXPECT_GT(w.fabric().lclock(1), 0u);
    } else {
      EXPECT_EQ(send_ns_32, 0u);  // an unsampled send reads no clock
      EXPECT_EQ(lclock, 0u);
      EXPECT_EQ(w.fabric().lclock(0), 0u);
      EXPECT_EQ(w.fabric().lclock(1), 0u);
    }
  }
}

// sends_issued, busy_instr and the blackhole drop count have one writer per
// channel and are summed on read, and requests_live is summed from the
// request pools: four threads on four channels must still account for every
// send exactly.
TEST(SingleWriter, BlackholeSendTotalsSumAcrossChannels) {
  constexpr int kSends = 2000;
  for (const char* netmod : {"mailbox", "rdma"}) {
    SCOPED_TRACE(netmod);
    WorldOptions o;
    o.profile = net::infinite();  // blackhole: every injection is dropped
    o.netmod = netmod;
    World w(1, o);
    const std::uint64_t send_instr = cost::modeled_isend_total(
        false, o.build.error_checking, o.build.thread_safety, o.build.ipo);
    w.run([&](Engine& e) {
      dup_predefined(e);
      ASSERT_EQ(e.num_vcis(), kNumThreads);
      const std::uint64_t sends0 = test::read_pvar(e, "sends_issued");
      const std::uint64_t dropped0 = e.world().fabric().dropped();
      std::vector<std::uint64_t> busy0;
      for (int v = 0; v < kNumThreads; ++v) busy0.push_back(e.vci_busy_instr(v));

      std::vector<std::thread> threads;
      for (Comm c : kPredefined) {
        threads.emplace_back([&e, c] {
          std::vector<Request> reqs(kSends, kRequestNull);
          const char b = 1;
          for (Request& r : reqs) ASSERT_EQ(e.isend(&b, 1, kChar, 0, 0, c, &r), Err::Success);
          ASSERT_EQ(e.waitall(reqs, {}), Err::Success);
        });
      }
      for (std::thread& th : threads) th.join();

      EXPECT_EQ(test::read_pvar(e, "sends_issued") - sends0,
                std::uint64_t{kNumThreads} * kSends);
      EXPECT_EQ(e.world().fabric().dropped() - dropped0, std::uint64_t{kNumThreads} * kSends);
      for (Comm c : kPredefined) {
        const int v = e.vci_of(c);
        EXPECT_EQ(e.vci_busy_instr(v) - busy0[static_cast<std::size_t>(v)], kSends * send_instr)
            << "vci " << v;
      }
      EXPECT_EQ(test::read_pvar(e, "requests_live"), 0u);
    });
  }
}

namespace {

// Every wait-state classification a rank recorded, over all five causes.
std::uint64_t classified_waits(Engine& e) {
  std::uint64_t n = 0;
  for (const char* name : {"wait_late_sender_count", "wait_late_receiver_count",
                           "wait_progress_starved_count", "wait_credit_stalled_count",
                           "wait_reg_cache_miss_count"}) {
    n += test::read_pvar(e, name);
  }
  return n;
}

}  // namespace

// Sampling is per (channel, peer) stream, so both ends of a ping-pong sample
// the same messages: each rank samples 640 / 64 = 10 of its sends and 10 of
// its receives, and every sampled receive meets a send-stamped packet and
// classifies its wait. One tick per channel sampled only rank 0's sends and
// rank 1's receives, because each channel alternated one send and one post.
TEST(Sampling, PingPongSamplesBothDirections) {
  constexpr int kRoundTrips = 640;
  World w(2, test::fast_opts());
  w.run([&](Engine& e) {
    char b = 0;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (e.world_rank() == 0) {
        ASSERT_EQ(e.send(&b, 1, kChar, 1, 0, kCommWorld), Err::Success);
        ASSERT_EQ(e.recv(&b, 1, kChar, 1, 0, kCommWorld, nullptr), Err::Success);
      } else {
        ASSERT_EQ(e.recv(&b, 1, kChar, 0, 0, kCommWorld, nullptr), Err::Success);
        ASSERT_EQ(e.send(&b, 1, kChar, 0, 0, kCommWorld), Err::Success);
      }
    }
  });
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE(r);
    Engine& e = w.engine(r);
    EXPECT_EQ(test::read_pvar(e, "lat_send_eager_count"), 10u);
    EXPECT_EQ(test::read_pvar(e, "lat_recv_eager_count"), 10u);
    EXPECT_EQ(classified_waits(e), 10u);
  }
}

// The stencil and Nek CG kernels post their receives in send order, so at
// the default shift (almost) every sampled receive classifies its wait.
TEST(Sampling, StencilAndCgClassifyTheirSampledReceives) {
  constexpr int kRanks = 4;
  World w(kRanks, test::fast_opts());
  w.run([&](Engine& e) {
    apps::StencilConfig s;
    s.nx = s.ny = 32;
    s.px = s.py = 2;
    s.iters = 400;
    EXPECT_TRUE(apps::run_stencil(e, kCommWorld, s).converged_layout);
    apps::NekConfig n;
    n.elems_total = 16;
    n.cg_iters = 150;
    EXPECT_TRUE(apps::run_nek_cg(e, kCommWorld, n).valid);
  });
  std::uint64_t sampled = 0, classified = 0;
  for (int r = 0; r < kRanks; ++r) {
    sampled += test::read_pvar(w.engine(r), "lat_recv_eager_count");
    classified += classified_waits(w.engine(r));
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_GE(classified * 100, sampled * 95) << classified << " of " << sampled;
}

// A recycled packet comes back with the header of a fresh one: every field
// equals that of a value-initialized PacketHeader.
TEST(PacketPool, AllocReturnsAZeroedHeader) {
  rt::PacketPool::tl_drain();
  rt::Packet* p = rt::PacketPool::alloc();
  rt::PacketHeader& h = p->hdr;
  h.kind = rt::PacketKind::RdvDone;
  h.match_mode = rt::MatchMode::ArrivalOrder;
  h.vci = 3;
  h.op = 4;
  h.ctx = 5;
  h.src_comm_rank = 6;
  h.src_world = 7;
  h.tag = 8;
  h.total_bytes = 9;
  h.offset = 10;
  h.origin_req = 11;
  h.target_req = 12;
  h.win_id = 13;
  h.dt = kInt;
  h.dt_count = 14;
  h.lock_type = 15;
  h.seq = 16;
  h.rkey = 17;
  h.zcopy = 1;
  h.sampled = 1;
  h.send_ns = 18;
  h.lclock = 19;
  h.stall_ns = 20;
  rt::PacketPool::free(p);
  rt::Packet* q = rt::PacketPool::alloc();
  ASSERT_EQ(q, p);  // the same packet, taken back from this thread's pool
  const rt::PacketHeader& g = q->hdr;
  const rt::PacketHeader z{};
  EXPECT_EQ(g.kind, z.kind);
  EXPECT_EQ(g.match_mode, z.match_mode);
  EXPECT_EQ(g.vci, z.vci);
  EXPECT_EQ(g.op, z.op);
  EXPECT_EQ(g.ctx, z.ctx);
  EXPECT_EQ(g.src_comm_rank, z.src_comm_rank);
  EXPECT_EQ(g.src_world, z.src_world);
  EXPECT_EQ(g.tag, z.tag);
  EXPECT_EQ(g.total_bytes, z.total_bytes);
  EXPECT_EQ(g.offset, z.offset);
  EXPECT_EQ(g.origin_req, z.origin_req);
  EXPECT_EQ(g.target_req, z.target_req);
  EXPECT_EQ(g.win_id, z.win_id);
  EXPECT_EQ(g.dt, z.dt);
  EXPECT_EQ(g.dt_count, z.dt_count);
  EXPECT_EQ(g.lock_type, z.lock_type);
  EXPECT_EQ(g.seq, z.seq);
  EXPECT_EQ(g.rkey, z.rkey);
  EXPECT_EQ(g.zcopy, z.zcopy);
  EXPECT_EQ(g.sampled, z.sampled);
  EXPECT_EQ(g.send_ns, z.send_ns);
  EXPECT_EQ(g.lclock, z.lclock);
  EXPECT_EQ(g.stall_ns, z.stall_ns);
  rt::PacketPool::free(q);
}
