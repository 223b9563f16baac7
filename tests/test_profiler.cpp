// Aggregate profiler (obs/profiler.hpp): phase bucketing, per-callsite
// statistics on both netmods, the comm-matrix == fabric-byte-counter
// invariant, load-imbalance math on a deliberately skewed workload, phase
// misuse (pop-on-empty, depth and table overflow) staying warnings rather
// than crashes, and the artifact/report renderers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/netmod.hpp"
#include "obs/profile_load.hpp"
#include "obs/profiler.hpp"
#include "obs/pvar.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

WorldOptions prof_opts(const std::string& netmod = "mailbox") {
  WorldOptions o = test::fast_opts();
  o.netmod = netmod;
  o.prof = true;
  return o;
}

using test::read_pvar;

// --- phase regions ----------------------------------------------------------

TEST(Profiler, PhaseBucketing) {
  World w(2, prof_opts());
  obs::Profiler* p = w.profiler();
  ASSERT_NE(p, nullptr);

  // Phase 0 ("main"): 5 messages. Phase "halo": 9 messages. The counts must
  // land in separate buckets keyed by the innermost open phase.
  auto traffic = [](int n) {
    return [n](Engine& e) {
      std::uint64_t buf = 0;
      if (e.world_rank() == 0) {
        for (int i = 0; i < n; ++i) e.send(&buf, 1, kUint64, 1, 3, kCommWorld);
      } else {
        for (int i = 0; i < n; ++i) e.recv(&buf, 1, kUint64, 0, 3, kCommWorld, nullptr);
      }
    };
  };
  w.run(traffic(5));
  w.phase_push("halo");
  w.run(traffic(9));
  w.phase_pop();

  const int halo = p->intern_phase("halo");
  EXPECT_EQ(p->phase_name(0), "main");
  EXPECT_EQ(p->phase_name(halo), "halo");
  EXPECT_EQ(p->rank(0).site_count(0, obs::Callsite::Send), 5u);
  EXPECT_EQ(p->rank(0).site_count(halo, obs::Callsite::Send), 9u);
  EXPECT_EQ(p->rank(1).site_count(0, obs::Callsite::Recv), 5u);
  EXPECT_EQ(p->rank(1).site_count(halo, obs::Callsite::Recv), 9u);
  // 8-byte payloads: bytes bucket tracks the user payload per phase.
  EXPECT_EQ(p->rank(0).site_bytes(halo, obs::Callsite::Send), 9u * 8u);
  // Time accumulated in both phases.
  EXPECT_GT(p->rank(0).phase_time_ns(0), 0u);
  EXPECT_GT(p->rank(0).phase_time_ns(halo), 0u);
}

TEST(Profiler, EngineScopedPhase) {
  // Engine::phase_push scopes one rank only; the peer stays on phase 0.
  World w(2, prof_opts());
  obs::Profiler* p = w.profiler();
  ASSERT_NE(p, nullptr);
  w.run([](Engine& e) {
    std::uint64_t buf = 0;
    if (e.world_rank() == 0) {
      e.phase_push("senders");
      for (int i = 0; i < 4; ++i) e.send(&buf, 1, kUint64, 1, 3, kCommWorld);
      e.phase_pop();
    } else {
      for (int i = 0; i < 4; ++i) e.recv(&buf, 1, kUint64, 0, 3, kCommWorld, nullptr);
    }
  });
  const int ph = p->intern_phase("senders");
  EXPECT_EQ(p->rank(0).site_count(ph, obs::Callsite::Send), 4u);
  EXPECT_EQ(p->rank(0).site_count(0, obs::Callsite::Send), 0u);
  EXPECT_EQ(p->rank(1).site_count(0, obs::Callsite::Recv), 4u);
  EXPECT_EQ(p->rank(1).site_count(ph, obs::Callsite::Recv), 0u);
}

TEST(Profiler, PopOnEmptyWarnsNotCrashes) {
  World w(2, prof_opts());
  obs::Profiler* p = w.profiler();
  ASSERT_NE(p, nullptr);
  // Pop with nothing pushed: stays on phase 0, counts a warning per pop.
  w.phase_pop();
  w.phase_pop();
  EXPECT_EQ(p->rank(0).cur_phase(), 0);
  EXPECT_EQ(p->rank(0).pop_warnings(), 2u);
  EXPECT_EQ(p->rank(1).pop_warnings(), 2u);
  // Still fully functional afterwards.
  w.phase_push("after");
  EXPECT_EQ(p->rank(0).cur_phase(), p->intern_phase("after"));
  w.phase_pop();
  EXPECT_EQ(p->rank(0).cur_phase(), 0);
  EXPECT_EQ(p->rank(0).pop_warnings(), 2u);
  // The warning is surfaced as a pvar.
  EXPECT_EQ(read_pvar(w.engine(0), "prof_pop_warnings"), 2u);
}

TEST(Profiler, PhaseDepthAndTableOverflow) {
  World w(1, prof_opts());
  obs::Profiler* p = w.profiler();
  ASSERT_NE(p, nullptr);
  obs::RankProf& r0 = p->rank(0);
  // Exceeding the depth cap is counted, not crashed on; pops unwind cleanly.
  for (int i = 0; i < obs::kMaxPhaseDepth + 3; ++i) r0.phase_push("deep");
  EXPECT_EQ(r0.phase_depth(), obs::kMaxPhaseDepth);
  EXPECT_EQ(r0.pop_warnings(), 3u);
  for (int i = 0; i < obs::kMaxPhaseDepth; ++i) r0.phase_pop();
  EXPECT_EQ(r0.phase_depth(), 0);
  // Interning more than kMaxPhases names falls back to phase 0 and counts.
  for (int i = 0; i < obs::kMaxPhases + 4; ++i) {
    p->intern_phase("ph" + std::to_string(i));
  }
  EXPECT_EQ(p->num_phases(), obs::kMaxPhases);
  EXPECT_GT(p->phase_overflows(), 0u);
  EXPECT_EQ(p->intern_phase("one-more"), 0);
}

// --- per-callsite statistics ------------------------------------------------

void exercise_callsites(const std::string& netmod) {
  World w(2, prof_opts(netmod));
  obs::Profiler* p = w.profiler();
  ASSERT_NE(p, nullptr);
  constexpr int kMsgs = 6;
  constexpr int kCount = 32;  // 256B payloads
  w.run([](Engine& e) {
    std::uint64_t buf[kCount] = {};
    if (e.world_rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) e.send(buf, kCount, kUint64, 1, 3, kCommWorld);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        Request rq;
        e.irecv(buf, kCount, kUint64, 0, 3, kCommWorld, &rq);
        e.wait(&rq, nullptr);
      }
    }
    std::uint64_t in = 1;
    std::uint64_t out = 0;
    e.allreduce(&in, &out, 1, kUint64, ReduceOp::Sum, kCommWorld);
  });

  // Blocking send is isend+wait internally; outermost-wins means the user's
  // callsites are what's counted, exactly once each.
  EXPECT_EQ(p->rank(0).site_count(0, obs::Callsite::Send), static_cast<unsigned>(kMsgs))
      << netmod;
  EXPECT_EQ(p->rank(0).site_bytes(0, obs::Callsite::Send),
            static_cast<std::uint64_t>(kMsgs) * kCount * 8)
      << netmod;
  EXPECT_EQ(p->rank(0).site_count(0, obs::Callsite::Isend), 0u) << netmod;
  EXPECT_EQ(p->rank(1).site_count(0, obs::Callsite::Irecv), static_cast<unsigned>(kMsgs))
      << netmod;
  EXPECT_EQ(p->rank(1).site_count(0, obs::Callsite::Wait), static_cast<unsigned>(kMsgs))
      << netmod;
  EXPECT_EQ(p->rank(0).site_count(0, obs::Callsite::Allreduce), 1u) << netmod;
  EXPECT_EQ(p->rank(1).site_count(0, obs::Callsite::Allreduce), 1u) << netmod;
}

TEST(Profiler, CallsiteStatsMailbox) { exercise_callsites("mailbox"); }
TEST(Profiler, CallsiteStatsRdma) { exercise_callsites("rdma"); }

// A cell's time total is exact below 2^kProfSampleShift calls: 200 blocking
// sends on rank 0 and 200 blocking recvs on rank 1 each add up to about the
// wall time of the loop that made them (the loop body is the call alone),
// not to 2^kProfSampleShift times the cell's first call.
TEST(Profiler, ShortRunSiteTimesMatchWallClock) {
  constexpr int kMsgs = 200;
  static_assert(kMsgs < (1 << obs::kProfSampleShift));
  World w(2, prof_opts());
  std::uint64_t loop_ns[2] = {0, 0};
  w.run([&](Engine& e) {
    std::uint64_t buf = 0;
    const Rank me = e.world_rank();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMsgs; ++i) {
      if (me == 0) {
        ASSERT_EQ(e.send(&buf, 1, kUint64, 1, 3, kCommWorld), Err::Success);
      } else {
        ASSERT_EQ(e.recv(&buf, 1, kUint64, 0, 3, kCommWorld, nullptr), Err::Success);
      }
    }
    loop_ns[me] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0)
            .count());
  });
  const obs::Profiler* p = w.profiler();
  ASSERT_NE(p, nullptr);
  const auto site_ns = [p](Rank r, obs::Callsite site) {
    std::uint64_t t = 0;
    for (int v = 0; v < p->rank(r).nvcis(); ++v) {
      if (const obs::CallCell* c = p->rank(r).peek(0, site, v)) {
        t += c->time_ns.load(std::memory_order_relaxed);
      }
    }
    return t;
  };
  const std::pair<Rank, obs::Callsite> cells[] = {{0, obs::Callsite::Send},
                                                  {1, obs::Callsite::Recv}};
  for (const auto& [r, site] : cells) {
    SCOPED_TRACE(std::string(obs::to_string(site)));
    ASSERT_EQ(p->rank(r).site_count(0, site), static_cast<std::uint64_t>(kMsgs));
    const double ratio =
        static_cast<double>(site_ns(r, site)) / static_cast<double>(loop_ns[r]);
    EXPECT_GE(ratio, 0.5) << site_ns(r, site) << " ns in calls, " << loop_ns[r] << " ns loop";
    EXPECT_LE(ratio, 2.0) << site_ns(r, site) << " ns in calls, " << loop_ns[r] << " ns loop";
  }
}

// --- communication matrix ---------------------------------------------------

void exercise_matrix(const std::string& netmod, bool expect_zcopy) {
  WorldOptions o = prof_opts(netmod);
  o.ranks_per_node = 1;  // keep everything on the inter-node (netmod) path
  World w(2, o);
  obs::Profiler* p = w.profiler();
  ASSERT_NE(p, nullptr);
  // Mix of eager (small) and rendezvous (64KiB > 16KiB threshold) traffic.
  constexpr int kBig = 8192;  // 64KiB of uint64
  w.run([](Engine& e) {
    std::vector<std::uint64_t> big(kBig, 7);
    std::uint64_t small = 0;
    if (e.world_rank() == 0) {
      for (int i = 0; i < 10; ++i) e.send(&small, 1, kUint64, 1, 3, kCommWorld);
      for (int i = 0; i < 3; ++i) e.send(big.data(), kBig, kUint64, 1, 4, kCommWorld);
    } else {
      for (int i = 0; i < 10; ++i) e.recv(&small, 1, kUint64, 0, 3, kCommWorld, nullptr);
      for (int i = 0; i < 3; ++i) {
        e.recv(big.data(), kBig, kUint64, 0, 4, kCommWorld, nullptr);
      }
    }
  });

  const obs::CommMatrix& m = p->matrix();
  // Eager and rendezvous both present, in the right direction.
  EXPECT_GT(m.count(0, 1, obs::MsgClass::Eager), 0u) << netmod;
  EXPECT_GT(m.bytes(0, 1, obs::MsgClass::Eager), 0u) << netmod;
  EXPECT_GT(m.count(0, 1, obs::MsgClass::Rdv) + m.count(0, 1, obs::MsgClass::Zcopy), 0u)
      << netmod;
  EXPECT_EQ(m.count(1, 0, obs::MsgClass::Eager), 0u) << netmod;

  // THE invariant: the matrix is stamped at the same facade boundary where
  // the backends count injected payload bytes, so the totals match exactly.
  net::Fabric& f = w.fabric();
  std::uint64_t fabric_bytes = 0;
  std::uint64_t zcopy_bytes = 0;
  for (int r = 0; r < w.nranks(); ++r) {
    for (int v = 0; v < f.lanes_per_rank(); ++v) {
      fabric_bytes += f.injected_bytes(r, v);
    }
    zcopy_bytes += f.net_stat(net::NetStat::ZeroCopyBytes, r);
  }
  EXPECT_EQ(m.total_packet_bytes(), fabric_bytes) << netmod;
  EXPECT_EQ(m.total_zcopy_bytes(), zcopy_bytes) << netmod;
  if (expect_zcopy) {
    EXPECT_GT(m.total_zcopy_bytes(), 0u) << netmod;
  } else {
    EXPECT_EQ(m.total_zcopy_bytes(), 0u) << netmod;
  }

  // The matrix-derived pvars agree with the matrix itself.
  EXPECT_EQ(read_pvar(w.engine(0), "prof_tx_bytes"), m.tx_bytes(0));
  EXPECT_EQ(read_pvar(w.engine(1), "prof_rx_bytes"), m.rx_bytes(1));
  EXPECT_EQ(read_pvar(w.engine(0), "prof_tx_msgs"), m.tx_msgs(0));
  EXPECT_EQ(read_pvar(w.engine(0), "prof_zcopy_tx_bytes"),
            m.tx_bytes(0, /*include_zcopy=*/true) - m.tx_bytes(0));
}

TEST(Profiler, MatrixMatchesFabricMailbox) { exercise_matrix("mailbox", false); }
TEST(Profiler, MatrixMatchesFabricRdma) { exercise_matrix("rdma", true); }

// --- load-imbalance math ----------------------------------------------------

TEST(Profiler, ImbalanceMathOnSkewedWorkload) {
  // Drive the accumulators directly with known times: rank 0 spends 3000ns,
  // rank 1 spends 1000ns in phase "solve" -> max 3000, mean 2000, 1.5x.
  obs::Profiler p(2, 1);
  const int ph = p.intern_phase("solve");
  p.rank(0).cell(ph, obs::Callsite::Allreduce, 0).add(64, 3000);
  p.rank(1).cell(ph, obs::Callsite::Allreduce, 0).add(64, 1000);
  p.rank(0).cell(0, obs::Callsite::Send, 0).add(8, 500);  // phase "main"

  EXPECT_EQ(p.rank(0).phase_time_ns(ph), 3000u);
  EXPECT_EQ(p.rank(1).phase_time_ns(ph), 1000u);

  // Through the one profile renderer, on the artifact line the profiler writes.
  obs::Profile prof;
  std::string err;
  ASSERT_TRUE(obs::parse_profile(p.artifact_json("mailbox") + '\n', &prof, &err)) << err;
  const std::string text = obs::render_text(prof, /*color=*/false);
  EXPECT_NE(text.find("phase \"solve\": mpi time max=3.0us (rank 0) mean=2.0us"
                      " imbalance=1.50x"),
            std::string::npos)
      << text;
  // Each phase line is followed by that phase's own callsites.
  const std::size_t main_at = text.find("phase \"main\"");
  const std::size_t solve_at = text.find("phase \"solve\"");
  const std::size_t all_at = text.find("top callsites");
  ASSERT_LT(main_at, solve_at) << text;
  ASSERT_LT(solve_at, all_at) << text;
  const std::string main_lines = text.substr(main_at, solve_at - main_at);
  const std::string solve_lines = text.substr(solve_at, all_at - solve_at);
  EXPECT_NE(main_lines.find("\n  send "), std::string::npos) << text;
  EXPECT_EQ(main_lines.find("allreduce"), std::string::npos) << text;
  EXPECT_NE(solve_lines.find("\n  allreduce "), std::string::npos) << text;
  EXPECT_NE(solve_lines.find("time=4.0us"), std::string::npos) << text;
  EXPECT_EQ(solve_lines.find("send"), std::string::npos) << text;
}

TEST(Profiler, ReportOnSkewedTraffic) {
  // End-to-end: rank 0 sends 40 messages, rank 1 sends 2; the merged report
  // names a hot pair and the phase line reports imbalance >= 1.
  World w(2, prof_opts());
  w.run([](Engine& e) {
    std::uint64_t buf[16] = {};
    if (e.world_rank() == 0) {
      for (int i = 0; i < 40; ++i) e.send(buf, 16, kUint64, 1, 3, kCommWorld);
      for (int i = 0; i < 2; ++i) e.recv(buf, 16, kUint64, 1, 4, kCommWorld, nullptr);
    } else {
      for (int i = 0; i < 40; ++i) e.recv(buf, 16, kUint64, 0, 3, kCommWorld, nullptr);
      for (int i = 0; i < 2; ++i) e.send(buf, 16, kUint64, 0, 4, kCommWorld);
    }
  });
  const std::string text = w.profile_report();
  EXPECT_NE(text.find("phase \"main\""), std::string::npos) << text;
  EXPECT_NE(text.find("comm matrix hot spots"), std::string::npos) << text;
  EXPECT_NE(text.find("0 -> 1"), std::string::npos) << text;
  // Profiling off -> empty report, null profiler.
  World off(1, test::fast_opts());
  EXPECT_EQ(off.profiler(), nullptr);
  EXPECT_TRUE(off.profile_report().empty());
}

// --- artifact ---------------------------------------------------------------

TEST(Profiler, ArtifactWrittenAtTeardown) {
  const std::string path = ::testing::TempDir() + "lwmpi_test_profile.json";
  std::remove(path.c_str());
  {
    WorldOptions o = prof_opts();
    o.prof_path = path;
    World w(2, o);
    w.phase_push("io");
    w.run([](Engine& e) {
      std::uint64_t b = 0;
      if (e.world_rank() == 0) {
        e.send(&b, 1, kUint64, 1, 3, kCommWorld);
      } else {
        e.recv(&b, 1, kUint64, 0, 3, kCommWorld, nullptr);
      }
    });
    w.phase_pop();
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open()) << path;
  std::ostringstream body;
  body << f.rdbuf();
  const std::string s = body.str();
  EXPECT_NE(s.find("\"lwmpi_profile\":1"), std::string::npos);
  EXPECT_NE(s.find("\"phases\":[\"main\",\"io\"]"), std::string::npos) << s;
  EXPECT_NE(s.find("\"site\":\"send\""), std::string::npos);
  EXPECT_NE(s.find("\"matrix\":[{"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lwmpi
