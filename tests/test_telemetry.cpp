// Telemetry plane (obs/cvar.hpp + obs/sampler.hpp): cvar registry semantics
// (enumeration, scope enforcement, env binding), histogram snapshot/delta
// boundary behavior, the sampler time series and its JSONL export, the
// watchdog timeline embed, and -- under the "telemetry" label the TSan preset
// includes -- the races that matter: sampler start/stop against hot rank
// threads, ring overwrite under a 4-VCI send loop, and cvar mutation mid-run.
//
// Cvars are process-global, so every test that writes one saves and restores
// it; the env-binding test ends with a reload that re-seeds pure defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/cvar.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/pvar.hpp"
#include "obs/sampler.hpp"
#include "obs/watchdog.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

// RAII save/restore for one numeric cvar (value only; the overridden flag is
// sticky by design, and every restore below writes the pre-test value back so
// later Startup consumers see unchanged numbers).
class CvarGuard {
 public:
  explicit CvarGuard(obs::Cv v) : v_(v), saved_(obs::cvar(v)) {}
  ~CvarGuard() { obs::cvar_set(v_, saved_); }

 private:
  obs::Cv v_;
  std::int64_t saved_;
};

using test::read_pvar;

// --- cvar registry ----------------------------------------------------------

TEST(Cvar, RegistryEnumerates) {
  ASSERT_EQ(obs::LWMPI_T_cvar_num(), obs::kNumCvars);
  std::set<std::string> names;
  for (int i = 0; i < obs::kNumCvars; ++i) {
    obs::CvarInfo info;
    ASSERT_EQ(obs::LWMPI_T_cvar_get_info(i, &info), Err::Success);
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.desc.empty());
    EXPECT_TRUE(names.insert(std::string(info.name)).second)
        << "duplicate cvar name " << info.name;
    // Name -> index is the inverse of get_info.
    EXPECT_EQ(obs::LWMPI_T_cvar_index(info.name), i);
  }
  EXPECT_TRUE(names.count("sampler_interval_ms"));
  EXPECT_TRUE(names.count("netmod_default"));
  // The SLO thresholds are gone with the rule engine that read them.
  for (const char* gone : {"slo_credit_stall_pct", "slo_unexpected_depth",
                           "slo_unexpected_growth", "slo_progress_idle_pct"}) {
    EXPECT_EQ(obs::LWMPI_T_cvar_index(gone), -1) << gone;
  }

  obs::CvarInfo info;
  EXPECT_EQ(obs::LWMPI_T_cvar_get_info(-1, &info), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_get_info(obs::kNumCvars, &info), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_get_info(0, nullptr), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_index("no_such_cvar"), -1);

  std::int64_t v = 0;
  EXPECT_EQ(obs::LWMPI_T_cvar_read(-1, &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_read(obs::kNumCvars, &v), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_read(0, nullptr), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_write(obs::kNumCvars, 1), Err::Arg);
}

TEST(Cvar, ScopeAndTypeEnforcement) {
  // Constant scope: readable echo of kMaxVcis, writes rejected.
  const int max_vcis = obs::LWMPI_T_cvar_index("max_vcis");
  ASSERT_GE(max_vcis, 0);
  std::int64_t v = 0;
  ASSERT_EQ(obs::LWMPI_T_cvar_read(max_vcis, &v), Err::Success);
  EXPECT_EQ(v, kMaxVcis);
  EXPECT_EQ(obs::LWMPI_T_cvar_write(max_vcis, 99), Err::Arg);
  ASSERT_EQ(obs::LWMPI_T_cvar_read(max_vcis, &v), Err::Success);
  EXPECT_EQ(v, kMaxVcis);

  // String/numeric access must not cross.
  const int netmod = obs::LWMPI_T_cvar_index("netmod_default");
  const int interval = obs::LWMPI_T_cvar_index("sampler_interval_ms");
  ASSERT_GE(netmod, 0);
  ASSERT_GE(interval, 0);
  EXPECT_EQ(obs::LWMPI_T_cvar_write(netmod, 3), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_read(netmod, &v), Err::Arg);
  std::string s;
  EXPECT_EQ(obs::LWMPI_T_cvar_read_str(interval, &s), Err::Arg);
  EXPECT_EQ(obs::LWMPI_T_cvar_write_str(interval, "fast"), Err::Arg);

  // String round-trip through the MPI_T-style surface and the typed helper.
  const std::string saved = obs::cvar_str(obs::Cv::NetmodDefault);
  ASSERT_EQ(obs::LWMPI_T_cvar_write_str(netmod, "rdma"), Err::Success);
  ASSERT_EQ(obs::LWMPI_T_cvar_read_str(netmod, &s), Err::Success);
  EXPECT_EQ(s, "rdma");
  EXPECT_EQ(obs::cvar_str(obs::Cv::NetmodDefault), "rdma");
  EXPECT_TRUE(obs::cvar_overridden(obs::Cv::NetmodDefault));
  ASSERT_EQ(obs::LWMPI_T_cvar_write_str(netmod, saved), Err::Success);

  // The report lists every cvar by name.
  const std::string report = obs::cvar_report();
  EXPECT_NE(report.find("sampler_interval_ms"), std::string::npos);
  EXPECT_NE(report.find("max_vcis"), std::string::npos);
  EXPECT_NE(report.find("constant"), std::string::npos);
}

TEST(Cvar, EnvBinding) {
  EXPECT_EQ(obs::cvar_env_name(obs::Cv::SamplerIntervalMs),
            "LWMPI_CVAR_SAMPLER_INTERVAL_MS");

  ::setenv("LWMPI_CVAR_SAMPLER_INTERVAL_MS", "37", 1);
  ::setenv("LWMPI_CVAR_RECORD_RING_DEPTH", "junk", 1);    // ignored: not numeric
  ::setenv("LWMPI_CVAR_WATCHDOG_POLL_MS", "12x", 1);       // ignored: trailing junk
  ::setenv("LWMPI_CVAR_MAX_VCIS", "99", 1);                // ignored: Constant scope
  obs::detail::cvar_reload_env_for_testing();

  EXPECT_EQ(obs::cvar(obs::Cv::SamplerIntervalMs), 37);
  EXPECT_TRUE(obs::cvar_overridden(obs::Cv::SamplerIntervalMs));
  EXPECT_EQ(obs::cvar(obs::Cv::RecordRingDepth), 1024);
  EXPECT_FALSE(obs::cvar_overridden(obs::Cv::RecordRingDepth));
  EXPECT_EQ(obs::cvar(obs::Cv::WatchdogPollMs), 20);
  EXPECT_FALSE(obs::cvar_overridden(obs::Cv::WatchdogPollMs));
  EXPECT_EQ(obs::cvar(obs::Cv::MaxVcis), kMaxVcis);
  EXPECT_FALSE(obs::cvar_overridden(obs::Cv::MaxVcis));

  // Dropping the binding restores the default on the next reload (and wipes
  // any overridden flags earlier tests left behind -- deliberate hygiene).
  ::unsetenv("LWMPI_CVAR_SAMPLER_INTERVAL_MS");
  ::unsetenv("LWMPI_CVAR_RECORD_RING_DEPTH");
  ::unsetenv("LWMPI_CVAR_WATCHDOG_POLL_MS");
  ::unsetenv("LWMPI_CVAR_MAX_VCIS");
  obs::detail::cvar_reload_env_for_testing();
  EXPECT_EQ(obs::cvar(obs::Cv::SamplerIntervalMs), 100);
  EXPECT_FALSE(obs::cvar_overridden(obs::Cv::SamplerIntervalMs));
}

// --- histogram snapshot/delta -----------------------------------------------

TEST(Histogram, SnapshotDeltaBoundaries) {
  // Bucket 0 is unreachable: record(0) lands in bucket 1 (the |1 floor), so
  // delta arithmetic never has to treat bucket 0 specially.
  EXPECT_EQ(obs::LatencyHist::bucket_of(0), 1);
  EXPECT_EQ(obs::LatencyHist::bucket_of(1), 1);
  EXPECT_EQ(obs::LatencyHist::bucket_of(2), 2);
  // Top bucket clamps: anything >= 2^47 ns.
  EXPECT_EQ(obs::LatencyHist::bucket_of(std::uint64_t{1} << 47), obs::kLatBuckets - 1);
  EXPECT_EQ(obs::LatencyHist::bucket_of(~std::uint64_t{0}), obs::kLatBuckets - 1);

  obs::LatencyHist h;
  h.record(0);
  h.record(~std::uint64_t{0});
  const obs::LatSnapshot before = h.snapshot();
  EXPECT_EQ(before.count, 2u);
  EXPECT_EQ(before.bucket[1], 1u);
  EXPECT_EQ(before.bucket[obs::kLatBuckets - 1], 1u);
  EXPECT_EQ(before.max_ns, ~std::uint64_t{0});

  h.record(1000);
  h.record(0);  // bucket 1 again: delta at the bottom boundary
  const obs::LatSnapshot after = h.snapshot();
  const obs::LatSnapshot d = after.delta(before);
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.bucket[1], 1u);
  EXPECT_EQ(d.bucket[obs::LatencyHist::bucket_of(1000)], 1u);
  EXPECT_EQ(d.bucket[obs::kLatBuckets - 1], 0u);
  // max_ns keeps the newer (cumulative) value: an upper bound for the clamp.
  EXPECT_EQ(d.max_ns, after.max_ns);

  // Saturating subtraction: a stale "newer" snapshot can never wrap.
  const obs::LatSnapshot swapped = before.delta(after);
  EXPECT_EQ(swapped.bucket[obs::LatencyHist::bucket_of(1000)], 0u);

  // Percentile on the delta reflects only the interval's samples.
  EXPECT_LE(d.percentile(0.5), 1u);
  EXPECT_GE(d.percentile(1.0), 512u);  // the 1000ns sample's bucket bound
}

// --- sampler time series ----------------------------------------------------

TEST(Sampler, TicksHistoryAndSequence) {
  CvarGuard g(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 1000);  // keep the thread quiet
  World w(2, test::fast_opts());
  obs::Sampler sampler(w);

  w.run([&](Engine& e) {
    int v = e.world_rank();
    if (e.world_rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(e.send(&v, 1, kInt, 1, i, kCommWorld), Err::Success);
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(e.recv(&v, 1, kInt, 0, i, kCommWorld, nullptr), Err::Success);
      }
    }
    e.barrier(kCommWorld);
    if (e.world_rank() == 0) sampler.sample_now();
    e.barrier(kCommWorld);
  });

  sampler.sample_now();
  EXPECT_GE(sampler.ticks(), 2u);
  for (Rank r = 0; r < 2; ++r) {
    const std::vector<obs::RankSample> hist = sampler.history(r);
    ASSERT_GE(hist.size(), 2u);
    for (std::size_t i = 1; i < hist.size(); ++i) {
      EXPECT_GT(hist[i].seq, hist[i - 1].seq);  // monotone tick numbers
      EXPECT_GE(hist[i].t_ns, hist[i - 1].t_ns);
    }
    for (const obs::RankSample& s : hist) {
      EXPECT_EQ(s.rank, r);
      EXPECT_EQ(s.interval_ns, 1000u * 1'000'000u);
      EXPECT_EQ(s.lanes.size(),
                static_cast<std::size_t>(w.engine(r).num_vcis()));
    }
  }
  // 50 sends happened between construction (baseline) and the first tick;
  // the cumulative raw baselines must have turned them into a nonzero rate
  // in at least one interval on the sending rank.
  double total_rate = 0.0;
  for (const obs::RankSample& s : sampler.history(0)) total_rate += s.sends_per_s;
  EXPECT_GT(total_rate, 0.0);
}

TEST(Sampler, RuntimeIntervalChangeVisibleInJsonl) {
  CvarGuard g(obs::Cv::SamplerIntervalMs);
  World w(1, test::fast_opts());
  obs::Sampler sampler(w);

  // Acceptance criterion: a runtime cvar write observably changes the
  // cadence recorded in the exported series. sample_now() echoes the live
  // cvar into interval_ns, so two writes must yield two distinct echoes.
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 10);
  sampler.sample_now();
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 40);
  sampler.sample_now();

  std::ostringstream os;
  sampler.export_jsonl(os);
  const std::string jsonl = os.str();
  EXPECT_NE(jsonl.find("\"interval_ns\":10000000"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"interval_ns\":40000000"), std::string::npos) << jsonl;

  // Every line is one JSON object for one (rank, interval).
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"rank\":0"), std::string::npos);
  }
  EXPECT_GE(n, 2u);
}

// A sample's rank-level queue depths are the sums of its lanes' depths.
void expect_lanes_sum_to_rank(const obs::RankSample& s) {
  std::uint64_t posted = 0;
  std::uint64_t unexpected = 0;
  for (const obs::LaneSample& l : s.lanes) {
    posted += l.posted_depth;
    unexpected += l.unexpected_depth;
  }
  EXPECT_EQ(posted, s.posted_depth) << "rank " << s.rank << " seq " << s.seq;
  EXPECT_EQ(unexpected, s.unexpected_depth) << "rank " << s.rank << " seq " << s.seq;
}

TEST(Sampler, SampleShowsUnmatchedMessages) {
  CvarGuard g(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 1000);
  World w(2, test::fast_opts());
  obs::Sampler sampler(w);

  w.run([&](Engine& e) {
    std::uint64_t v = 7;
    if (e.world_rank() == 0) {
      // Three eager sends rank 1 has not posted receives for: they must pile
      // up on its unexpected queue. Distinct last tag marks "all arrived"
      // (per-lane delivery is FIFO).
      ASSERT_EQ(e.send(&v, 1, kUint64, 1, 5, kCommWorld), Err::Success);
      ASSERT_EQ(e.send(&v, 1, kUint64, 1, 5, kCommWorld), Err::Success);
      ASSERT_EQ(e.send(&v, 1, kUint64, 1, 9, kCommWorld), Err::Success);
    } else {
      bool flag = false;
      while (!flag) {
        ASSERT_EQ(e.iprobe(0, 9, kCommWorld, &flag, nullptr), Err::Success);
        if (!flag) std::this_thread::yield();
      }
      sampler.sample_now();  // three messages wait on the unexpected queue
      ASSERT_EQ(e.recv(&v, 1, kUint64, 0, 5, kCommWorld, nullptr), Err::Success);
      ASSERT_EQ(e.recv(&v, 1, kUint64, 0, 5, kCommWorld, nullptr), Err::Success);
      ASSERT_EQ(e.recv(&v, 1, kUint64, 0, 9, kCommWorld, nullptr), Err::Success);
    }
    e.barrier(kCommWorld);
  });

  // Rank 1's retained sample shows the queue, and its lanes add up to it...
  const std::vector<obs::RankSample> hist = sampler.history(1);
  const auto hit = std::find_if(hist.begin(), hist.end(), [](const obs::RankSample& s) {
    return s.unexpected_depth >= 3;
  });
  ASSERT_NE(hit, hist.end());
  expect_lanes_sum_to_rank(*hit);

  // ...and its JSONL line carries the same depth.
  std::ostringstream os;
  sampler.export_jsonl(os);
  std::istringstream lines(os.str());
  bool in_jsonl = false;
  for (std::string line; std::getline(lines, line);) {
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(line, &v, &err)) << err << ": " << line;
    if (v["rank"].u64() != 1 || v["seq"].u64() != hit->seq) continue;
    in_jsonl = true;
    EXPECT_EQ(v["unexpected_depth"].u64(), hit->unexpected_depth) << line;
  }
  EXPECT_TRUE(in_jsonl);
}

TEST(Sampler, TeardownWritesJsonl) {
  // SamplerOptions::jsonl_path is the file `lwmpi top` reads; the destructor
  // writes it after its final sample.
  CvarGuard g(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 1000);
  obs::SamplerOptions so;
  so.jsonl_path = ::testing::TempDir() + "lwmpi_sampler_teardown.jsonl";
  {
    World w(2, test::fast_opts());
    obs::Sampler sampler(w, so);
    w.run([&](Engine& e) {
      int v = 1;
      for (int i = 0; i < 20; ++i) {
        if (e.world_rank() == 0) {
          ASSERT_EQ(e.send(&v, 1, kInt, 1, i, kCommWorld), Err::Success);
        } else {
          ASSERT_EQ(e.recv(&v, 1, kInt, 0, i, kCommWorld, nullptr), Err::Success);
        }
      }
    });
    sampler.sample_now();
  }

  // Every JSONL line parses and carries what `lwmpi top` requires; there is
  // one line per (rank, interval), and both ranks cover the same intervals.
  std::string text;
  ASSERT_TRUE(obs::json::read_file(so.jsonl_path, &text));
  std::remove(so.jsonl_path.c_str());
  const obs::json::Lines file = obs::json::split_lines(text);
  EXPECT_FALSE(file.truncated_tail);
  std::map<std::uint64_t, std::set<std::uint64_t>> seqs_by_rank;
  for (const std::string& line : file.lines) {
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(line, &v, &err)) << err << ": " << line;
    obs::json::Fields f(v, &err);
    const std::uint64_t rank = f.u64("rank");
    const std::uint64_t seq = f.u64("seq");
    ASSERT_TRUE(f.ok()) << err << ": " << line;
    EXPECT_TRUE(seqs_by_rank[rank].insert(seq).second) << "rank " << rank << " seq " << seq;
  }
  ASSERT_EQ(seqs_by_rank.size(), 2u);
  EXPECT_GE(seqs_by_rank[0].size(), 2u);  // sample_now plus the final sample
  EXPECT_EQ(seqs_by_rank[0], seqs_by_rank[1]);
  EXPECT_EQ(file.lines.size(), 2 * seqs_by_rank[0].size());
}

TEST(Sampler, WatchdogEmbedsTimeline) {
  CvarGuard g(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 20);
  WorldOptions o = test::fast_opts();
  o.build.lat_sample_shift = 0;
  World w(2, o);

  // Declaration order is the lifetime contract: the sampler must outlive the
  // watchdog that references it.
  obs::Sampler sampler(w);
  obs::WatchdogOptions wo;
  wo.stall_ns = 150'000'000;
  wo.poll_ns = 20'000'000;
  wo.sampler = &sampler;
  wo.timeline_depth = 8;
  obs::Watchdog wd(w, wo);

  w.run([&](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      ASSERT_EQ(e.send(&b, 1, kChar, 1, 7, kCommWorld), Err::Success);
      while (wd.fires() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ASSERT_EQ(e.send(&b, 1, kChar, 1, 42, kCommWorld), Err::Success);
    } else {
      ASSERT_EQ(e.recv(&b, 1, kChar, 0, 42, kCommWorld, nullptr), Err::Success);
    }
  });

  ASSERT_GE(wd.fires(), 1);
  const obs::HangReport r = wd.last_report();
  ASSERT_FALSE(r.timeline_json.empty());
  // The embed is the render_json(RankSample) array shape, and the sampler ran
  // long enough during the stall window to have recorded real intervals.
  EXPECT_EQ(r.timeline_json.front(), '[');
  EXPECT_EQ(r.timeline_json.back(), ']');
  EXPECT_NE(r.timeline_json.find("\"unexpected_depth\""), std::string::npos);
  // The hang JSON report carries it under "timeline" (`lwmpi hang --timeline`).
  const std::string json = obs::render_json(r);
  EXPECT_NE(json.find("\"timeline\":["), std::string::npos);
}

// --- sampler-vs-engine races (the TSan bucket) ------------------------------

// Hot 4-VCI traffic loop: both ranks dup the predefined comms and ping on
// every lane, the workload the sampler races against in the tests below.
// After each batch of `iters` rounds rank 0 asks `more()` and broadcasts the
// answer, so both ranks keep the lanes hot for the same number of batches.
// `round(i)` runs on every rank before round i of each batch.
template <class More, class Round>
void hot_vci_loop(Engine& e, int iters, More more, Round round) {
  const Comm comms[4] = {kComm1, kComm2, kComm3, kComm4};
  for (Comm c : comms) {
    ASSERT_EQ(e.comm_dup_predefined(kCommWorld, c), Err::Success);
  }
  std::uint64_t v = 0;
  for (int go = 1; go != 0;) {
    for (int i = 0; i < iters; ++i) {
      round(i);
      for (Comm c : comms) {
        if (e.world_rank() == 0) {
          ASSERT_EQ(e.send(&v, 1, kUint64, 1, 3, c), Err::Success);
          ASSERT_EQ(e.recv(&v, 1, kUint64, 1, 4, c, nullptr), Err::Success);
        } else {
          ASSERT_EQ(e.recv(&v, 1, kUint64, 0, 3, c, nullptr), Err::Success);
          ASSERT_EQ(e.send(&v, 1, kUint64, 0, 4, c), Err::Success);
        }
      }
    }
    if (e.world_rank() == 0) go = more() ? 1 : 0;
    ASSERT_EQ(e.bcast(&go, 1, kInt, 0, kCommWorld), Err::Success);
  }
}

template <class More>
void hot_vci_loop(Engine& e, int iters, More more) {
  hot_vci_loop(e, iters, more, [](int) {});
}

void hot_vci_loop(Engine& e, int iters) {
  hot_vci_loop(e, iters, [] { return false; });
}

TEST(SamplerRace, StartStopUnderLoad) {
  CvarGuard g(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 1);
  World w(2, test::fast_opts());

  // Construct and destroy samplers continuously while the rank threads are
  // hot: every ctor spawns a sampling thread that reads the engines' relaxed
  // counters, every dtor takes a final sample mid-traffic.
  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load(std::memory_order_acquire)) {
      obs::Sampler s(w);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      s.sample_now();
    }
  });

  w.run([&](Engine& e) { hot_vci_loop(e, 150); });
  done.store(true, std::memory_order_release);
  churn.join();
}

TEST(SamplerRace, RingOverwriteUnderHotVciLoad) {
  CvarGuard gi(obs::Cv::SamplerIntervalMs);
  CvarGuard gr(obs::Cv::SamplerRingDepth);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 1);
  obs::cvar_set(obs::Cv::SamplerRingDepth, 4);  // Startup: read at construction

  World w(2, test::fast_opts());
  obs::Sampler sampler(w);
  EXPECT_EQ(sampler.ring_depth(), 4u);

  // 400 rounds can finish inside 4ms on a fast host, so the lanes stay hot
  // in further batches until the sampler has ticked past the ring depth.
  w.run([&](Engine& e) { hot_vci_loop(e, 400, [&] { return sampler.ticks() <= 4; }); });

  // The 1ms cadence must have lapped the 4-deep ring: retention is bounded,
  // overwrite-oldest, and the survivors are the newest contiguous ticks.
  EXPECT_GT(sampler.ticks(), 4u);
  for (Rank r = 0; r < 2; ++r) {
    const std::vector<obs::RankSample> hist = sampler.history(r);
    ASSERT_LE(hist.size(), 4u);
    ASSERT_GE(hist.size(), 1u);
    for (std::size_t i = 1; i < hist.size(); ++i) {
      EXPECT_EQ(hist[i].seq, hist[i - 1].seq + 1);
    }
    // Each lane's depths are read once per tick, so the rank totals of a
    // sample taken under traffic are exactly its lanes' sums.
    for (const obs::RankSample& s : hist) expect_lanes_sum_to_rank(s);
  }
}

TEST(SamplerRace, CvarMutationMidRun) {
  CvarGuard gi(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 1);

  World w(2, test::fast_opts());
  obs::Sampler sampler(w);

  // Rank 0 retunes the sampler's runtime cvar from inside the run while the
  // sampling thread re-reads it every tick: the interval cadence flaps
  // between 1ms and 5ms. 300 rounds can finish before the first tick on a
  // fast host, so the batches repeat until the sampler has ticked.
  w.run([&](Engine& e) {
    const bool mutate = e.world_rank() == 0;
    hot_vci_loop(
        e, 300, [&] { return sampler.ticks() == 0; },
        [&](int i) {
          if (!mutate) return;
          obs::cvar_set(obs::Cv::SamplerIntervalMs, (i & 1) != 0 ? 5 : 1);
        });
  });

  EXPECT_GT(sampler.ticks(), 0u);
}

// --- fabric byte pvars -------------------------------------------------------

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

}  // namespace
}  // namespace lwmpi
