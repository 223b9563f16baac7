// Telemetry plane (obs/sampler.hpp): histogram snapshot/delta boundary
// behavior, the sampler time series and its JSONL export, the watchdog
// timeline embed, and -- under the "telemetry" label the TSan preset
// includes -- the races that matter: sampler start/stop against hot rank
// threads, ring overwrite under a 4-VCI send loop, and two samplers at
// different intervals on one World.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/pvar.hpp"
#include "obs/sampler.hpp"
#include "obs/watchdog.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

using test::read_pvar;

// Options for a sampler that ticks every `ms` milliseconds.
obs::SamplerOptions every_ms(std::uint64_t ms) {
  obs::SamplerOptions so;
  so.interval_ns = ms * 1'000'000;
  return so;
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
  World w(2, test::fast_opts());
  obs::Sampler sampler(w, every_ms(1000));  // keep the thread quiet

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

TEST(Sampler, IntervalOptionVisibleInJsonl) {
  // Each sampler echoes its own SamplerOptions::interval_ns in every line it
  // exports, so two samplers on one World keep their cadences apart.
  World w(1, test::fast_opts());
  obs::Sampler fast(w, every_ms(10));
  obs::Sampler slow(w, every_ms(40));
  fast.sample_now();
  slow.sample_now();

  const auto expect_echo = [](const obs::Sampler& sampler, const std::string& echo) {
    std::ostringstream os;
    sampler.export_jsonl(os);
    // Every line is one JSON object for one (rank, interval).
    std::istringstream lines(os.str());
    std::size_t n = 0;
    for (std::string line; std::getline(lines, line);) {
      if (line.empty()) continue;
      ++n;
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
      EXPECT_NE(line.find("\"rank\":0"), std::string::npos);
      EXPECT_NE(line.find(echo), std::string::npos) << line;
    }
    EXPECT_GE(n, 1u);
  };
  expect_echo(fast, "\"interval_ns\":10000000");
  expect_echo(slow, "\"interval_ns\":40000000");
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
  World w(2, test::fast_opts());
  obs::Sampler sampler(w, every_ms(1000));

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
  obs::SamplerOptions so = every_ms(1000);
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
  WorldOptions o = test::fast_opts();
  o.build.lat_sample_shift = 0;
  World w(2, o);

  // Declaration order is the lifetime contract: the sampler must outlive the
  // watchdog that references it. At 5 ms the sampler ticks about 30 times in
  // the stall window, more than the 16 intervals a report embeds per rank.
  obs::Sampler sampler(w, every_ms(5));
  obs::WatchdogOptions wo;
  wo.stall_ns = 150'000'000;
  wo.poll_ns = 20'000'000;
  wo.sampler = &sampler;
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
  // At most the last 16 intervals of each rank.
  obs::json::Value timeline;
  ASSERT_TRUE(obs::json::parse(r.timeline_json, &timeline));
  std::map<std::uint64_t, std::size_t> per_rank;
  for (const obs::json::Value& sample : timeline.arr) ++per_rank[sample["rank"].u64()];
  ASSERT_FALSE(per_rank.empty());
  for (const auto& [rank, n] : per_rank) EXPECT_LE(n, 16u) << "rank " << rank;
  // The hang JSON report carries it under "timeline" (`lwmpi hang --timeline`).
  const std::string json = obs::render_json(r);
  EXPECT_NE(json.find("\"timeline\":["), std::string::npos);
}

// --- sampler-vs-engine races (the TSan bucket) ------------------------------

// Hot 4-VCI traffic loop: both ranks dup the predefined comms and ping on
// every lane, the workload the sampler races against in the tests below.
// After each batch of `iters` rounds rank 0 asks `more()` and broadcasts the
// answer, so both ranks keep the lanes hot for the same number of batches.
template <class More>
void hot_vci_loop(Engine& e, int iters, More more) {
  const Comm comms[4] = {kComm1, kComm2, kComm3, kComm4};
  for (Comm c : comms) {
    ASSERT_EQ(e.comm_dup_predefined(kCommWorld, c), Err::Success);
  }
  std::uint64_t v = 0;
  for (int go = 1; go != 0;) {
    for (int i = 0; i < iters; ++i) {
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

void hot_vci_loop(Engine& e, int iters) {
  hot_vci_loop(e, iters, [] { return false; });
}

TEST(SamplerRace, StartStopUnderLoad) {
  World w(2, test::fast_opts());

  // Construct and destroy samplers continuously while the rank threads are
  // hot: every ctor spawns a sampling thread that reads the engines' relaxed
  // counters, every dtor takes a final sample mid-traffic.
  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load(std::memory_order_acquire)) {
      obs::Sampler s(w, every_ms(1));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      s.sample_now();
    }
  });

  w.run([&](Engine& e) { hot_vci_loop(e, 150); });
  done.store(true, std::memory_order_release);
  churn.join();
}

TEST(SamplerRace, RingOverwriteUnderHotVciLoad) {
  World w(2, test::fast_opts());
  obs::Sampler sampler(w, every_ms(1));
  const std::size_t depth = sampler.ring_depth();
  EXPECT_EQ(depth, 120u);

  // The lanes stay hot in further batches until the sampler has ticked past
  // the ring depth.
  w.run([&](Engine& e) {
    hot_vci_loop(e, 400, [&] { return sampler.ticks() <= depth; });
  });

  // The 1ms cadence must have lapped the ring: retention is bounded,
  // overwrite-oldest, and the survivors are the newest contiguous ticks.
  EXPECT_GT(sampler.ticks(), depth);
  for (Rank r = 0; r < 2; ++r) {
    const std::vector<obs::RankSample> hist = sampler.history(r);
    ASSERT_LE(hist.size(), depth);
    ASSERT_GE(hist.size(), 1u);
    for (std::size_t i = 1; i < hist.size(); ++i) {
      EXPECT_EQ(hist[i].seq, hist[i - 1].seq + 1);
    }
    // Each lane's depths are read once per tick, so the rank totals of a
    // sample taken under traffic are exactly its lanes' sums.
    for (const obs::RankSample& s : hist) expect_lanes_sum_to_rank(s);
  }
}

TEST(SamplerRace, TwoSamplersOnOneWorld) {
  World w(2, test::fast_opts());
  obs::Sampler fast(w, every_ms(1));
  obs::Sampler slow(w, every_ms(3));

  // Both sampling threads read the same engines while the lanes are hot;
  // the batches repeat until each has ticked.
  w.run([&](Engine& e) {
    hot_vci_loop(e, 300, [&] { return fast.ticks() == 0 || slow.ticks() == 0; });
  });

  EXPECT_GT(fast.ticks(), 0u);
  EXPECT_GT(slow.ticks(), 0u);
  for (Rank r = 0; r < 2; ++r) {
    for (const obs::RankSample& s : fast.history(r)) EXPECT_EQ(s.interval_ns, 1'000'000u);
    for (const obs::RankSample& s : slow.history(r)) EXPECT_EQ(s.interval_ns, 3'000'000u);
  }
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
