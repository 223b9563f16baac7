// World runtime tests: SPMD launch, exception propagation, allocators,
// engine identity, and configuration plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "util.hpp"

namespace lwmpi {
namespace {

TEST(World, EveryRankRunsExactlyOnce) {
  std::atomic<int> count{0};
  std::atomic<int> rank_sum{0};
  test::spmd(5, [&](Engine& e) {
    count.fetch_add(1);
    rank_sum.fetch_add(e.world_rank());
    EXPECT_EQ(e.world_size(), 5);
  });
  EXPECT_EQ(count.load(), 5);
  EXPECT_EQ(rank_sum.load(), 10);
}

TEST(World, ExceptionsPropagateToCaller) {
  World w(3, test::fast_opts());
  EXPECT_THROW(w.run([](Engine& e) {
    if (e.world_rank() == 1) throw std::runtime_error("rank 1 exploded");
  }),
               std::runtime_error);
}

TEST(World, ReusableAcrossRuns) {
  World w(2, test::fast_opts());
  for (int round = 0; round < 3; ++round) {
    w.run([round](Engine& e) {
      int v = round;
      int sum = 0;
      ASSERT_EQ(e.allreduce(&v, &sum, 1, kInt, ReduceOp::Sum, kCommWorld), Err::Success);
      EXPECT_EQ(sum, 2 * round);
    });
  }
}

TEST(World, ContextAllocatorNeverReusesIds) {
  World w(1, test::fast_opts());
  const auto a = w.alloc_context_pair();
  const auto b = w.alloc_context_pair();
  const auto block = w.alloc_context_block(3);
  const auto c = w.alloc_context_pair();
  EXPECT_LT(a, b);
  EXPECT_LT(b, block);
  EXPECT_GE(c, block + 6);
  EXPECT_GE(a, kFirstDynamicCtx);
}

TEST(World, OptionsReachEngines) {
  WorldOptions o;
  o.device = DeviceKind::Orig;
  o.build = BuildConfig::no_err_single();
  o.ranks_per_node = 1;
  World w(2, o);
  EXPECT_EQ(w.engine(0).device(), DeviceKind::Orig);
  EXPECT_FALSE(w.engine(1).config().error_checking);
  EXPECT_FALSE(w.engine(1).config().thread_safety);
  EXPECT_FALSE(w.fabric().same_node(0, 1));
}

TEST(World, EnvironmentDoesNotChangeOptions) {
  // A World runs with exactly the options it was given: environment
  // variables, set here against every option below, change nothing.
  const char* const kEnv[][2] = {{"LWMPI_CVAR_TRACE_ENABLE", "0"},
                                 {"LWMPI_CVAR_LAT_SAMPLE_SHIFT", "6"},
                                 {"LWMPI_CVAR_NETMOD_DEFAULT", "rdma"},
                                 {"LWMPI_CVAR_PROF", "0"},
                                 {"LWMPI_CVAR_RECORD", "0"}};
  for (const auto& [name, value] : kEnv) ::setenv(name, value, 1);
  WorldOptions o = test::fast_opts();
  o.build.trace = true;
  o.build.lat_sample_shift = 0;
  o.netmod = "mailbox";
  o.prof = true;
  o.record = true;
  {
    World w(2, o);
    const WorldOptions& got = w.options();
    EXPECT_TRUE(got.build.trace);
    EXPECT_EQ(got.build.lat_sample_shift, 0);
    EXPECT_EQ(got.netmod, "mailbox");
    EXPECT_TRUE(got.prof);
    EXPECT_EQ(got.prof_path, o.prof_path);
    EXPECT_TRUE(got.record);
    EXPECT_EQ(got.record_path, o.record_path);
    EXPECT_EQ(got.record_ring_depth, o.record_ring_depth);
    EXPECT_EQ(got.record_sample_shift, o.record_sample_shift);
    EXPECT_EQ(w.fabric().backend_name(), "mailbox");
    EXPECT_NE(w.profiler(), nullptr);
    EXPECT_NE(w.recorder(), nullptr);
    w.run([](Engine& e) {
      int v = 1;
      if (e.world_rank() == 0) {
        ASSERT_EQ(e.send(&v, 1, kInt, 1, 0, kCommWorld), Err::Success);
      } else {
        ASSERT_EQ(e.recv(&v, 1, kInt, 0, 0, kCommWorld, nullptr), Err::Success);
      }
    });
    EXPECT_FALSE(w.trace_events().empty());
  }
  for (const auto& [name, value] : kEnv) ::unsetenv(name);
}

TEST(World, EngineAccessorMatchesRank) {
  World w(3, test::fast_opts());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(w.engine(r).world_rank(), r);
  }
  EXPECT_THROW(w.engine(9), std::out_of_range);
}

TEST(World, WindowRegistryRoundTrip) {
  World w(1, test::fast_opts());
  auto g = std::make_shared<rma::WindowGlobal>();
  g->id = w.alloc_win_id();
  w.register_window(g);
  EXPECT_EQ(w.find_window(g->id), g);
  w.unregister_window(g->id);
  EXPECT_EQ(w.find_window(g->id), nullptr);
  EXPECT_EQ(w.find_window(999999), nullptr);
}

TEST(World, BuildConfigLabels) {
  EXPECT_EQ(BuildConfig::dflt().label(), "default");
  EXPECT_EQ(BuildConfig::no_err().label(), "no-err");
  EXPECT_EQ(BuildConfig::no_err_single().label(), "no-err-single");
  EXPECT_EQ(BuildConfig::no_err_single_ipo().label(), "no-err-single-ipo");
  EXPECT_STREQ(to_string(DeviceKind::Ch4), "mpich/ch4");
  EXPECT_STREQ(to_string(DeviceKind::Orig), "mpich/original");
}

// Every combination of the three build flags has its own label, so a report
// never names a build that did not run; the Figure-2 presets keep theirs.
TEST(World, EveryBuildCombinationHasItsOwnLabel) {
  std::set<std::string> labels;
  for (int bits = 0; bits < 8; ++bits) {
    const BuildConfig b{.error_checking = (bits & 1) != 0,
                        .thread_safety = (bits & 2) != 0,
                        .ipo = (bits & 4) != 0};
    EXPECT_TRUE(labels.insert(b.label()).second) << "duplicate label " << b.label();
  }
  EXPECT_EQ(labels.size(), 8u);
  EXPECT_EQ(BuildConfig::dflt().label(), "default");
  EXPECT_EQ(BuildConfig::no_err().label(), "no-err");
  EXPECT_EQ(BuildConfig::no_err_single().label(), "no-err-single");
  EXPECT_EQ(BuildConfig::no_err_single_ipo().label(), "no-err-single-ipo");
  EXPECT_EQ((BuildConfig{.thread_safety = false}).label(), "single");
  EXPECT_EQ((BuildConfig{.ipo = true}).label(), "ipo");
  EXPECT_EQ((BuildConfig{.error_checking = false, .ipo = true}).label(), "no-err-ipo");
  EXPECT_EQ((BuildConfig{.thread_safety = false, .ipo = true}).label(), "single-ipo");
}

}  // namespace
}  // namespace lwmpi
