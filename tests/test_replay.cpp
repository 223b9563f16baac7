// Flight recorder + trace-driven replay (obs/recorder.hpp, apps/replay.hpp):
// record -> flush -> load -> re-execute round trips, fidelity diffing against
// the recorded pvar totals, and graceful degradation on truncated traces.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/replay.hpp"
#include "apps/stencil.hpp"
#include "core/engine.hpp"
#include "obs/pvar.hpp"
#include "obs/recorder.hpp"
#include "runtime/world.hpp"

namespace lwmpi {
namespace {

std::string trace_prefix(const char* name) {
  return ::testing::TempDir() + "lwmpi_replay_" + name;
}

// Record a 4-rank stencil halo exchange as a complete bundle (sample every
// op, ring deep enough that nothing wraps) and flush it to `prefix`.
void record_stencil(const std::string& prefix, const std::string& netmod) {
  WorldOptions o;
  o.netmod = netmod;
  o.record = true;
  o.record_path = prefix;
  o.record_sample_shift = 0;
  o.record_ring_depth = 1u << 14;
  o.build.counters = true;
  World w(4, o);
  w.run([](Engine& e) {
    apps::StencilConfig cfg;
    cfg.nx = 16;
    cfg.ny = 16;
    cfg.px = 2;
    cfg.py = 2;
    cfg.iters = 4;
    apps::run_stencil(e, kCommWorld, cfg);
  });
  // End of scope flushes the bundle.
}

TEST(Replay, RoundTripFidelityMailbox) {
  const std::string prefix = trace_prefix("mailbox");
  record_stencil(prefix, "mailbox");

  apps::TraceBundle bundle;
  std::string err;
  ASSERT_TRUE(apps::load_trace(prefix, &bundle, &err)) << err;
  EXPECT_EQ(bundle.nranks, 4);
  EXPECT_EQ(bundle.netmod, "mailbox");
  EXPECT_TRUE(bundle.complete());

  const apps::ReplayResult res = apps::run_replay(bundle);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.timeouts, 0u);
  ASSERT_TRUE(res.fidelity_checked);
  EXPECT_TRUE(res.fidelity_ok) << (res.diffs.empty() ? "" : res.diffs.front());
  // Same netmod -> fabric injection totals must also reproduce exactly.
  ASSERT_TRUE(res.fabric_checked);
  EXPECT_TRUE(res.fabric_ok) << (res.diffs.empty() ? "" : res.diffs.front());
}

TEST(Replay, RoundTripFidelityRdma) {
  const std::string prefix = trace_prefix("rdma");
  record_stencil(prefix, "rdma");

  apps::TraceBundle bundle;
  std::string err;
  ASSERT_TRUE(apps::load_trace(prefix, &bundle, &err)) << err;
  EXPECT_EQ(bundle.netmod, "rdma");
  ASSERT_TRUE(bundle.complete());

  const apps::ReplayResult res = apps::run_replay(bundle);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.timeouts, 0u);
  ASSERT_TRUE(res.fidelity_checked);
  EXPECT_TRUE(res.fidelity_ok) << (res.diffs.empty() ? "" : res.diffs.front());
  ASSERT_TRUE(res.fabric_checked);
  EXPECT_TRUE(res.fabric_ok) << (res.diffs.empty() ? "" : res.diffs.front());
}

TEST(Replay, CrossNetmodEngineFidelity) {
  const std::string prefix = trace_prefix("cross");
  record_stencil(prefix, "mailbox");

  apps::TraceBundle bundle;
  std::string err;
  ASSERT_TRUE(apps::load_trace(prefix, &bundle, &err)) << err;

  apps::ReplayOptions opts;
  opts.netmod = "rdma";
  const apps::ReplayResult res = apps::run_replay(bundle, opts);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.netmod, "rdma");
  // Engine-level totals are transport-independent and must still match;
  // fabric packetization differs across backends, so it is not compared.
  ASSERT_TRUE(res.fidelity_checked);
  EXPECT_TRUE(res.fidelity_ok) << (res.diffs.empty() ? "" : res.diffs.front());
  EXPECT_FALSE(res.fabric_checked);
}

// Replaying the same complete bundle twice is deterministic in everything the
// fidelity model asserts: op counts, skip counts, and the replayed totals.
// This is the case the TSan bucket runs: 4 replay rank threads re-issuing
// recorded traffic while the main thread reads back pvar sessions.
TEST(Replay, DeterministicAcrossRuns) {
  const std::string prefix = trace_prefix("determinism");
  record_stencil(prefix, "mailbox");

  apps::TraceBundle bundle;
  std::string err;
  ASSERT_TRUE(apps::load_trace(prefix, &bundle, &err)) << err;

  const apps::ReplayResult a = apps::run_replay(bundle);
  const apps::ReplayResult b = apps::run_replay(bundle);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.replayed, b.replayed);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_TRUE(a.fidelity_ok);
  EXPECT_TRUE(b.fidelity_ok);
  ASSERT_EQ(a.measured.size(), b.measured.size());
  for (std::size_t r = 0; r < a.measured.size(); ++r) {
    EXPECT_EQ(a.measured[r].sends_eager, b.measured[r].sends_eager) << "rank " << r;
    EXPECT_EQ(a.measured[r].sends_rdv, b.measured[r].sends_rdv) << "rank " << r;
    EXPECT_EQ(a.measured[r].recvs_posted, b.measured[r].recvs_posted) << "rank " << r;
  }
}

// A trace file cut off mid-record (killed writer, partial copy) must load as
// an incomplete bundle and replay to completion -- skips and bounded waits,
// never a hang -- with the fidelity check declined rather than failed.
TEST(Replay, TruncatedTraceDegradesGracefully) {
  const std::string prefix = trace_prefix("truncated");
  record_stencil(prefix, "mailbox");

  // Cut rank 2's file to the header plus 10.5 records.
  const std::string victim = prefix + ".rank2.lwtrace";
  std::vector<char> bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    ASSERT_TRUE(in);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t cut = sizeof(obs::LwtraceHeader) + 10 * sizeof(obs::DiskRec) + 7;
  ASSERT_GT(bytes.size(), cut);
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
  }

  apps::TraceBundle bundle;
  std::string err;
  ASSERT_TRUE(apps::load_trace(prefix, &bundle, &err)) << err;
  EXPECT_TRUE(bundle.ranks[2].truncated);
  EXPECT_EQ(bundle.ranks[2].records.size(), 10u);
  EXPECT_FALSE(bundle.complete());

  apps::ReplayOptions opts;
  opts.stall_timeout_ns = 500'000'000;  // keep the degraded case fast
  const apps::ReplayResult res = apps::run_replay(bundle, opts);
  EXPECT_TRUE(res.ok);                     // it ran to completion
  EXPECT_FALSE(res.fidelity_checked);      // and declined the exact diff
  EXPECT_GT(res.skipped, 0u);              // collectives skip on incomplete
}

TEST(Replay, CapturesRequestedPvars) {
  const std::string prefix = trace_prefix("pvars");
  record_stencil(prefix, "mailbox");

  apps::TraceBundle bundle;
  std::string err;
  ASSERT_TRUE(apps::load_trace(prefix, &bundle, &err)) << err;

  apps::ReplayOptions opts;
  opts.capture_pvars = {"lat_recv_eager_p99_ns", "wait_late_sender_count"};
  const apps::ReplayResult res = apps::run_replay(bundle, opts);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.pvars.size(), 2u);
  EXPECT_EQ(res.pvars[0].first, "lat_recv_eager_p99_ns");
  EXPECT_EQ(res.pvars[1].first, "wait_late_sender_count");
}

// The recorder pvars surface through the registry like every other tier's.
TEST(Replay, RecorderPvarsReadBack) {
  WorldOptions o;
  o.record = true;  // no record_path: record-only mode, nothing flushed
  o.build.counters = true;
  World w(2, o);
  w.run([](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      e.send(&b, 1, kChar, 1, 7, kCommWorld);
    } else {
      e.recv(&b, 1, kChar, 0, 7, kCommWorld, nullptr);
    }
  });
  obs::PvarSession s;
  ASSERT_EQ(obs::LWMPI_T_pvar_session_create(w.engine(0), &s), Err::Success);
  std::uint64_t ops = 0;
  ASSERT_EQ(obs::LWMPI_T_pvar_read(s, obs::LWMPI_T_pvar_index("rec_ops_captured"), &ops),
            Err::Success);
  EXPECT_GE(ops, 1u);  // at least the send was recorded
  std::uint64_t dropped = ~0ull;
  ASSERT_EQ(
      obs::LWMPI_T_pvar_read(s, obs::LWMPI_T_pvar_index("rec_ops_dropped"), &dropped),
      Err::Success);
  EXPECT_EQ(dropped, 0u);  // nothing wrapped in this tiny run
  obs::LWMPI_T_pvar_session_free(&s);
}

}  // namespace
}  // namespace lwmpi
