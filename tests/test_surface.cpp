// The surface hook (obs::SurfaceScope, obs/recorder.hpp): every MPI entry
// point opens one scope that feeds both the aggregate profiler and the flight
// recorder through one outermost-wins depth guard. A deterministic mixed
// workload must profile and record identically whether the profiler, the
// recorder, or both are attached; request_free's internal reap is not a user
// Wait; and RMA records carry the window's VCI, the one the profiler keys on.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

WorldOptions tier_opts(bool prof, bool record) {
  WorldOptions o = test::fast_opts();
  o.prof = prof;
  o.record = record;
  o.record_sample_shift = 0;  // stamp every op, so the anchor path runs too
  return o;
}

// Every surface family at least once, and no loop whose trip count depends
// on timing: the probe blocks until the tag-5 message is queued, so the
// iprobe after it is a guaranteed hit.
void mixed_workload(Engine& e) {
  const int me = e.world_rank();
  const Rank peer = 1 - me;
  std::uint64_t a = 1;
  std::uint64_t b = 0;
  if (me == 0) {
    ASSERT_EQ(e.send(&a, 1, kUint64, 1, 1, kCommWorld), Err::Success);
  } else {
    ASSERT_EQ(e.recv(&b, 1, kUint64, 0, 1, kCommWorld, nullptr), Err::Success);
  }
  ASSERT_EQ(e.sendrecv(&a, 1, kUint64, peer, 2, &b, 1, kUint64, peer, 2, kCommWorld, nullptr),
            Err::Success);

  std::array<std::uint64_t, 2> out = {3, 4};
  std::array<std::uint64_t, 2> in = {};
  std::array<Request, 2> reqs = {kRequestNull, kRequestNull};
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Err posted = me == 0 ? e.isend(&out[i], 1, kUint64, 1, 3, kCommWorld, &reqs[i])
                               : e.irecv(&in[i], 1, kUint64, 0, 3, kCommWorld, &reqs[i]);
    ASSERT_EQ(posted, Err::Success);
  }
  ASSERT_EQ(e.waitall(reqs, {}), Err::Success);

  if (me == 0) {
    ASSERT_EQ(e.send(&a, 1, kUint64, 1, 5, kCommWorld), Err::Success);
  } else {
    Status st;
    ASSERT_EQ(e.probe(0, 5, kCommWorld, &st), Err::Success);
    bool flag = false;
    ASSERT_EQ(e.iprobe(0, 5, kCommWorld, &flag, &st), Err::Success);
    EXPECT_TRUE(flag);
    ASSERT_EQ(e.recv(&b, 1, kUint64, 0, 5, kCommWorld, nullptr), Err::Success);
  }

  // Persistent requests: start, startall, then rank 0 frees its third send
  // while it is still active; rank 1 waits for its third receive first.
  Request p = kRequestNull;
  if (me == 0) {
    ASSERT_EQ(e.send_init(&a, 1, kUint64, 1, 6, kCommWorld, &p), Err::Success);
  } else {
    ASSERT_EQ(e.recv_init(&b, 1, kUint64, 0, 6, kCommWorld, &p), Err::Success);
  }
  ASSERT_EQ(e.start(&p), Err::Success);
  ASSERT_EQ(e.wait(&p, nullptr), Err::Success);
  ASSERT_EQ(e.startall(std::span<Request>(&p, 1)), Err::Success);
  ASSERT_EQ(e.wait(&p, nullptr), Err::Success);
  ASSERT_EQ(e.start(&p), Err::Success);
  if (me == 1) {
    ASSERT_EQ(e.wait(&p, nullptr), Err::Success);
  }
  ASSERT_EQ(e.request_free(&p), Err::Success);

  std::uint64_t v = static_cast<std::uint64_t>(me) + 1;
  std::uint64_t sum = 0;
  ASSERT_EQ(e.bcast(&v, 1, kUint64, 0, kCommWorld), Err::Success);
  ASSERT_EQ(e.allreduce(&v, &sum, 1, kUint64, ReduceOp::Sum, kCommWorld), Err::Success);

  std::array<std::uint64_t, 2> mem = {};
  Win win = kWinNull;
  ASSERT_EQ(e.win_create(mem.data(), sizeof(mem), sizeof(std::uint64_t), kCommWorld, &win),
            Err::Success);
  ASSERT_EQ(e.win_fence(win), Err::Success);
  ASSERT_EQ(e.put(&v, 1, kUint64, peer, static_cast<std::uint64_t>(me), 1, kUint64, win),
            Err::Success);
  ASSERT_EQ(e.win_fence(win), Err::Success);
  ASSERT_EQ(e.win_free(&win), Err::Success);
}

// (callsite, vci, count, bytes) for every nonzero phase-0 cell.
using Cell = std::tuple<int, int, std::uint64_t, std::uint64_t>;
// (kind, peer, tag, bytes, link, vci): a record without its timing.
using Rec = std::tuple<int, std::int32_t, std::int32_t, std::uint32_t, int, int>;

struct TierView {
  std::array<std::vector<Cell>, 2> cells;  // per rank
  std::array<std::vector<Rec>, 2> recs;    // per rank
};

TierView run_mixed(bool prof, bool record) {
  World w(2, tier_opts(prof, record));
  w.run(mixed_workload);
  TierView v;
  for (int r = 0; r < 2; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (const obs::Profiler* p = w.profiler(); p != nullptr) {
      for (std::size_t s = 0; s < obs::kNumCallsites; ++s) {
        for (int vci = 0; vci < p->nvcis(); ++vci) {
          const obs::CallCell* c = p->rank(r).peek(0, static_cast<obs::Callsite>(s), vci);
          if (c == nullptr || c->count.load() == 0) continue;
          v.cells[ri].emplace_back(static_cast<int>(s), vci, c->count.load(), c->bytes.load());
        }
      }
    }
    if (obs::Recorder* rec = w.recorder(); rec != nullptr) {
      for (const obs::RecOp& op : rec->rank(r).ops().collect()) {
        v.recs[ri].emplace_back(op.kind, op.peer, op.tag, op.bytes, op.link, op.vci);
      }
    }
  }
  return v;
}

std::uint64_t count_of(const std::vector<Cell>& cells, obs::Callsite site) {
  std::uint64_t n = 0;
  for (const Cell& c : cells) {
    if (std::get<0>(c) == static_cast<int>(site)) n += std::get<2>(c);
  }
  return n;
}

std::size_t records_of(const std::vector<Rec>& recs, obs::Callsite site) {
  std::size_t n = 0;
  for (const Rec& r : recs) n += std::get<0>(r) == static_cast<int>(site) ? 1 : 0;
  return n;
}

TEST(Surface, SameCallsWithOneTierOrBoth) {
  const TierView prof = run_mixed(true, false);
  const TierView rec = run_mixed(false, true);
  const TierView both = run_mixed(true, true);
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_FALSE(prof.cells[r].empty()) << "rank " << r;
    ASSERT_FALSE(rec.recs[r].empty()) << "rank " << r;
    // Attaching the other tier changes nothing either tier sees.
    EXPECT_EQ(prof.cells[r], both.cells[r]) << "rank " << r;
    EXPECT_EQ(rec.recs[r], both.recs[r]) << "rank " << r;
    // One user call is one count and one record: the internal calls of the
    // blocking wrappers and collectives stay suppressed in both tiers.
    for (obs::Callsite s : {obs::Callsite::Sendrecv, obs::Callsite::Waitall,
                            obs::Callsite::Startall, obs::Callsite::Allreduce,
                            obs::Callsite::Put}) {
      EXPECT_EQ(count_of(both.cells[r], s), 1u) << "rank " << r << " " << obs::to_string(s);
      EXPECT_EQ(records_of(both.recs[r], s), 1u) << "rank " << r << " " << obs::to_string(s);
    }
    EXPECT_EQ(count_of(both.cells[r], obs::Callsite::Isend), r == 0 ? 2u : 0u);
    EXPECT_EQ(count_of(both.cells[r], obs::Callsite::Start), 2u);
  }
  // The iprobe hit counts and records once; the probe before it hides its own
  // internal iprobe loop.
  EXPECT_EQ(count_of(both.cells[1], obs::Callsite::Probe), 1u);
  EXPECT_EQ(count_of(both.cells[1], obs::Callsite::Iprobe), 1u);
  EXPECT_EQ(records_of(both.recs[1], obs::Callsite::Iprobe), 1u);
  // Only the user's own waits: two on rank 0, three on rank 1.
  EXPECT_EQ(count_of(both.cells[0], obs::Callsite::Wait), 2u);
  EXPECT_EQ(count_of(both.cells[1], obs::Callsite::Wait), 3u);
  EXPECT_EQ(records_of(both.recs[0], obs::Callsite::Wait), 2u);
  EXPECT_EQ(records_of(both.recs[1], obs::Callsite::Wait), 3u);
}

// Freeing an active persistent request reaps its in-flight operation with an
// internal wait. The user made no Wait call, so neither tier may show one.
TEST(Surface, RequestFreeReapIsNotAWait) {
  World w(2, tier_opts(true, true));
  w.run([](Engine& e) {
    std::uint64_t v = 7;
    if (e.world_rank() == 0) {
      Request p = kRequestNull;
      ASSERT_EQ(e.send_init(&v, 1, kUint64, 1, 9, kCommWorld, &p), Err::Success);
      ASSERT_EQ(e.start(&p), Err::Success);
      ASSERT_EQ(e.request_free(&p), Err::Success);
      EXPECT_EQ(p, kRequestNull);
    } else {
      ASSERT_EQ(e.recv(&v, 1, kUint64, 0, 9, kCommWorld, nullptr), Err::Success);
    }
  });
  const obs::RankProf& p0 = w.profiler()->rank(0);
  EXPECT_EQ(p0.site_count(0, obs::Callsite::Start), 1u);
  EXPECT_EQ(p0.site_count(0, obs::Callsite::Wait), 0u);
  for (const obs::RecOp& op : w.recorder()->rank(0).ops().collect()) {
    EXPECT_NE(op.kind, static_cast<std::uint8_t>(obs::Callsite::Wait));
  }
}

// A window inherits its communicator's VCI. Its RMA records carry that
// channel, the same one the profiler keys the call's cell on.
TEST(Surface, RmaRecordsCarryTheWindowVci) {
  World w(2, tier_opts(true, true));
  std::array<int, 2> win_vci = {-1, -1};
  w.run([&](Engine& e) {
    ASSERT_EQ(e.comm_dup_predefined(kCommWorld, kComm2), Err::Success);
    win_vci[static_cast<std::size_t>(e.world_rank())] = e.vci_of(kComm2);
    std::array<std::uint64_t, 2> mem = {};
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), sizeof(mem), sizeof(std::uint64_t), kComm2, &win),
              Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    const std::uint64_t v = 42;
    ASSERT_EQ(e.put(&v, 1, kUint64, 1 - e.world_rank(), 0, 1, kUint64, win), Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
  for (int r = 0; r < 2; ++r) {
    const int vci = win_vci[static_cast<std::size_t>(r)];
    ASSERT_GT(vci, 0) << "kComm2 should map to a nonzero channel";
    std::size_t puts = 0;
    std::size_t fences = 0;
    for (const obs::RecOp& op : w.recorder()->rank(r).ops().collect()) {
      if (op.kind == static_cast<std::uint8_t>(obs::Callsite::Put)) {
        ++puts;
        EXPECT_EQ(static_cast<int>(op.vci), vci) << "rank " << r;
      } else if (op.kind == static_cast<std::uint8_t>(obs::Callsite::WinFence)) {
        ++fences;
        EXPECT_EQ(static_cast<int>(op.vci), vci) << "rank " << r;
      }
    }
    EXPECT_EQ(puts, 1u) << "rank " << r;
    EXPECT_EQ(fences, 2u) << "rank " << r;
    const obs::CallCell* c = w.profiler()->rank(r).peek(0, obs::Callsite::Put, vci);
    ASSERT_NE(c, nullptr) << "rank " << r;
    EXPECT_EQ(c->count.load(), 1u) << "rank " << r;
  }
}

}  // namespace
}  // namespace lwmpi
