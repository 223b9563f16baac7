// One-sided communication tests: window lifecycle, put/get/accumulate across
// sync modes, both devices, the AM fallback for derived datatypes, and the
// put_va extension (Section 3.2).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util.hpp"

namespace lwmpi {
namespace {

using test::fast_opts;
using test::spmd;

class RmaDevice : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(RmaDevice, PutThroughFence) {
  spmd(
      2,
      [](Engine& e) {
        std::vector<int> mem(16, -1);
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int),
                               kCommWorld, &win),
                  Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        const int me = e.world_rank();
        int vals[2] = {me * 10 + 1, me * 10 + 2};
        // Write into the peer's window at displacement 4.
        ASSERT_EQ(e.put(vals, 2, kInt, 1 - me, 4, 2, kInt, win), Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        EXPECT_EQ(mem[4], (1 - me) * 10 + 1);
        EXPECT_EQ(mem[5], (1 - me) * 10 + 2);
        EXPECT_EQ(mem[3], -1);
        EXPECT_EQ(mem[6], -1);
        ASSERT_EQ(e.win_free(&win), Err::Success);
        EXPECT_EQ(win, kWinNull);
      },
      fast_opts(GetParam()));
}

TEST_P(RmaDevice, GetThroughFence) {
  spmd(
      2,
      [](Engine& e) {
        const int me = e.world_rank();
        std::vector<double> mem(8);
        for (std::size_t i = 0; i < mem.size(); ++i) {
          mem[i] = me * 100.0 + static_cast<double>(i);
        }
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(double), sizeof(double),
                               kCommWorld, &win),
                  Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        double got[3] = {0, 0, 0};
        ASSERT_EQ(e.get(got, 3, kDouble, 1 - me, 2, 3, kDouble, win), Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        EXPECT_EQ(got[0], (1 - me) * 100.0 + 2);
        EXPECT_EQ(got[2], (1 - me) * 100.0 + 4);
        ASSERT_EQ(e.win_free(&win), Err::Success);
      },
      fast_opts(GetParam()));
}

TEST_P(RmaDevice, AccumulateSumsContributions) {
  spmd(
      4,
      [](Engine& e) {
        std::vector<int> mem(4, 0);
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int),
                               kCommWorld, &win),
                  Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        // Everyone accumulates (rank+1) into rank 0's slot 1.
        const int v = e.world_rank() + 1;
        ASSERT_EQ(e.accumulate(&v, 1, kInt, 0, 1, ReduceOp::Sum, win), Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        if (e.world_rank() == 0) {
          EXPECT_EQ(mem[1], 1 + 2 + 3 + 4);
          EXPECT_EQ(mem[0], 0);
        }
        ASSERT_EQ(e.win_free(&win), Err::Success);
      },
      fast_opts(GetParam()));
}

TEST_P(RmaDevice, AccumulateMaxAndReplace) {
  spmd(
      2,
      [](Engine& e) {
        const int me = e.world_rank();
        std::vector<int> mem(2, 5);
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int),
                               kCommWorld, &win),
                  Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        const int big = 50 + me;
        const int small = -1;
        ASSERT_EQ(e.accumulate(&big, 1, kInt, 1 - me, 0, ReduceOp::Max, win), Err::Success);
        ASSERT_EQ(e.accumulate(&small, 1, kInt, 1 - me, 1, ReduceOp::Replace, win),
                  Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        EXPECT_EQ(mem[0], 50 + (1 - me));
        EXPECT_EQ(mem[1], -1);
        ASSERT_EQ(e.win_free(&win), Err::Success);
      },
      fast_opts(GetParam()));
}

TEST_P(RmaDevice, GetAccumulateFetchesOldValue) {
  spmd(
      2,
      [](Engine& e) {
        const int me = e.world_rank();
        std::vector<int> mem(1, 100 + me);
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), sizeof(int), sizeof(int), kCommWorld, &win),
                  Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        if (me == 0) {
          int add = 7;
          int old = -1;
          ASSERT_EQ(e.get_accumulate(&add, 1, kInt, &old, 1, 0, ReduceOp::Sum, win),
                    Err::Success);
          ASSERT_EQ(e.win_fence(win), Err::Success);
          EXPECT_EQ(old, 101);
        } else {
          ASSERT_EQ(e.win_fence(win), Err::Success);
          EXPECT_EQ(mem[0], 108);
        }
        ASSERT_EQ(e.win_free(&win), Err::Success);
      },
      fast_opts(GetParam()));
}

TEST_P(RmaDevice, LockUnlockPassiveTarget) {
  spmd(
      3,
      [](Engine& e) {
        const int me = e.world_rank();
        std::vector<int> mem(4, 0);
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int),
                               kCommWorld, &win),
                  Err::Success);
        ASSERT_EQ(e.barrier(kCommWorld), Err::Success);
        if (me != 0) {
          // Both non-targets take exclusive locks and update disjoint slots.
          ASSERT_EQ(e.win_lock(LockType::Exclusive, 0, win), Err::Success);
          const int v = me * 11;
          ASSERT_EQ(e.put(&v, 1, kInt, 0, static_cast<std::uint64_t>(me), 1, kInt, win),
                    Err::Success);
          ASSERT_EQ(e.win_unlock(0, win), Err::Success);
        }
        // Rank 0 must keep progressing so AM-path locks can be serviced.
        ASSERT_EQ(e.barrier(kCommWorld), Err::Success);
        if (me == 0) {
          EXPECT_EQ(mem[1], 11);
          EXPECT_EQ(mem[2], 22);
        }
        ASSERT_EQ(e.win_free(&win), Err::Success);
      },
      fast_opts(GetParam()));
}

TEST_P(RmaDevice, LockAllSharedEpoch) {
  spmd(
      3,
      [](Engine& e) {
        const int me = e.world_rank();
        std::vector<int> mem(4, 0);
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int),
                               kCommWorld, &win),
                  Err::Success);
        ASSERT_EQ(e.barrier(kCommWorld), Err::Success);
        ASSERT_EQ(e.win_lock_all(win), Err::Success);
        const int v = 1;
        for (int t = 0; t < 3; ++t) {
          ASSERT_EQ(e.accumulate(&v, 1, kInt, static_cast<Rank>(t),
                                 static_cast<std::uint64_t>(me), ReduceOp::Sum, win),
                    Err::Success);
        }
        ASSERT_EQ(e.win_flush_all(win), Err::Success);
        ASSERT_EQ(e.win_unlock_all(win), Err::Success);
        ASSERT_EQ(e.barrier(kCommWorld), Err::Success);
        // Every rank's slots 0..2 each received one contribution.
        EXPECT_EQ(mem[0], 1);
        EXPECT_EQ(mem[1], 1);
        EXPECT_EQ(mem[2], 1);
        ASSERT_EQ(e.win_free(&win), Err::Success);
      },
      fast_opts(GetParam()));
}

TEST_P(RmaDevice, DispBoundsChecked) {
  spmd(
      2,
      [](Engine& e) {
        std::vector<int> mem(4, 0);
        Win win = kWinNull;
        ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                               &win),
                  Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        const int me = e.world_rank();
        const int v = 10 + me;
        EXPECT_EQ(e.put(&v, 1, kInt, 1, 4, 1, kInt, win), Err::Disp);  // one past end
        EXPECT_EQ(e.put(&v, 1, kInt, 9, 0, 1, kInt, win), Err::Rank);  // bad target
        // One origin per target location: two puts to one location in an
        // epoch are erroneous. Rank 1's put covers the last valid disp.
        EXPECT_EQ(e.put(&v, 1, kInt, 1, me == 0 ? 2u : 3u, 1, kInt, win), Err::Success);
        ASSERT_EQ(e.win_fence(win), Err::Success);
        if (me == 1) {
          EXPECT_EQ(mem[2], 10);
          EXPECT_EQ(mem[3], 11);
        }
        ASSERT_EQ(e.win_free(&win), Err::Success);
      },
      fast_opts(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(BothDevices, RmaDevice,
                         ::testing::Values(DeviceKind::Ch4, DeviceKind::Orig));

TEST(Rma, DerivedTargetDatatypeRidesAmFallback) {
  spmd(2, [](Engine& e) {
    const int me = e.world_rank();
    std::vector<int> mem(16, -1);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (me == 0) {
      // Scatter 4 ints into every other slot of rank 1's window.
      Datatype stride2 = kDatatypeNull;
      ASSERT_EQ(e.type_vector(4, 1, 2, kInt, &stride2), Err::Success);
      ASSERT_EQ(e.type_commit(&stride2), Err::Success);
      int vals[4] = {10, 20, 30, 40};
      ASSERT_EQ(e.put(vals, 4, kInt, 1, 0, 1, stride2, win), Err::Success);
      ASSERT_EQ(e.type_free(&stride2), Err::Success);
    }
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (me == 1) {
      EXPECT_EQ(mem[0], 10);
      EXPECT_EQ(mem[1], -1);
      EXPECT_EQ(mem[2], 20);
      EXPECT_EQ(mem[4], 30);
      EXPECT_EQ(mem[6], 40);
    }
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

TEST(Rma, GetWithDerivedTargetType) {
  spmd(2, [](Engine& e) {
    const int me = e.world_rank();
    std::vector<int> mem(16);
    std::iota(mem.begin(), mem.end(), me * 100);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (me == 0) {
      Datatype stride4 = kDatatypeNull;
      ASSERT_EQ(e.type_vector(3, 1, 4, kInt, &stride4), Err::Success);
      ASSERT_EQ(e.type_commit(&stride4), Err::Success);
      int got[3] = {0, 0, 0};
      ASSERT_EQ(e.get(got, 3, kInt, 1, 1, 1, stride4, win), Err::Success);
      ASSERT_EQ(e.win_fence(win), Err::Success);
      EXPECT_EQ(got[0], 101);
      EXPECT_EQ(got[1], 105);
      EXPECT_EQ(got[2], 109);
      ASSERT_EQ(e.type_free(&stride4), Err::Success);
    } else {
      ASSERT_EQ(e.win_fence(win), Err::Success);
    }
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

TEST(Rma, PutVaWritesThroughVirtualAddress) {
  spmd(2, [](Engine& e) {
    const int me = e.world_rank();
    std::vector<int> mem(8, 0);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    // Resolve the target virtual address once (setup), then communicate with
    // it directly (the Section 3.2 proposal).
    void* peer_slot3 = nullptr;
    ASSERT_EQ(e.win_target_address(1 - me, 3, win, &peer_slot3), Err::Success);
    const int v = 900 + me;
    ASSERT_EQ(e.put_va(&v, 1, kInt, 1 - me, peer_slot3, win), Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    EXPECT_EQ(mem[3], 900 + (1 - me));
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

TEST(Rma, WinTargetAddressValidatesBounds) {
  spmd(2, [](Engine& e) {
    std::vector<int> mem(4, 0);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    void* addr = nullptr;
    EXPECT_EQ(e.win_target_address(0, 100, win, &addr), Err::Disp);
    EXPECT_EQ(e.win_target_address(7, 0, win, &addr), Err::Rank);
    EXPECT_EQ(e.win_target_address(1, 2, win, &addr), Err::Success);
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

TEST(Rma, EpochViolationDetected) {
  spmd(2, [](Engine& e) {
    std::vector<int> mem(4, 0);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    // No fence or lock yet: puts are epoch violations under error checking.
    const int v = 1;
    EXPECT_EQ(e.put(&v, 1, kInt, 1, 0, 1, kInt, win), Err::RmaSync);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    // Each origin its own location: two puts to one location in an epoch
    // are erroneous.
    const auto disp = static_cast<std::uint64_t>(e.world_rank());
    EXPECT_EQ(e.put(&v, 1, kInt, 1, disp, 1, kInt, win), Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

TEST(Rma, PutToProcNullIsDiscarded) {
  spmd(1, [](Engine& e) {
    std::vector<int> mem(2, 7);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    const int v = 1;
    EXPECT_EQ(e.put(&v, 1, kInt, kProcNull, 0, 1, kInt, win), Err::Success);
    EXPECT_EQ(e.get(nullptr, 0, kInt, kProcNull, 0, 0, kInt, win), Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    EXPECT_EQ(mem[0], 7);  // untouched
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

TEST(Rma, DifferentDispUnits) {
  spmd(2, [](Engine& e) {
    const int me = e.world_rank();
    // Rank 0 exposes with disp_unit = 1 byte, rank 1 with 8 bytes.
    std::vector<std::int64_t> mem(8, 0);
    const int unit = me == 0 ? 1 : 8;
    Win win = kWinNull;
    ASSERT_EQ(
        e.win_create(mem.data(), mem.size() * sizeof(std::int64_t), unit, kCommWorld, &win),
        Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (me == 0) {
      // Target rank 1 uses 8-byte units: disp 3 -> third int64.
      const std::int64_t v = 1234;
      ASSERT_EQ(e.put(&v, 1, kInt64, 1, 3, 1, kInt64, win), Err::Success);
    }
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (me == 1) {
      EXPECT_EQ(mem[3], 1234);
    }
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

TEST(Rma, MultipleWindowsCoexist) {
  spmd(2, [](Engine& e) {
    const int me = e.world_rank();
    std::vector<int> a(4, 0);
    std::vector<int> b(4, 0);
    Win wa = kWinNull, wb = kWinNull;
    ASSERT_EQ(e.win_create(a.data(), a.size() * sizeof(int), sizeof(int), kCommWorld, &wa),
              Err::Success);
    ASSERT_EQ(e.win_create(b.data(), b.size() * sizeof(int), sizeof(int), kCommWorld, &wb),
              Err::Success);
    ASSERT_EQ(e.win_fence(wa), Err::Success);
    ASSERT_EQ(e.win_fence(wb), Err::Success);
    const int va = 1 + me, vb = 100 + me;
    ASSERT_EQ(e.put(&va, 1, kInt, 1 - me, 0, 1, kInt, wa), Err::Success);
    ASSERT_EQ(e.put(&vb, 1, kInt, 1 - me, 0, 1, kInt, wb), Err::Success);
    ASSERT_EQ(e.win_fence(wa), Err::Success);
    ASSERT_EQ(e.win_fence(wb), Err::Success);
    EXPECT_EQ(a[0], 1 + (1 - me));
    EXPECT_EQ(b[0], 100 + (1 - me));
    ASSERT_EQ(e.win_free(&wb), Err::Success);
    ASSERT_EQ(e.win_free(&wa), Err::Success);
  });
}

TEST(Rma, WindowOnSubCommunicator) {
  spmd(4, [](Engine& e) {
    const int me = e.world_rank();
    Comm evens = kCommNull;
    ASSERT_EQ(e.comm_split(kCommWorld, me % 2, me, &evens), Err::Success);
    if (me % 2 == 0) {
      std::vector<int> mem(2, 0);
      Win win = kWinNull;
      ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), evens, &win),
                Err::Success);
      ASSERT_EQ(e.win_fence(win), Err::Success);
      const int sub_me = e.rank(evens);
      const int v = 500 + sub_me;
      ASSERT_EQ(e.put(&v, 1, kInt, 1 - sub_me, 0, 1, kInt, win), Err::Success);
      ASSERT_EQ(e.win_fence(win), Err::Success);
      EXPECT_EQ(mem[0], 500 + (1 - sub_me));
      ASSERT_EQ(e.win_free(&win), Err::Success);
    }
    ASSERT_EQ(e.comm_free(&evens), Err::Success);
    ASSERT_EQ(e.barrier(kCommWorld), Err::Success);
  });
}

}  // namespace
}  // namespace lwmpi
