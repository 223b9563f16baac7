// Cost-model tests: the modeled instruction counts that reproduce the paper's
// Table 1, Figure 2, and Figure 6 must emerge from walking the real code
// paths. These are the calibration anchors for the bench harnesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "obs/table.hpp"
#include "runtime/backoff.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

using C = cost::Category;
using G = cost::Group;

// Measure one metered isend on rank 0 of a 2-rank world.
cost::Meter measure_isend(DeviceKind device, BuildConfig build) {
  cost::Meter out;
  WorldOptions o = test::fast_opts(device);
  o.build = build;
  World w(2, o);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      int v = 7;
      Request r = kRequestNull;
      {
        cost::ScopedMeter arm(out);
        ASSERT_EQ(e.isend(&v, 1, kInt, 1, 1, kCommWorld, &r), Err::Success);
      }
      ASSERT_EQ(e.wait(&r, nullptr), Err::Success);
    } else {
      int got = 0;
      ASSERT_EQ(e.recv(&got, 1, kInt, 0, 1, kCommWorld, nullptr), Err::Success);
    }
  });
  return out;
}

// Measure one metered put (contiguous, inside a fence epoch).
cost::Meter measure_put(DeviceKind device, BuildConfig build) {
  cost::Meter out;
  WorldOptions o = test::fast_opts(device);
  o.build = build;
  World w(2, o);
  w.run([&](Engine& e) {
    std::vector<int> mem(8, 0);
    Win win = kWinNull;
    ASSERT_EQ(
        e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld, &win),
        Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (e.world_rank() == 0) {
      const int v = 3;
      cost::ScopedMeter arm(out);
      ASSERT_EQ(e.put(&v, 1, kInt, 1, 0, 1, kInt, win), Err::Success);
    }
    ASSERT_EQ(e.win_fence(win), Err::Success);
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Table 1: category breakdown of the ch4 default build, from the live path
// ---------------------------------------------------------------------------

TEST(Table1, IsendDefaultBreakdown) {
  const cost::Meter m = measure_isend(DeviceKind::Ch4, BuildConfig::dflt());
  EXPECT_EQ(m.group(G::ErrorChecking), 74u);
  EXPECT_EQ(m.group(G::ThreadSafety), 6u);
  EXPECT_EQ(m.group(G::FunctionCall), 23u);
  EXPECT_EQ(m.group(G::RedundantChecks), 59u);
  EXPECT_EQ(m.group(G::Mandatory), 59u);
  EXPECT_EQ(m.group(G::OrigLayering), 0u);
  EXPECT_EQ(m.total(), 221u);
}

TEST(Table1, PutDefaultBreakdown) {
  const cost::Meter m = measure_put(DeviceKind::Ch4, BuildConfig::dflt());
  EXPECT_EQ(m.group(G::ErrorChecking), 72u);
  EXPECT_EQ(m.group(G::ThreadSafety), 14u);
  EXPECT_EQ(m.group(G::FunctionCall), 25u);
  EXPECT_EQ(m.group(G::RedundantChecks), 60u);  // paper: 62
  EXPECT_EQ(m.group(G::Mandatory), 44u);        // paper: 44
  EXPECT_EQ(m.group(G::OrigLayering), 0u);
  EXPECT_EQ(m.total(), 215u);
}

TEST(Table1, IsendMandatoryDecomposition) {
  const cost::Meter m = measure_isend(DeviceKind::Ch4, BuildConfig::dflt());
  EXPECT_EQ(m.category(C::MandRankmap), cost::kMandRankTranslateCompressed);
  EXPECT_EQ(m.category(C::MandObject), cost::kMandObjectDeref);
  EXPECT_EQ(m.category(C::MandProcNull), cost::kMandProcNull);
  EXPECT_EQ(m.category(C::MandRequest), cost::kMandRequestAlloc);
  EXPECT_EQ(m.category(C::MandMatch), cost::kMandMatchBits);
  EXPECT_EQ(m.category(C::MandLocality), cost::kMandLocalitySelect);
  EXPECT_EQ(m.category(C::MandInject), cost::kMandInjectResidual);
  EXPECT_EQ(m.category(C::MandVa), 0u);  // pt2pt has no VA translation
}

TEST(Table1, PutUsesVirtualAddressTranslation) {
  const cost::Meter m = measure_put(DeviceKind::Ch4, BuildConfig::dflt());
  EXPECT_EQ(m.category(C::MandVa), cost::kMandVaTranslate);
}

TEST(Table1, OrigChargesLandInLayeringCategory) {
  const cost::Meter isend = measure_isend(DeviceKind::Orig, BuildConfig::dflt());
  EXPECT_EQ(isend.category(C::OrigLayering),
            cost::kOrigAdiDispatch + cost::kOrigSendQueueing + cost::kOrigExtraBranches);
  const cost::Meter put = measure_put(DeviceKind::Orig, BuildConfig::dflt());
  EXPECT_EQ(put.category(C::OrigLayering),
            cost::kOrigPutLayerCalls + cost::kOrigPutGenericChecks + cost::kOrigPutAmBuild +
                cost::kOrigPutOpQueue + cost::kOrigPutPt2ptIssue);
}

// ---------------------------------------------------------------------------
// Figure 2: the build matrix
// ---------------------------------------------------------------------------

TEST(Fig2, IsendAcrossBuilds) {
  EXPECT_EQ(measure_isend(DeviceKind::Orig, BuildConfig::dflt()).total(), 253u);
  EXPECT_EQ(measure_isend(DeviceKind::Ch4, BuildConfig::dflt()).total(), 221u);
  EXPECT_EQ(measure_isend(DeviceKind::Ch4, BuildConfig::no_err()).total(), 147u);
  EXPECT_EQ(measure_isend(DeviceKind::Ch4, BuildConfig::no_err_single()).total(), 141u);
  EXPECT_EQ(measure_isend(DeviceKind::Ch4, BuildConfig::no_err_single_ipo()).total(), 59u);
}

TEST(Fig2, PutAcrossBuilds) {
  EXPECT_EQ(measure_put(DeviceKind::Orig, BuildConfig::dflt()).total(), 1342u);
  EXPECT_EQ(measure_put(DeviceKind::Ch4, BuildConfig::dflt()).total(), 215u);
  EXPECT_EQ(measure_put(DeviceKind::Ch4, BuildConfig::no_err()).total(), 143u);
  EXPECT_EQ(measure_put(DeviceKind::Ch4, BuildConfig::no_err_single()).total(), 129u);
  EXPECT_EQ(measure_put(DeviceKind::Ch4, BuildConfig::no_err_single_ipo()).total(), 44u);
}

TEST(Fig2, EachDisabledFeatureReducesCount) {
  const auto d = measure_isend(DeviceKind::Ch4, BuildConfig::dflt()).total();
  const auto ne = measure_isend(DeviceKind::Ch4, BuildConfig::no_err()).total();
  const auto ns = measure_isend(DeviceKind::Ch4, BuildConfig::no_err_single()).total();
  const auto ipo = measure_isend(DeviceKind::Ch4, BuildConfig::no_err_single_ipo()).total();
  EXPECT_GT(d, ne);
  EXPECT_GT(ne, ns);
  EXPECT_GT(ns, ipo);
}

// ---------------------------------------------------------------------------
// Figure 6 / Section 3.7: extension savings on the best build
// ---------------------------------------------------------------------------

cost::Meter measure_ext(const std::function<void(Engine&, cost::Meter&)>& fn) {
  cost::Meter out;
  WorldOptions o = test::fast_opts(DeviceKind::Ch4);
  o.build = BuildConfig::no_err_single_ipo();
  World w(2, o);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      fn(e, out);
    } else {
      // The metered sends are 4-byte eager messages that complete locally at
      // the origin; the engine/fabric teardown reclaims the undelivered
      // packets, so rank 1 has nothing to do.
      e.progress();
    }
  });
  return out;
}

TEST(Fig6, GlobalRankSavesTranslation) {
  const cost::Meter m = measure_ext([](Engine& e, cost::Meter& out) {
    int v = 1;
    Request r = kRequestNull;
    cost::ScopedMeter arm(out);
    ASSERT_EQ(e.isend_global(&v, 1, kInt, 1, 1, kCommWorld, &r), Err::Success);
  });
  EXPECT_EQ(m.total(), 49u);  // 59 - (11 - 1): ~10 instructions (Section 3.1)
  EXPECT_EQ(m.category(C::MandRankmap), cost::kMandRankGlobalLoad);
}

TEST(Fig6, NpnSavesBranch) {
  const cost::Meter m = measure_ext([](Engine& e, cost::Meter& out) {
    int v = 1;
    Request r = kRequestNull;
    cost::ScopedMeter arm(out);
    ASSERT_EQ(e.isend_npn(&v, 1, kInt, 1, 1, kCommWorld, &r), Err::Success);
  });
  EXPECT_EQ(m.total(), 56u);  // 59 - 3 (Section 3.4)
  EXPECT_EQ(m.category(C::MandProcNull), 0u);
}

TEST(Fig6, NoreqSavesRequestManagement) {
  const cost::Meter m = measure_ext([](Engine& e, cost::Meter& out) {
    int v = 1;
    cost::ScopedMeter arm(out);
    ASSERT_EQ(e.isend_noreq(&v, 1, kInt, 1, 1, kCommWorld), Err::Success);
  });
  EXPECT_EQ(m.total(), 49u);  // request alloc (13) -> counter (3): ~10 saved
  EXPECT_EQ(m.category(C::MandRequest), cost::kMandCompletionCounter);
}

TEST(Fig6, NomatchSavesMatchBits) {
  const cost::Meter m = measure_ext([](Engine& e, cost::Meter& out) {
    int v = 1;
    Request r = kRequestNull;
    cost::ScopedMeter arm(out);
    ASSERT_EQ(e.isend_nomatch(&v, 1, kInt, 1, kCommWorld, &r), Err::Success);
  });
  EXPECT_EQ(m.total(), 55u);  // match bits (5) -> context load (1)
  EXPECT_EQ(m.category(C::MandMatch), cost::kMandMatchCtxLoad);
}

TEST(Fig6, AllOptsReachesSixteenInstructions) {
  cost::Meter out;
  WorldOptions o = test::fast_opts(DeviceKind::Ch4);
  o.build = BuildConfig::no_err_single_ipo();
  World w(2, o);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      ASSERT_EQ(e.comm_dup_predefined(kCommWorld, kComm1), Err::Success);
      int v = 1;
      {
        cost::ScopedMeter arm(out);
        ASSERT_EQ(e.isend_all_opts(&v, 1, kInt, 1, kComm1), Err::Success);
      }
      ASSERT_EQ(e.comm_waitall(kComm1), Err::Success);
    } else {
      ASSERT_EQ(e.comm_dup_predefined(kCommWorld, kComm1), Err::Success);
      int got = 0;
      Request r = kRequestNull;
      ASSERT_EQ(e.irecv_nomatch(&got, 1, kInt, kComm1, &r), Err::Success);
      ASSERT_EQ(e.wait(&r, nullptr), Err::Success);
      EXPECT_EQ(got, 1);
    }
  });
  EXPECT_EQ(out.total(), 16u);  // the paper's headline minimal path
}

// ---------------------------------------------------------------------------
// The charges of the entry points no figure covers, per device and build.
// Each cell is the metered path's nonzero categories, "name=count" in
// category order; a change to an entry's prologue or device path that moves
// a charge shows up as the one cell it moved.
// ---------------------------------------------------------------------------

std::string nonzero_categories(const cost::Meter& m) {
  std::string s;
  for (std::size_t i = 0; i < cost::kNumCategories; ++i) {
    const auto c = static_cast<C>(i);
    if (m.category(c) == 0) continue;
    if (!s.empty()) s += ' ';
    s += std::string(cost::to_string(c)) + "=" + std::to_string(m.category(c));
  }
  return s;
}

// One metered call of `entry` on rank 0. The pt2pt entries run on one rank,
// so no packet can arrive while the meter is armed; the RMA entries target
// rank 1 of a two-rank window inside a fence epoch, like measure_put.
cost::Meter measure_entry(const std::string& entry, DeviceKind device, BuildConfig build) {
  cost::Meter out;
  WorldOptions o = test::fast_opts(device);
  o.build = build;
  if (entry == "put_va" || entry == "get" || entry == "accumulate" ||
      entry == "get_accumulate") {
    World w(2, o);
    w.run([&](Engine& e) {
      std::vector<int> mem(8, 0);
      Win win = kWinNull;
      ASSERT_EQ(
          e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld, &win),
          Err::Success);
      ASSERT_EQ(e.win_fence(win), Err::Success);
      // Alive until the closing fence, where orig delivers what it fetched.
      int v = 3;
      int got = 0;
      if (e.world_rank() == 0) {
        void* va = nullptr;
        ASSERT_EQ(e.win_target_address(1, 0, win, &va), Err::Success);
        cost::ScopedMeter arm(out);
        if (entry == "put_va") {
          ASSERT_EQ(e.put_va(&v, 1, kInt, 1, va, win), Err::Success);
        } else if (entry == "get") {
          ASSERT_EQ(e.get(&got, 1, kInt, 1, 0, 1, kInt, win), Err::Success);
        } else if (entry == "accumulate") {
          ASSERT_EQ(e.accumulate(&v, 1, kInt, 1, 0, ReduceOp::Sum, win), Err::Success);
        } else {
          ASSERT_EQ(e.get_accumulate(&v, 1, kInt, &got, 1, 0, ReduceOp::Sum, win),
                    Err::Success);
        }
      }
      ASSERT_EQ(e.win_fence(win), Err::Success);
      ASSERT_EQ(e.win_free(&win), Err::Success);
    });
    return out;
  }
  World w(1, o);
  w.run([&](Engine& e) {
    int v = 7;
    int got = 0;
    Request r = kRequestNull;
    Request s = kRequestNull;
    if (entry == "iprobe") {
      bool flag = true;
      cost::ScopedMeter arm(out);
      ASSERT_EQ(e.iprobe(0, 1, kCommWorld, &flag, nullptr), Err::Success);
      EXPECT_FALSE(flag);
      return;
    }
    {
      cost::ScopedMeter arm(out);
      if (entry == "irecv") {
        ASSERT_EQ(e.irecv(&got, 1, kInt, 0, 1, kCommWorld, &r), Err::Success);
      } else if (entry == "irecv_nomatch") {
        ASSERT_EQ(e.irecv_nomatch(&got, 1, kInt, kCommWorld, &r), Err::Success);
      } else if (entry == "send_init") {
        ASSERT_EQ(e.send_init(&v, 1, kInt, 0, 1, kCommWorld, &r), Err::Success);
      } else {
        ASSERT_EQ(e.recv_init(&got, 1, kInt, 0, 1, kCommWorld, &r), Err::Success);
      }
    }
    if (entry == "irecv" || entry == "irecv_nomatch") {
      ASSERT_EQ(entry == "irecv" ? e.isend(&v, 1, kInt, 0, 1, kCommWorld, &s)
                                 : e.isend_nomatch(&v, 1, kInt, 0, kCommWorld, &s),
                Err::Success);
      ASSERT_EQ(e.wait(&s, nullptr), Err::Success);
      ASSERT_EQ(e.wait(&r, nullptr), Err::Success);
      EXPECT_EQ(got, 7);
    } else {
      ASSERT_EQ(e.request_free(&r), Err::Success);
    }
  });
  return out;
}

struct ChargeCell {
  const char* entry;
  DeviceKind device;
  BuildConfig build;
  const char* charges;
};

constexpr DeviceKind kCh4 = DeviceKind::Ch4;
constexpr DeviceKind kOrig = DeviceKind::Orig;
const BuildConfig kDflt = BuildConfig::dflt();
const BuildConfig kNoErr = BuildConfig::no_err();
const BuildConfig kSingle = BuildConfig::no_err_single();
const BuildConfig kIpo = BuildConfig::no_err_single_ipo();

// put_va has no orig row: the original device does not implement it.
const ChargeCell kChargeTable[] = {
    {"irecv", kCh4, kDflt, "err-check=74 thread-gate=6 call-overhead=23"},
    {"irecv", kCh4, kNoErr, "thread-gate=6 call-overhead=23"},
    {"irecv", kCh4, kSingle, "call-overhead=23"},
    {"irecv", kCh4, kIpo, ""},
    {"irecv", kOrig, kDflt, "err-check=74 thread-gate=6 call-overhead=23"},
    {"irecv", kOrig, kNoErr, "thread-gate=6 call-overhead=23"},
    {"irecv", kOrig, kSingle, "call-overhead=23"},
    {"irecv", kOrig, kIpo, ""},
    {"irecv_nomatch", kCh4, kDflt, "err-check=54"},
    {"irecv_nomatch", kCh4, kNoErr, ""},
    {"irecv_nomatch", kCh4, kSingle, ""},
    {"irecv_nomatch", kCh4, kIpo, ""},
    {"irecv_nomatch", kOrig, kDflt, "err-check=54"},
    {"irecv_nomatch", kOrig, kNoErr, ""},
    {"irecv_nomatch", kOrig, kSingle, ""},
    {"irecv_nomatch", kOrig, kIpo, ""},
    {"send_init", kCh4, kDflt, "err-check=74"},
    {"send_init", kCh4, kNoErr, ""},
    {"send_init", kCh4, kSingle, ""},
    {"send_init", kCh4, kIpo, ""},
    {"send_init", kOrig, kDflt, "err-check=74"},
    {"send_init", kOrig, kNoErr, ""},
    {"send_init", kOrig, kSingle, ""},
    {"send_init", kOrig, kIpo, ""},
    {"recv_init", kCh4, kDflt, "err-check=74"},
    {"recv_init", kCh4, kNoErr, ""},
    {"recv_init", kCh4, kSingle, ""},
    {"recv_init", kCh4, kIpo, ""},
    {"recv_init", kOrig, kDflt, "err-check=74"},
    {"recv_init", kOrig, kNoErr, ""},
    {"recv_init", kOrig, kSingle, ""},
    {"recv_init", kOrig, kIpo, ""},
    {"iprobe", kCh4, kDflt, "err-check=38"},
    {"iprobe", kCh4, kNoErr, ""},
    {"iprobe", kCh4, kSingle, ""},
    {"iprobe", kCh4, kIpo, ""},
    {"iprobe", kOrig, kDflt, "err-check=38"},
    {"iprobe", kOrig, kNoErr, ""},
    {"iprobe", kOrig, kSingle, ""},
    {"iprobe", kOrig, kIpo, ""},
    {"put_va", kCh4, kDflt,
     "err-check=66 thread-gate=14 call-overhead=25 mand-rankmap(3.1)=11 mand-object(3.3)=8 "
     "mand-request(3.5)=6 mand-locality=4 mand-inject=8"},
    {"put_va", kCh4, kNoErr,
     "thread-gate=14 call-overhead=25 mand-rankmap(3.1)=11 mand-object(3.3)=8 mand-request(3.5)=6 "
     "mand-locality=4 mand-inject=8"},
    {"put_va", kCh4, kSingle,
     "call-overhead=25 mand-rankmap(3.1)=11 mand-object(3.3)=8 mand-request(3.5)=6 "
     "mand-locality=4 mand-inject=8"},
    {"put_va", kCh4, kIpo,
     "mand-rankmap(3.1)=11 mand-object(3.3)=8 mand-request(3.5)=6 mand-locality=4 mand-inject=8"},
    {"get", kCh4, kDflt,
     "err-check=72 thread-gate=14 call-overhead=25 mand-rankmap(3.1)=11 mand-va(3.2)=4 "
     "mand-object(3.3)=8 mand-proc-null(3.4)=3 mand-request(3.5)=6 mand-locality=4 mand-inject=8"},
    {"get", kCh4, kNoErr,
     "thread-gate=14 call-overhead=25 mand-rankmap(3.1)=11 mand-va(3.2)=4 mand-object(3.3)=8 "
     "mand-proc-null(3.4)=3 mand-request(3.5)=6 mand-locality=4 mand-inject=8"},
    {"get", kCh4, kSingle,
     "call-overhead=25 mand-rankmap(3.1)=11 mand-va(3.2)=4 mand-object(3.3)=8 "
     "mand-proc-null(3.4)=3 mand-request(3.5)=6 mand-locality=4 mand-inject=8"},
    {"get", kCh4, kIpo,
     "mand-rankmap(3.1)=11 mand-va(3.2)=4 mand-object(3.3)=8 mand-proc-null(3.4)=3 "
     "mand-request(3.5)=6 mand-locality=4 mand-inject=8"},
    {"get", kOrig, kDflt, "err-check=72 thread-gate=14 call-overhead=25 mand-proc-null(3.4)=3"},
    {"get", kOrig, kNoErr, "thread-gate=14 call-overhead=25 mand-proc-null(3.4)=3"},
    {"get", kOrig, kSingle, "call-overhead=25 mand-proc-null(3.4)=3"},
    {"get", kOrig, kIpo, "mand-proc-null(3.4)=3"},
    {"accumulate", kCh4, kDflt,
     "err-check=58 thread-gate=14 call-overhead=25 mand-rankmap(3.1)=11 mand-va(3.2)=4 "
     "mand-object(3.3)=8 mand-proc-null(3.4)=3 mand-request(3.5)=6 mand-inject=8"},
    {"accumulate", kCh4, kNoErr,
     "thread-gate=14 call-overhead=25 mand-rankmap(3.1)=11 mand-va(3.2)=4 mand-object(3.3)=8 "
     "mand-proc-null(3.4)=3 mand-request(3.5)=6 mand-inject=8"},
    {"accumulate", kCh4, kSingle,
     "call-overhead=25 mand-rankmap(3.1)=11 mand-va(3.2)=4 mand-object(3.3)=8 "
     "mand-proc-null(3.4)=3 mand-request(3.5)=6 mand-inject=8"},
    {"accumulate", kCh4, kIpo,
     "mand-rankmap(3.1)=11 mand-va(3.2)=4 mand-object(3.3)=8 mand-proc-null(3.4)=3 "
     "mand-request(3.5)=6 mand-inject=8"},
    {"accumulate", kOrig, kDflt,
     "err-check=58 thread-gate=14 call-overhead=25 mand-proc-null(3.4)=3"},
    {"accumulate", kOrig, kNoErr, "thread-gate=14 call-overhead=25 mand-proc-null(3.4)=3"},
    {"accumulate", kOrig, kSingle, "call-overhead=25 mand-proc-null(3.4)=3"},
    {"accumulate", kOrig, kIpo, "mand-proc-null(3.4)=3"},
    {"get_accumulate", kCh4, kDflt, "err-check=58 thread-gate=14"},
    {"get_accumulate", kCh4, kNoErr, "thread-gate=14"},
    {"get_accumulate", kCh4, kSingle, ""},
    {"get_accumulate", kCh4, kIpo, ""},
    {"get_accumulate", kOrig, kDflt, "err-check=58 thread-gate=14"},
    {"get_accumulate", kOrig, kNoErr, "thread-gate=14"},
    {"get_accumulate", kOrig, kSingle, ""},
    {"get_accumulate", kOrig, kIpo, ""},
};

TEST(ChargeTable, EntryPointsPerDeviceAndBuild) {
  for (const ChargeCell& cell : kChargeTable) {
    EXPECT_EQ(nonzero_categories(measure_entry(cell.entry, cell.device, cell.build)),
              cell.charges)
        << cell.entry << " " << to_string(cell.device) << " " << cell.build.label();
  }
}

// ---------------------------------------------------------------------------
// Closed-form totals (used by the simulated-CPU mode) must equal the counts
// accumulated by actually walking the code paths -- now per category, so
// every charge-site tag is pinned, not just the sums.
// ---------------------------------------------------------------------------

TEST(ClosedForm, IsendBreakdownsMatchMeteredPaths) {
  const BuildConfig builds[] = {BuildConfig::dflt(), BuildConfig::no_err(),
                                BuildConfig::no_err_single(),
                                BuildConfig::no_err_single_ipo()};
  for (DeviceKind dev : {DeviceKind::Ch4, DeviceKind::Orig}) {
    for (const BuildConfig& b : builds) {
      const cost::Meter::Snapshot metered = measure_isend(dev, b).snapshot();
      const cost::Breakdown closed = cost::modeled_isend_breakdown(
          dev == DeviceKind::Orig, b.error_checking, b.thread_safety, b.ipo);
      EXPECT_EQ(metered.total, closed.total()) << to_string(dev) << " " << b.label();
      for (std::size_t c = 0; c < cost::kNumCategories; ++c) {
        EXPECT_EQ(metered.by_category[c], closed.by_category[c])
            << to_string(dev) << " " << b.label() << " "
            << cost::to_string(static_cast<C>(c));
      }
    }
  }
}

TEST(ClosedForm, PutBreakdownsMatchMeteredPaths) {
  const BuildConfig builds[] = {BuildConfig::dflt(), BuildConfig::no_err(),
                                BuildConfig::no_err_single(),
                                BuildConfig::no_err_single_ipo()};
  for (DeviceKind dev : {DeviceKind::Ch4, DeviceKind::Orig}) {
    for (const BuildConfig& b : builds) {
      const cost::Meter::Snapshot metered = measure_put(dev, b).snapshot();
      const cost::Breakdown closed = cost::modeled_put_breakdown(
          dev == DeviceKind::Orig, b.error_checking, b.thread_safety, b.ipo);
      EXPECT_EQ(metered.total, closed.total()) << to_string(dev) << " " << b.label();
      for (std::size_t c = 0; c < cost::kNumCategories; ++c) {
        EXPECT_EQ(metered.by_category[c], closed.by_category[c])
            << to_string(dev) << " " << b.label() << " "
            << cost::to_string(static_cast<C>(c));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Attribution tier: obs::attribution_row must reproduce the paper splits from
// the live path and self-verify against the model.
// ---------------------------------------------------------------------------

TEST(Attribution, RowsSelfVerifyAgainstModel) {
  const obs::AttributionRow isend =
      obs::attribution_row("isend", DeviceKind::Ch4, BuildConfig::dflt());
  EXPECT_TRUE(isend.model_ok);
  EXPECT_EQ(isend.metered.total, 221u);
  EXPECT_EQ(isend.metered.group(G::ErrorChecking), 74u);
  const obs::AttributionRow put =
      obs::attribution_row("put", DeviceKind::Ch4, BuildConfig::dflt());
  EXPECT_TRUE(put.model_ok);
  EXPECT_EQ(put.metered.total, 215u);
  EXPECT_EQ(put.metered.group(G::Mandatory), 44u);
}

TEST(SimulatedCpu, SpinsScaleWithModeledInstructions) {
  // With a large ns-per-instruction, the orig device (253 instr/send) must
  // spin measurably longer per send than the best ch4 build (59 instr/send).
  auto timed_sends = [](DeviceKind dev, BuildConfig build, double ns_per_instruction) {
    WorldOptions o = test::fast_opts(dev);
    o.build = build;
    o.sim_ns_per_instruction = ns_per_instruction;
    World w(1, o);  // self-sends: no peer needed
    std::uint64_t ns = 0;
    w.run([&](Engine& e) {
      char byte = 0;
      constexpr int kN = 200;
      std::vector<Request> reqs(kN, kRequestNull);
      const auto t0 = rt::now_ns();
      for (int i = 0; i < kN; ++i) {
        e.isend(&byte, 1, kChar, 0, 0, kCommWorld, &reqs[static_cast<std::size_t>(i)]);
      }
      ns = rt::now_ns() - t0;
      e.waitall(reqs, {});
      // Receive everything so engine teardown is clean.
      for (int i = 0; i < kN; ++i) {
        char sink = 0;
        e.recv(&sink, 1, kChar, 0, 0, kCommWorld, nullptr);
      }
    });
    return ns;
  };
  // The time the spin adds: a device's sends at 50 ns/instruction minus the
  // same sends with no spin, each the fastest of five alternating runs. The
  // unspun send path's own cost (several times larger under a sanitizer)
  // drops out of the difference, and host load can only slow a run down.
  auto spin_ns = [&](DeviceKind dev, BuildConfig build) {
    std::uint64_t spun = UINT64_MAX;
    std::uint64_t bare = UINT64_MAX;
    for (int i = 0; i < 5; ++i) {
      spun = std::min(spun, timed_sends(dev, build, 50.0));
      bare = std::min(bare, timed_sends(dev, build, 0.0));
    }
    return static_cast<double>(spun) - static_cast<double>(bare);
  };
  const double orig_ns = spin_ns(DeviceKind::Orig, BuildConfig::dflt());
  const double ch4_ns = spin_ns(DeviceKind::Ch4, BuildConfig::no_err_single_ipo());
  // 253 vs 59 modeled instructions at 50 ns each is a 4.3x gap; the
  // threshold is a loose 1.5x.
  EXPECT_GT(orig_ns, 1.5 * ch4_ns);
}

// ---------------------------------------------------------------------------
// Meter mechanics
// ---------------------------------------------------------------------------

TEST(Meter, UnarmedChargesAreFree) {
  cost::charge(C::ErrCheck, 100);  // no meter armed: must be a no-op
  cost::Meter m;
  {
    cost::ScopedMeter arm(m);
    cost::charge(C::ErrCheck, 5);
  }
  cost::charge(C::ErrCheck, 100);  // disarmed again
  EXPECT_EQ(m.total(), 5u);
}

TEST(Meter, NestedScopesRestore) {
  cost::Meter outer, inner;
  cost::ScopedMeter a(outer);
  cost::charge(C::MandInject, 1);
  {
    cost::ScopedMeter b(inner);
    cost::charge(C::MandInject, 2);
  }
  cost::charge(C::MandInject, 4);
  EXPECT_EQ(outer.total(), 5u);
  EXPECT_EQ(inner.total(), 2u);
}

TEST(Meter, DeeplyNestedScopesReArmEachPrevious) {
  // Three levels: every scope exit must re-arm the meter that was armed when
  // the scope opened, not simply disarm.
  cost::Meter a, b, c;
  {
    cost::ScopedMeter sa(a);
    cost::charge(C::CallOverhead, 1);
    {
      cost::ScopedMeter sb(b);
      cost::charge(C::CallOverhead, 2);
      {
        cost::ScopedMeter sc(c);
        cost::charge(C::CallOverhead, 4);
      }
      cost::charge(C::CallOverhead, 8);  // back to b
    }
    cost::charge(C::CallOverhead, 16);  // back to a
  }
  cost::charge(C::CallOverhead, 32);  // disarmed
  EXPECT_EQ(a.total(), 17u);
  EXPECT_EQ(b.total(), 10u);
  EXPECT_EQ(c.total(), 4u);
}

TEST(Meter, MergeAccumulatesAllBreakdowns) {
  cost::Meter a, b;
  {
    cost::ScopedMeter arm(a);
    cost::charge(C::ErrCheck, 3);
    cost::charge(C::MandMatch, 5);
  }
  {
    cost::ScopedMeter arm(b);
    cost::charge(C::ErrCheck, 7);
    cost::charge(C::MandInject, 11);
  }
  a += b;
  EXPECT_EQ(a.total(), 26u);
  EXPECT_EQ(a.category(C::ErrCheck), 10u);
  EXPECT_EQ(a.group(G::Mandatory), 16u);
  EXPECT_EQ(a.category(C::MandMatch), 5u);
  EXPECT_EQ(a.category(C::MandInject), 11u);
  // The right-hand side is untouched.
  EXPECT_EQ(b.total(), 18u);
}

TEST(Meter, SnapshotIsDecoupledFromLiveMeter) {
  cost::Meter m;
  {
    cost::ScopedMeter arm(m);
    cost::charge(C::ThreadGate, 6);
    cost::charge(C::MandObject, 2);
  }
  const cost::Meter::Snapshot s = m.snapshot();
  EXPECT_EQ(s.total, 8u);
  EXPECT_EQ(s.category(C::ThreadGate), 6u);
  EXPECT_EQ(s.group(cost::Group::Mandatory), 2u);
  EXPECT_EQ(s.category(C::MandObject), 2u);

  // Further charges move the meter but not the snapshot.
  {
    cost::ScopedMeter arm(m);
    cost::charge(C::ThreadGate, 100);
  }
  EXPECT_EQ(m.total(), 108u);
  EXPECT_EQ(s.total, 8u);
  // reset() clears the meter; the snapshot still holds the old tallies.
  m.reset();
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(s.category(C::ThreadGate), 6u);
}

TEST(Meter, FineCategoriesRollUpToGroups) {
  cost::Meter m;
  {
    cost::ScopedMeter arm(m);
    cost::charge(C::MandMatch, 5);
    cost::charge(C::MandInject, 2);
    cost::charge(C::OrigLayering, 9);
  }
  EXPECT_EQ(m.group(G::Mandatory), 7u);
  EXPECT_EQ(m.group(G::OrigLayering), 9u);
  EXPECT_EQ(m.category(C::MandMatch), 5u);
  EXPECT_EQ(m.category(C::MandInject), 2u);
  EXPECT_EQ(cost::group_of(C::MandVa), G::Mandatory);
  EXPECT_EQ(cost::group_of(C::ErrCheck), G::ErrorChecking);
  EXPECT_EQ(cost::group_of(C::OrigLayering), G::OrigLayering);
}

TEST(Meter, ResetClears) {
  cost::Meter m;
  {
    cost::ScopedMeter arm(m);
    cost::charge(C::CallOverhead, 9);
  }
  m.reset();
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.category(C::CallOverhead), 0u);
}

TEST(Meter, CategoryNamesAreStable) {
  EXPECT_EQ(cost::to_string(G::ErrorChecking), "error-checking");
  EXPECT_EQ(cost::to_string(G::Mandatory), "mpi-mandatory");
  EXPECT_EQ(cost::to_string(C::MandRankmap), "mand-rankmap(3.1)");
  EXPECT_EQ(cost::to_string(C::MandMatch), "mand-match(3.6)");
  EXPECT_EQ(cost::to_string(C::OrigLayering), "orig-layering");
}

}  // namespace
}  // namespace lwmpi
