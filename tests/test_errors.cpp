// Error-checking build feature: every validation fires when enabled and is
// skipped (garbage in, undefined-but-not-validated out is NOT exercised;
// we only verify the checks don't reject valid calls) when disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "util.hpp"

namespace lwmpi {
namespace {

using test::fast_opts;

void with_checking(const std::function<void(Engine&)>& fn) {
  WorldOptions o = fast_opts();
  o.build = BuildConfig::dflt();
  World w(2, o);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) fn(e);
  });
}

TEST(Errors, InvalidCommRejected) {
  with_checking([](Engine& e) {
    int v = 0;
    Request r = kRequestNull;
    EXPECT_EQ(e.isend(&v, 1, kInt, 0, 0, kCommNull, &r), Err::Comm);
    EXPECT_EQ(e.isend(&v, 1, kInt, 0, 0, 0xdeadbeefu, &r), Err::Comm);
    EXPECT_EQ(e.irecv(&v, 1, kInt, 0, 0, kComm3, &r), Err::Comm);  // unpopulated slot
  });
}

TEST(Errors, RankOutOfRangeRejected) {
  with_checking([](Engine& e) {
    int v = 0;
    Request r = kRequestNull;
    EXPECT_EQ(e.isend(&v, 1, kInt, 2, 0, kCommWorld, &r), Err::Rank);
    EXPECT_EQ(e.isend(&v, 1, kInt, -7, 0, kCommWorld, &r), Err::Rank);
    // kAnySource is not a valid *destination*.
    EXPECT_EQ(e.isend(&v, 1, kInt, kAnySource, 0, kCommWorld, &r), Err::Rank);
    // ...but is a valid receive source, and PROC_NULL is valid both ways.
    EXPECT_EQ(e.isend(&v, 1, kInt, kProcNull, 0, kCommWorld, &r), Err::Success);
    Status st;
    EXPECT_EQ(e.wait(&r, &st), Err::Success);
  });
}

TEST(Errors, TagOutOfRangeRejected) {
  with_checking([](Engine& e) {
    int v = 0;
    Request r = kRequestNull;
    EXPECT_EQ(e.isend(&v, 1, kInt, 1, -1, kCommWorld, &r), Err::Tag);
    EXPECT_EQ(e.isend(&v, 1, kInt, 1, kTagUb + 1, kCommWorld, &r), Err::Tag);
    // kAnyTag is only valid on the receive side.
    EXPECT_EQ(e.isend(&v, 1, kInt, 1, kAnyTag, kCommWorld, &r), Err::Tag);
    EXPECT_EQ(e.irecv(&v, 1, kInt, 1, kAnyTag, kCommWorld, &r), Err::Success);
    EXPECT_EQ(e.cancel(&r), Err::Success);
    EXPECT_EQ(e.wait(&r, nullptr), Err::Success);
  });
}

TEST(Errors, NegativeCountRejected) {
  with_checking([](Engine& e) {
    int v = 0;
    Request r = kRequestNull;
    EXPECT_EQ(e.isend(&v, -1, kInt, 1, 0, kCommWorld, &r), Err::Count);
  });
}

TEST(Errors, NullBufferRejectedUnlessZeroCount) {
  with_checking([](Engine& e) {
    Request r = kRequestNull;
    EXPECT_EQ(e.isend(nullptr, 1, kInt, 1, 0, kCommWorld, &r), Err::Buffer);
    EXPECT_EQ(e.isend(nullptr, 0, kInt, kProcNull, 0, kCommWorld, &r), Err::Success);
    EXPECT_EQ(e.wait(&r, nullptr), Err::Success);
  });
}

TEST(Errors, UncommittedDatatypeRejected) {
  with_checking([](Engine& e) {
    Datatype t = kDatatypeNull;
    ASSERT_EQ(e.type_contiguous(2, kInt, &t), Err::Success);
    int v[2] = {0, 0};
    Request r = kRequestNull;
    EXPECT_EQ(e.isend(v, 1, t, 1, 0, kCommWorld, &r), Err::Datatype);
    ASSERT_EQ(e.type_commit(&t), Err::Success);
    EXPECT_EQ(e.isend(v, 1, t, kProcNull, 0, kCommWorld, &r), Err::Success);
    EXPECT_EQ(e.wait(&r, nullptr), Err::Success);
    ASSERT_EQ(e.type_free(&t), Err::Success);
  });
}

TEST(Errors, InvalidDatatypeHandleRejected) {
  with_checking([](Engine& e) {
    int v = 0;
    Request r = kRequestNull;
    EXPECT_EQ(e.isend(&v, 1, kDatatypeNull, 1, 0, kCommWorld, &r), Err::Datatype);
    EXPECT_EQ(e.isend(&v, 1, 0x12345678u, 1, 0, kCommWorld, &r), Err::Datatype);
  });
}

TEST(Errors, DisabledCheckingSkipsValidation) {
  // With checking off, an out-of-range *tag* (harmless: it only affects match
  // bits) passes straight through to the device and the message still
  // delivers; this is the no-err build behaving as advertised.
  WorldOptions o = fast_opts();
  o.build = BuildConfig::no_err();
  World w(2, o);
  w.run([&](Engine& e) {
    // Out-of-range tags are representable in the header; both sides must
    // simply agree on the value.
    if (e.world_rank() == 0) {
      int v = 9;
      ASSERT_EQ(e.send(&v, 1, kInt, 1, kTagUb + 5, kCommWorld), Err::Success);
    } else {
      int got = 0;
      ASSERT_EQ(e.recv(&got, 1, kInt, 0, kTagUb + 5, kCommWorld, nullptr), Err::Success);
      EXPECT_EQ(got, 9);
    }
  });
}

TEST(Errors, ErrorStringsAreHumanReadable) {
  EXPECT_STREQ(error_string(Err::Success), "success");
  EXPECT_STREQ(error_string(Err::Rank), "rank out of range for communicator");
  EXPECT_STREQ(error_string(Err::Truncate), "message truncated on receive");
  EXPECT_STREQ(error_string(Err::RmaSync), "RMA call outside an access epoch");
}

TEST(Errors, WaitOnBogusRequestRejected) {
  with_checking([](Engine& e) {
    Request r = make_handle(HandleKind::Request, 12345);
    EXPECT_EQ(e.wait(&r, nullptr), Err::Request);
    Request bad = 0x7777u;
    EXPECT_EQ(e.wait(&bad, nullptr), Err::Request);
  });
}

// ---------------------------------------------------------------------------
// Hostile arguments x every validated entry point, in the default build on
// both devices: one bad value for each argument an entry validates, and the
// Err it must name. Every call runs inside one fence epoch on a window of
// four ints (disp_unit 4), and none may touch memory, post anything or leave
// a request behind.
// ---------------------------------------------------------------------------

// A valid argument set for every entry; each row breaks one argument.
struct Args {
  Comm comm = kCommWorld;
  Rank peer = 1;
  Tag tag = 0;
  int count = 1;
  void* buf = nullptr;
  Datatype dt = kInt;
  Win win = kWinNull;
  std::uint64_t disp = 0;
  Datatype target_dt = kInt;
  ReduceOp op = ReduceOp::Sum;
};

// The derived types the rows break arguments with, built on the rank that
// calls the entries.
struct BadTypes {
  Datatype uncommitted = kDatatypeNull;  // type_contiguous(1, kInt), never committed
  Datatype two_ints = kDatatypeNull;     // type_contiguous(2, kInt)
  Datatype gap = kDatatypeNull;          // type_vector(2, 1, 2, kInt): 8 bytes over 12
  Datatype below = kDatatypeNull;        // an int at byte -4, resized to lb -4
};

void break_arg(Args& a, std::string_view arg, const BadTypes& t) {
  const Datatype uncommitted = t.uncommitted;
  if (arg == "comm") a.comm = 0xdeadbeefu;
  if (arg == "win") a.win = make_handle(HandleKind::Win, 999);
  if (arg == "rank") a.peer = 2;
  if (arg == "any_source") a.peer = kAnySource;
  if (arg == "tag") a.tag = kTagUb + 1;
  if (arg == "count") a.count = -1;
  if (arg == "buffer") a.buf = nullptr;
  if (arg == "datatype") a.dt = a.target_dt = uncommitted;
  if (arg == "target_datatype") a.target_dt = uncommitted;
  if (arg == "op") {
    a.dt = kFloat;  // bitwise ops are undefined for floating point
    a.op = ReduceOp::BAnd;
  }
  if (arg == "disp_end") a.disp = 4;
  if (arg == "disp_wrap") a.disp = (std::uint64_t{1} << 62) + 1;  // x4 wraps to 4
  // Target types whose packed size fits the window where their span does
  // not: two ints with a gap at disp 2 reach byte 20 of 16, and an int
  // below its address at disp 0 starts at byte -4.
  if (arg == "gap_target") {
    a.dt = t.two_ints;
    a.target_dt = t.gap;
    a.disp = 2;
  }
  if (arg == "below_target") a.target_dt = t.below;
}

Err call_entry(Engine& e, std::string_view entry, const Args& a, void* target_va) {
  Request r = kRequestNull;
  int result[2] = {0, 0};
  if (entry == "isend") return e.isend(a.buf, a.count, a.dt, a.peer, a.tag, a.comm, &r);
  if (entry == "irecv") return e.irecv(a.buf, a.count, a.dt, a.peer, a.tag, a.comm, &r);
  if (entry == "isend_global") {
    return e.isend_global(a.buf, a.count, a.dt, a.peer, a.tag, a.comm, &r);
  }
  if (entry == "isend_npn") return e.isend_npn(a.buf, a.count, a.dt, a.peer, a.tag, a.comm, &r);
  if (entry == "isend_noreq") return e.isend_noreq(a.buf, a.count, a.dt, a.peer, a.tag, a.comm);
  if (entry == "isend_nomatch") return e.isend_nomatch(a.buf, a.count, a.dt, a.peer, a.comm, &r);
  if (entry == "irecv_nomatch") return e.irecv_nomatch(a.buf, a.count, a.dt, a.comm, &r);
  if (entry == "send_init") return e.send_init(a.buf, a.count, a.dt, a.peer, a.tag, a.comm, &r);
  if (entry == "recv_init") return e.recv_init(a.buf, a.count, a.dt, a.peer, a.tag, a.comm, &r);
  if (entry == "iprobe") {
    bool flag = false;
    return e.iprobe(a.peer, a.tag, a.comm, &flag, nullptr);
  }
  if (entry == "probe") return e.probe(a.peer, a.tag, a.comm, nullptr);
  if (entry == "put") {
    return e.put(a.buf, a.count, a.dt, a.peer, a.disp, a.count, a.target_dt, a.win);
  }
  if (entry == "put_va") return e.put_va(a.buf, a.count, a.dt, a.peer, target_va, a.win);
  if (entry == "get") {
    return e.get(a.buf, a.count, a.dt, a.peer, a.disp, a.count, a.target_dt, a.win);
  }
  if (entry == "accumulate") return e.accumulate(a.buf, a.count, a.dt, a.peer, a.disp, a.op, a.win);
  if (entry == "get_accumulate") {
    return e.get_accumulate(a.buf, a.count, a.dt, result, a.peer, a.disp, a.op, a.win);
  }
  ADD_FAILURE() << "unknown entry " << entry;
  return Err::Internal;
}

struct Hostile {
  const char* entry;
  const char* arg;
  Err expect;
};

const Hostile kHostile[] = {
    {"isend", "comm", Err::Comm},
    {"isend", "rank", Err::Rank},
    {"isend", "any_source", Err::Rank},
    {"isend", "tag", Err::Tag},
    {"isend", "count", Err::Count},
    {"isend", "buffer", Err::Buffer},
    {"isend", "datatype", Err::Datatype},
    {"irecv", "comm", Err::Comm},
    {"irecv", "rank", Err::Rank},
    {"irecv", "tag", Err::Tag},
    {"irecv", "count", Err::Count},
    {"irecv", "buffer", Err::Buffer},
    {"irecv", "datatype", Err::Datatype},
    {"isend_global", "comm", Err::Comm},
    {"isend_global", "rank", Err::Rank},
    {"isend_global", "any_source", Err::Rank},
    {"isend_global", "tag", Err::Tag},
    {"isend_global", "count", Err::Count},
    {"isend_global", "buffer", Err::Buffer},
    {"isend_global", "datatype", Err::Datatype},
    {"isend_npn", "comm", Err::Comm},
    {"isend_npn", "rank", Err::Rank},
    {"isend_npn", "any_source", Err::Rank},
    {"isend_npn", "tag", Err::Tag},
    {"isend_npn", "count", Err::Count},
    {"isend_npn", "buffer", Err::Buffer},
    {"isend_npn", "datatype", Err::Datatype},
    {"isend_noreq", "comm", Err::Comm},
    {"isend_noreq", "rank", Err::Rank},
    {"isend_noreq", "any_source", Err::Rank},
    {"isend_noreq", "tag", Err::Tag},
    {"isend_noreq", "count", Err::Count},
    {"isend_noreq", "buffer", Err::Buffer},
    {"isend_noreq", "datatype", Err::Datatype},
    {"isend_nomatch", "comm", Err::Comm},
    {"isend_nomatch", "rank", Err::Rank},
    {"isend_nomatch", "any_source", Err::Rank},
    {"isend_nomatch", "count", Err::Count},
    {"isend_nomatch", "buffer", Err::Buffer},
    {"isend_nomatch", "datatype", Err::Datatype},
    {"irecv_nomatch", "comm", Err::Comm},
    {"irecv_nomatch", "count", Err::Count},
    {"irecv_nomatch", "buffer", Err::Buffer},
    {"irecv_nomatch", "datatype", Err::Datatype},
    {"send_init", "comm", Err::Comm},
    {"send_init", "rank", Err::Rank},
    {"send_init", "any_source", Err::Rank},
    {"send_init", "tag", Err::Tag},
    {"send_init", "count", Err::Count},
    {"send_init", "buffer", Err::Buffer},
    {"send_init", "datatype", Err::Datatype},
    {"recv_init", "comm", Err::Comm},
    {"recv_init", "rank", Err::Rank},
    {"recv_init", "tag", Err::Tag},
    {"recv_init", "count", Err::Count},
    {"recv_init", "buffer", Err::Buffer},
    {"recv_init", "datatype", Err::Datatype},
    {"iprobe", "comm", Err::Comm},
    {"iprobe", "rank", Err::Rank},
    {"iprobe", "tag", Err::Tag},
    {"probe", "comm", Err::Comm},
    {"probe", "rank", Err::Rank},
    {"probe", "tag", Err::Tag},
    {"put", "win", Err::Win},
    {"put", "rank", Err::Rank},
    {"put", "count", Err::Count},
    {"put", "buffer", Err::Buffer},
    {"put", "datatype", Err::Datatype},
    {"put", "target_datatype", Err::Datatype},
    {"put", "disp_end", Err::Disp},
    {"put", "disp_wrap", Err::Disp},
    {"put", "gap_target", Err::Disp},
    {"put", "below_target", Err::Disp},
    {"put_va", "win", Err::Win},
    {"put_va", "rank", Err::Rank},
    {"put_va", "count", Err::Count},
    {"put_va", "buffer", Err::Buffer},
    {"put_va", "datatype", Err::Datatype},
    {"get", "win", Err::Win},
    {"get", "rank", Err::Rank},
    {"get", "count", Err::Count},
    {"get", "buffer", Err::Buffer},
    {"get", "datatype", Err::Datatype},
    {"get", "target_datatype", Err::Datatype},
    {"get", "disp_end", Err::Disp},
    {"get", "disp_wrap", Err::Disp},
    {"get", "gap_target", Err::Disp},
    {"get", "below_target", Err::Disp},
    {"accumulate", "win", Err::Win},
    {"accumulate", "rank", Err::Rank},
    {"accumulate", "count", Err::Count},
    {"accumulate", "buffer", Err::Buffer},
    {"accumulate", "datatype", Err::Datatype},
    {"accumulate", "op", Err::Op},
    {"accumulate", "disp_end", Err::Disp},
    {"accumulate", "disp_wrap", Err::Disp},
    {"get_accumulate", "win", Err::Win},
    {"get_accumulate", "rank", Err::Rank},
    {"get_accumulate", "count", Err::Count},
    {"get_accumulate", "buffer", Err::Buffer},
    {"get_accumulate", "datatype", Err::Datatype},
    {"get_accumulate", "op", Err::Op},
    {"get_accumulate", "disp_end", Err::Disp},
    {"get_accumulate", "disp_wrap", Err::Disp},
};

class HostileArgs : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(HostileArgs, EveryEntryNamesEachBadArgument) {
  WorldOptions o = fast_opts(GetParam());
  o.build = BuildConfig::dflt();
  World w(2, o);
  w.run([&](Engine& e) {
    std::vector<int> mem(4, 0);
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (e.world_rank() == 0) {
      BadTypes t;
      ASSERT_EQ(e.type_contiguous(1, kInt, &t.uncommitted), Err::Success);
      ASSERT_EQ(e.type_contiguous(2, kInt, &t.two_ints), Err::Success);
      ASSERT_EQ(e.type_commit(&t.two_ints), Err::Success);
      ASSERT_EQ(e.type_vector(2, 1, 2, kInt, &t.gap), Err::Success);
      ASSERT_EQ(e.type_commit(&t.gap), Err::Success);
      Datatype neg = kDatatypeNull;
      const int one = 1;
      const std::int64_t minus4 = -4;
      ASSERT_EQ(e.type_create_hindexed({&one, 1}, {&minus4, 1}, kInt, &neg), Err::Success);
      ASSERT_EQ(e.type_create_resized(neg, -4, 4, &t.below), Err::Success);
      ASSERT_EQ(e.type_commit(&t.below), Err::Success);
      ASSERT_EQ(e.type_free(&neg), Err::Success);
      void* target_va = nullptr;
      ASSERT_EQ(e.win_target_address(1, 0, win, &target_va), Err::Success);
      int data[2] = {5, 6};
      for (const Hostile& h : kHostile) {
        Args a;
        a.buf = data;
        a.win = win;
        break_arg(a, h.arg, t);
        EXPECT_EQ(call_entry(e, h.entry, a, target_va), h.expect) << h.entry << " " << h.arg;
      }
      EXPECT_EQ(e.live_requests(), 0u);
      EXPECT_EQ(e.posted_depth(), 0u);
      for (Datatype* d : {&t.uncommitted, &t.two_ints, &t.gap, &t.below}) {
        ASSERT_EQ(e.type_free(d), Err::Success);
      }
    }
    ASSERT_EQ(e.win_fence(win), Err::Success);
    EXPECT_EQ(mem, std::vector<int>(4, 0));
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

INSTANTIATE_TEST_SUITE_P(BothDevices, HostileArgs,
                         ::testing::Values(DeviceKind::Ch4, DeviceKind::Orig));

// MPI_NO_OP ignores get_accumulate's origin, so a null one is valid: the call
// fetches the target's value and leaves the target as it was, on both
// devices, with checking on and off.
class NoOpFetch : public ::testing::TestWithParam<std::tuple<DeviceKind, bool>> {};

TEST_P(NoOpFetch, NullOriginFetchesAndLeavesTheTarget) {
  const auto [device, checked] = GetParam();
  WorldOptions o = fast_opts(device);
  o.build = checked ? BuildConfig::dflt() : BuildConfig::no_err();
  World w(2, o);
  w.run([&](Engine& e) {
    std::vector<int> mem = {10 + e.world_rank(), 20, 30, 40};
    Win win = kWinNull;
    ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                           &win),
              Err::Success);
    ASSERT_EQ(e.win_fence(win), Err::Success);
    int result[2] = {-1, -1};
    if (e.world_rank() == 0) {
      ASSERT_EQ(e.get_accumulate(nullptr, 2, kInt, result, 1, 1, ReduceOp::NoOp, win),
                Err::Success);
    }
    ASSERT_EQ(e.win_fence(win), Err::Success);
    if (e.world_rank() == 0) {
      EXPECT_EQ(result[0], 20);
      EXPECT_EQ(result[1], 30);
    }
    EXPECT_EQ(mem, (std::vector<int>{10 + e.world_rank(), 20, 30, 40}));
    ASSERT_EQ(e.win_free(&win), Err::Success);
  });
}

INSTANTIATE_TEST_SUITE_P(BothDevicesBothChecks, NoOpFetch,
                         ::testing::Combine(::testing::Values(DeviceKind::Ch4, DeviceKind::Orig),
                                            ::testing::Bool()),
                         [](const auto& info) {
                           return std::string(std::get<0>(info.param) == DeviceKind::Ch4
                                                  ? "ch4"
                                                  : "orig") +
                                  (std::get<1>(info.param) ? "_default" : "_no_err");
                         });

}  // namespace
}  // namespace lwmpi
