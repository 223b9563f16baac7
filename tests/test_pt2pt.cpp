// Point-to-point integration tests over both devices, eager and rendezvous
// protocols, wildcards, ordering, truncation, and probe.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "util.hpp"

namespace lwmpi {
namespace {

using test::fast_opts;
using test::spmd;

// Parameter: (device, message bytes). Sizes straddle the eager threshold.
// gtest prints a parameter that has no printer as a dump of its bytes, and
// gtest_discover_tests puts that dump into the ctest name. The four bytes
// between the fields are therefore an explicit zero member: as padding they
// held stack garbage, and the names changed with the length of the build path.
struct PtParam {
  PtParam(DeviceKind d, std::size_t n) : device(d), bytes(n) {}
  DeviceKind device;
  std::uint32_t zero = 0;
  std::size_t bytes;
};
static_assert(sizeof(DeviceKind) == 4 && sizeof(PtParam) == 16);

class Pt2PtSweep : public ::testing::TestWithParam<PtParam> {};

TEST_P(Pt2PtSweep, PingPongPreservesData) {
  const PtParam p = GetParam();
  const auto n = static_cast<int>(p.bytes);
  spmd(
      2,
      [&](Engine& e) {
        std::vector<char> buf(p.bytes);
        if (e.world_rank() == 0) {
          for (std::size_t i = 0; i < p.bytes; ++i) {
            buf[i] = static_cast<char>(i * 7 + 3);
          }
          ASSERT_EQ(e.send(buf.data(), n, kChar, 1, 5, kCommWorld), Err::Success);
          std::vector<char> back(p.bytes, 0);
          Status st;
          ASSERT_EQ(e.recv(back.data(), n, kChar, 1, 6, kCommWorld, &st), Err::Success);
          EXPECT_EQ(st.byte_count, p.bytes);
          EXPECT_EQ(std::memcmp(back.data(), buf.data(), p.bytes), 0);
        } else {
          std::vector<char> in(p.bytes, 0);
          Status st;
          ASSERT_EQ(e.recv(in.data(), n, kChar, 0, 5, kCommWorld, &st), Err::Success);
          EXPECT_EQ(st.source, 0);
          EXPECT_EQ(st.tag, 5);
          EXPECT_EQ(st.byte_count, p.bytes);
          ASSERT_EQ(e.send(in.data(), n, kChar, 0, 6, kCommWorld), Err::Success);
        }
      },
      fast_opts(p.device));
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSizes, Pt2PtSweep,
    ::testing::Values(PtParam{DeviceKind::Ch4, 1}, PtParam{DeviceKind::Ch4, 64},
                      PtParam{DeviceKind::Ch4, 4096}, PtParam{DeviceKind::Ch4, 16 * 1024},
                      PtParam{DeviceKind::Ch4, 16 * 1024 + 1},  // first rendezvous size
                      PtParam{DeviceKind::Ch4, 1 << 20},        // multi-segment rendezvous
                      PtParam{DeviceKind::Orig, 1}, PtParam{DeviceKind::Orig, 4096},
                      PtParam{DeviceKind::Orig, 16 * 1024 + 1},
                      PtParam{DeviceKind::Orig, 1 << 20}));

class Pt2PtDevice : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(Pt2PtDevice, UnexpectedMessageIsBuffered) {
  spmd(
      2,
      [](Engine& e) {
        if (e.world_rank() == 0) {
          int v = 99;
          ASSERT_EQ(e.send(&v, 1, kInt, 1, 7, kCommWorld), Err::Success);
          // Handshake so rank 1 only posts the receive afterwards.
          int token = 0;
          ASSERT_EQ(e.send(&token, 1, kInt, 1, 8, kCommWorld), Err::Success);
        } else {
          int token = -1;
          ASSERT_EQ(e.recv(&token, 1, kInt, 0, 8, kCommWorld, nullptr), Err::Success);
          // The tag-7 message arrived before this receive was posted.
          int v = 0;
          ASSERT_EQ(e.recv(&v, 1, kInt, 0, 7, kCommWorld, nullptr), Err::Success);
          EXPECT_EQ(v, 99);
        }
      },
      fast_opts(GetParam()));
}

TEST_P(Pt2PtDevice, TagSelectsAmongSenders) {
  spmd(
      2,
      [](Engine& e) {
        if (e.world_rank() == 0) {
          int a = 1, b = 2, c = 3;
          ASSERT_EQ(e.send(&a, 1, kInt, 1, 10, kCommWorld), Err::Success);
          ASSERT_EQ(e.send(&b, 1, kInt, 1, 11, kCommWorld), Err::Success);
          ASSERT_EQ(e.send(&c, 1, kInt, 1, 12, kCommWorld), Err::Success);
        } else {
          int v = 0;
          // Receive out of send order by tag.
          ASSERT_EQ(e.recv(&v, 1, kInt, 0, 12, kCommWorld, nullptr), Err::Success);
          EXPECT_EQ(v, 3);
          ASSERT_EQ(e.recv(&v, 1, kInt, 0, 10, kCommWorld, nullptr), Err::Success);
          EXPECT_EQ(v, 1);
          ASSERT_EQ(e.recv(&v, 1, kInt, 0, 11, kCommWorld, nullptr), Err::Success);
          EXPECT_EQ(v, 2);
        }
      },
      fast_opts(GetParam()));
}

TEST_P(Pt2PtDevice, SameTagDeliveredInOrder) {
  spmd(
      2,
      [](Engine& e) {
        constexpr int kN = 50;
        if (e.world_rank() == 0) {
          for (int i = 0; i < kN; ++i) {
            ASSERT_EQ(e.send(&i, 1, kInt, 1, 3, kCommWorld), Err::Success);
          }
        } else {
          for (int i = 0; i < kN; ++i) {
            int v = -1;
            ASSERT_EQ(e.recv(&v, 1, kInt, 0, 3, kCommWorld, nullptr), Err::Success);
            EXPECT_EQ(v, i);  // non-overtaking
          }
        }
      },
      fast_opts(GetParam()));
}

TEST_P(Pt2PtDevice, AnySourceReceives) {
  spmd(
      3,
      [](Engine& e) {
        if (e.world_rank() == 0) {
          int seen_sum = 0;
          for (int i = 0; i < 2; ++i) {
            int v = 0;
            Status st;
            ASSERT_EQ(e.recv(&v, 1, kInt, kAnySource, 1, kCommWorld, &st), Err::Success);
            EXPECT_EQ(st.source, v);  // sender encodes its rank
            seen_sum += v;
          }
          EXPECT_EQ(seen_sum, 3);  // ranks 1 and 2
        } else {
          int me = e.world_rank();
          ASSERT_EQ(e.send(&me, 1, kInt, 0, 1, kCommWorld), Err::Success);
        }
      },
      fast_opts(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(BothDevices, Pt2PtDevice,
                         ::testing::Values(DeviceKind::Ch4, DeviceKind::Orig));

TEST(Pt2Pt, ProcNullSendAndRecvCompleteImmediately) {
  spmd(1, [](Engine& e) {
    int v = 5;
    ASSERT_EQ(e.send(&v, 1, kInt, kProcNull, 0, kCommWorld), Err::Success);
    Status st;
    int r = 7;
    ASSERT_EQ(e.recv(&r, 1, kInt, kProcNull, 0, kCommWorld, &st), Err::Success);
    EXPECT_EQ(st.source, kProcNull);
    EXPECT_EQ(st.byte_count, 0u);
    EXPECT_EQ(r, 7);  // untouched
  });
}

TEST(Pt2Pt, SelfSendWithNonblockingPair) {
  spmd(1, [](Engine& e) {
    int out = 41, in = 0;
    Request rr = kRequestNull, sr = kRequestNull;
    ASSERT_EQ(e.irecv(&in, 1, kInt, 0, 2, kCommWorld, &rr), Err::Success);
    ASSERT_EQ(e.isend(&out, 1, kInt, 0, 2, kCommWorld, &sr), Err::Success);
    ASSERT_EQ(e.wait(&sr, nullptr), Err::Success);
    ASSERT_EQ(e.wait(&rr, nullptr), Err::Success);
    EXPECT_EQ(in, 41);
  });
}

TEST(Pt2Pt, TruncationReportsError) {
  spmd(2, [](Engine& e) {
    if (e.world_rank() == 0) {
      int big[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      ASSERT_EQ(e.send(big, 8, kInt, 1, 1, kCommWorld), Err::Success);
    } else {
      int small[2] = {0, 0};
      Status st;
      EXPECT_EQ(e.recv(small, 2, kInt, 0, 1, kCommWorld, &st), Err::Truncate);
      EXPECT_EQ(st.byte_count, 8u);  // what fit
      EXPECT_EQ(small[0], 1);
      EXPECT_EQ(small[1], 2);
    }
  });
}

TEST(Pt2Pt, RendezvousTruncationAlsoReports) {
  spmd(2, [](Engine& e) {
    constexpr int kBig = 64 * 1024;  // over eager threshold
    if (e.world_rank() == 0) {
      std::vector<int> big(kBig, 3);
      ASSERT_EQ(e.send(big.data(), kBig, kInt, 1, 1, kCommWorld), Err::Success);
    } else {
      std::vector<int> small(128, 0);
      Status st;
      EXPECT_EQ(e.recv(small.data(), 128, kInt, 0, 1, kCommWorld, &st), Err::Truncate);
      EXPECT_EQ(st.byte_count, 128u * 4);
      EXPECT_EQ(small[0], 3);
      EXPECT_EQ(small[127], 3);
    }
  });
}

TEST(Pt2Pt, DerivedDatatypeTransfer) {
  spmd(2, [](Engine& e) {
    // Sender transmits a column of a 4x4 matrix; receiver stores contiguously.
    if (e.world_rank() == 0) {
      Datatype col = kDatatypeNull;
      ASSERT_EQ(e.type_vector(4, 1, 4, kInt, &col), Err::Success);
      ASSERT_EQ(e.type_commit(&col), Err::Success);
      int m[16];
      std::iota(m, m + 16, 0);
      ASSERT_EQ(e.send(&m[2], 1, col, 1, 1, kCommWorld), Err::Success);
      ASSERT_EQ(e.type_free(&col), Err::Success);
    } else {
      int got[4] = {0};
      Status st;
      ASSERT_EQ(e.recv(got, 4, kInt, 0, 1, kCommWorld, &st), Err::Success);
      EXPECT_EQ(st.byte_count, 16u);
      EXPECT_EQ(got[0], 2);
      EXPECT_EQ(got[1], 6);
      EXPECT_EQ(got[2], 10);
      EXPECT_EQ(got[3], 14);
    }
  });
}

TEST(Pt2Pt, NoncontiguousRendezvousRoundTrip) {
  spmd(2, [](Engine& e) {
    constexpr int kRows = 512;  // 512 rows x 32 ints picked = 64 KiB > eager
    Datatype rows = kDatatypeNull;
    ASSERT_EQ(e.type_vector(kRows, 32, 64, kInt, &rows), Err::Success);
    ASSERT_EQ(e.type_commit(&rows), Err::Success);
    std::vector<int> buf(static_cast<std::size_t>(kRows) * 64, -1);
    if (e.world_rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<int>(i);
      ASSERT_EQ(e.send(buf.data(), 1, rows, 1, 1, kCommWorld), Err::Success);
    } else {
      ASSERT_EQ(e.recv(buf.data(), 1, rows, 0, 1, kCommWorld, nullptr), Err::Success);
      // Selected regions carry data; gaps remain -1.
      EXPECT_EQ(buf[0], 0);
      EXPECT_EQ(buf[31], 31);
      EXPECT_EQ(buf[32], -1);
      EXPECT_EQ(buf[64], 64);
    }
    ASSERT_EQ(e.type_free(&rows), Err::Success);
  });
}

TEST(Pt2Pt, TestPollsWithoutBlocking) {
  spmd(2, [](Engine& e) {
    if (e.world_rank() == 0) {
      int token = 0;
      ASSERT_EQ(e.recv(&token, 1, kInt, 1, 2, kCommWorld, nullptr), Err::Success);
      int v = 13;
      ASSERT_EQ(e.send(&v, 1, kInt, 1, 1, kCommWorld), Err::Success);
    } else {
      int v = 0;
      Request r = kRequestNull;
      ASSERT_EQ(e.irecv(&v, 1, kInt, 0, 1, kCommWorld, &r), Err::Success);
      bool flag = true;
      ASSERT_EQ(e.test(&r, &flag, nullptr), Err::Success);
      EXPECT_FALSE(flag);  // nothing sent yet
      int token = 1;
      ASSERT_EQ(e.send(&token, 1, kInt, 0, 2, kCommWorld), Err::Success);
      while (!flag) {
        ASSERT_EQ(e.test(&r, &flag, nullptr), Err::Success);
      }
      EXPECT_EQ(v, 13);
      EXPECT_EQ(r, kRequestNull);
    }
  });
}

TEST(Pt2Pt, ProbeReportsEnvelope) {
  spmd(2, [](Engine& e) {
    if (e.world_rank() == 0) {
      double xs[3] = {1.5, 2.5, 3.5};
      ASSERT_EQ(e.send(xs, 3, kDouble, 1, 9, kCommWorld), Err::Success);
    } else {
      Status st;
      ASSERT_EQ(e.probe(0, 9, kCommWorld, &st), Err::Success);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
      EXPECT_EQ(st.byte_count, 24u);
      const auto n = static_cast<int>(st.count_elems(sizeof(double)));
      std::vector<double> buf(static_cast<std::size_t>(n));
      ASSERT_EQ(e.recv(buf.data(), n, kDouble, 0, 9, kCommWorld, nullptr), Err::Success);
      EXPECT_EQ(buf[2], 3.5);
    }
  });
}

// MPI-3.1 §3.11: a probe of MPI_PROC_NULL returns at once with source
// MPI_PROC_NULL, tag MPI_ANY_TAG and count 0, checking on or off. A probe
// that never returns fails the test after a deadline instead of hanging it:
// nothing can wake a probe of a rank that sends nothing.
TEST(Pt2Pt, ProbeOfProcNullReturnsAtOnce) {
  for (const BuildConfig& b : {BuildConfig::dflt(), BuildConfig::no_err(),
                               BuildConfig::no_err_single(),
                               BuildConfig::no_err_single_ipo()}) {
    WorldOptions o = fast_opts();
    o.build = b;
    std::atomic<bool> returned{false};
    std::thread deadline([&] {
      const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!returned.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > until) {
          std::fprintf(stderr, "probe(kProcNull) did not return in the %s build\n",
                       b.label().c_str());
          std::_Exit(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    spmd(1, [&](Engine& e) {
      bool flag = false;
      Status st;
      st.source = 0;
      st.tag = 0;
      st.byte_count = 99;
      EXPECT_EQ(e.iprobe(kProcNull, 5, kCommWorld, &flag, &st), Err::Success) << b.label();
      EXPECT_TRUE(flag) << b.label();
      EXPECT_EQ(st.source, kProcNull);
      EXPECT_EQ(st.tag, kAnyTag);
      EXPECT_EQ(st.byte_count, 0u);
      st = Status{};
      st.byte_count = 99;
      EXPECT_EQ(e.probe(kProcNull, kAnyTag, kCommWorld, &st), Err::Success) << b.label();
      EXPECT_EQ(st.source, kProcNull);
      EXPECT_EQ(st.tag, kAnyTag);
      EXPECT_EQ(st.byte_count, 0u);
      // A null status is allowed, as for any probe.
      EXPECT_EQ(e.probe(kProcNull, 0, kCommWorld, nullptr), Err::Success);
    }, o);
    returned.store(true, std::memory_order_release);
    deadline.join();
  }
}

TEST(Pt2Pt, CancelReleasesPostedReceive) {
  spmd(1, [](Engine& e) {
    int v = 0;
    Request r = kRequestNull;
    ASSERT_EQ(e.irecv(&v, 1, kInt, 0, 1, kCommWorld, &r), Err::Success);
    ASSERT_EQ(e.cancel(&r), Err::Success);
    ASSERT_EQ(e.wait(&r, nullptr), Err::Success);
    EXPECT_EQ(e.posted_depth(), 0u);
    EXPECT_EQ(e.live_requests(), 0u);
  });
}

TEST(Pt2Pt, SendrecvExchanges) {
  spmd(2, [](Engine& e) {
    const int me = e.world_rank();
    const Rank other = 1 - me;
    int out = 100 + me;
    int in = -1;
    Status st;
    ASSERT_EQ(e.sendrecv(&out, 1, kInt, other, 4, &in, 1, kInt, other, 4, kCommWorld, &st),
              Err::Success);
    EXPECT_EQ(in, 100 + other);
    EXPECT_EQ(st.source, other);
  });
}

TEST(Pt2Pt, ManyOutstandingRequests) {
  spmd(2, [](Engine& e) {
    constexpr int kN = 64;
    std::vector<int> data(kN);
    std::vector<Request> reqs(kN, kRequestNull);
    if (e.world_rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        data[static_cast<std::size_t>(i)] = i * i;
        ASSERT_EQ(e.isend(&data[static_cast<std::size_t>(i)], 1, kInt, 1,
                          static_cast<Tag>(i), kCommWorld,
                          &reqs[static_cast<std::size_t>(i)]),
                  Err::Success);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        ASSERT_EQ(e.irecv(&data[static_cast<std::size_t>(i)], 1, kInt, 0,
                          static_cast<Tag>(i), kCommWorld,
                          &reqs[static_cast<std::size_t>(i)]),
                  Err::Success);
      }
    }
    ASSERT_EQ(e.waitall(reqs, {}), Err::Success);
    if (e.world_rank() == 1) {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i * i);
    }
    EXPECT_EQ(e.live_requests(), 0u);
  });
}

TEST(Pt2Pt, WaitOnNullRequestIsNoop) {
  spmd(1, [](Engine& e) {
    Request r = kRequestNull;
    Status st;
    EXPECT_EQ(e.wait(&r, &st), Err::Success);
    bool flag = false;
    EXPECT_EQ(e.test(&r, &flag, nullptr), Err::Success);
    EXPECT_TRUE(flag);
  });
}

TEST(Pt2Pt, CrossNodeAndIntraNodeBothWork) {
  WorldOptions o = fast_opts();
  o.ranks_per_node = 2;  // ranks {0,1} node 0, {2,3} node 1
  spmd(
      4,
      [](Engine& e) {
        const int me = e.world_rank();
        const Rank peer = static_cast<Rank>(me ^ 2);  // cross-node pairing
        int out = me, in = -1;
        ASSERT_EQ(e.sendrecv(&out, 1, kInt, peer, 1, &in, 1, kInt, peer, 1, kCommWorld,
                             nullptr),
                  Err::Success);
        EXPECT_EQ(in, me ^ 2);
        const Rank nbr = static_cast<Rank>(me ^ 1);  // intra-node pairing
        out = me * 10;
        ASSERT_EQ(e.sendrecv(&out, 1, kInt, nbr, 2, &in, 1, kInt, nbr, 2, kCommWorld,
                             nullptr),
                  Err::Success);
        EXPECT_EQ(in, (me ^ 1) * 10);
      },
      o);
}

}  // namespace
}  // namespace lwmpi
