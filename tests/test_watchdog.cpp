// Hang-diagnosis watchdog (obs/watchdog.hpp): a genuinely deadlocked tag
// mismatch must be diagnosed with the stuck rank, its blocking call, and the
// unmatched (comm, tag, peer); fires() must count an episode only once its
// outputs exist; slow-but-progressing rendezvous traffic must never trip it.
// The tests run real rank threads plus the watchdog's sampling thread, so
// they carry the concurrency label and run under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/watchdog.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

TEST(Watchdog, DiagnosesTagMismatchDeadlock) {
  WorldOptions o = test::fast_opts();
  o.build.lat_sample_shift = 0;  // stamp every post: the diagnosis carries ages
  World w(2, o);

  obs::WatchdogOptions wo;
  wo.stall_ns = 150'000'000;  // generous under TSan, short enough for a test
  wo.poll_ns = 20'000'000;
  wo.report_path = "watchdog_report_test.json";  // cwd = build tree
  std::atomic<int> callbacks{0};
  wo.on_hang = [&](const obs::HangReport&) { callbacks.fetch_add(1); };
  obs::Watchdog wd(w, wo);

  w.run([&](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      // The bug under diagnosis: rank 0 sends tag 7, rank 1 waits on tag 42.
      ASSERT_EQ(e.send(&b, 1, kChar, 1, 7, kCommWorld), Err::Success);
      while (wd.fires() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      // Rescue send so the test terminates once the hang is diagnosed.
      ASSERT_EQ(e.send(&b, 1, kChar, 1, 42, kCommWorld), Err::Success);
    } else {
      ASSERT_EQ(e.recv(&b, 1, kChar, 0, 42, kCommWorld, nullptr), Err::Success);
    }
  });

  ASSERT_GE(wd.fires(), 1);
  EXPECT_GE(callbacks.load(), 1);
  const obs::HangReport r = wd.last_report();
  EXPECT_EQ(r.nranks, 2);

  // Rank 1 must be named, blocked in Wait, with the full story: the unmatched
  // posted receive (src 0, tag 42) and the tag-7 arrival it rejected.
  const obs::StuckRank* rank1 = nullptr;
  for (const obs::StuckRank& s : r.stuck) {
    if (s.rank == 1) rank1 = &s;
  }
  ASSERT_NE(rank1, nullptr);
  EXPECT_STREQ(rank1->call, "Wait");
  EXPECT_GE(rank1->blocked_ns, wo.stall_ns / 2);
  EXPECT_GE(rank1->stalled_ns, wo.stall_ns);

  ASSERT_TRUE(rank1->snap.oldest.valid);
  EXPECT_STREQ(rank1->snap.oldest.kind, "recv");
  EXPECT_EQ(rank1->snap.oldest.comm, kCommWorld);
  EXPECT_EQ(rank1->snap.oldest.peer, 0);
  EXPECT_EQ(rank1->snap.oldest.tag, 42);

  std::size_t posted = 0, unexpected = 0;
  for (const auto& v : rank1->snap.vcis) {
    for (const auto& p : v.posted) {
      ++posted;
      EXPECT_EQ(p.comm, kCommWorld);
      EXPECT_EQ(p.src, 0);
      EXPECT_EQ(p.tag, 42);
    }
    for (const auto& u : v.unexpected) {
      ++unexpected;
      EXPECT_EQ(u.src, 0);
      EXPECT_EQ(u.tag, 7);
    }
  }
  EXPECT_EQ(posted, 1u);
  EXPECT_EQ(unexpected, 1u);

  const std::string text = obs::render_text(r);
  EXPECT_NE(text.find("rank 1"), std::string::npos);
  EXPECT_NE(text.find("Wait"), std::string::npos);
  EXPECT_NE(text.find("tag=42"), std::string::npos);

  // The report file (what `lwmpi hang` reads) carries the same diagnosis.
  std::ifstream f(wo.report_path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"stuck\":["), std::string::npos);
  EXPECT_NE(json.find("\"rank\":1"), std::string::npos);
  EXPECT_NE(json.find("\"call\":\"Wait\""), std::string::npos);
  EXPECT_NE(json.find("\"tag\":42"), std::string::npos);
}

TEST(Watchdog, FiresCountsAnEpisodeAfterItsOutputs) {
  // A slow on_hang: if fires() were bumped before the report file and the
  // callback, a caller polling fires() would see the episode half-written.
  World w(2, test::fast_opts());
  obs::WatchdogOptions wo;
  wo.stall_ns = 150'000'000;
  wo.poll_ns = 20'000'000;
  wo.report_path = "watchdog_fires_order_test.json";  // cwd = build tree
  std::remove(wo.report_path.c_str());
  std::atomic<bool> returned{false};
  wo.on_hang = [&](const obs::HangReport&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    returned.store(true, std::memory_order_release);
  };
  obs::Watchdog wd(w, wo);

  bool returned_at_fire = false;
  std::string report;
  w.run([&](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      ASSERT_EQ(e.send(&b, 1, kChar, 1, 7, kCommWorld), Err::Success);
      while (wd.fires() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Sample both outputs the moment the episode is counted.
      returned_at_fire = returned.load(std::memory_order_acquire);
      ASSERT_TRUE(obs::json::read_file(wo.report_path, &report));
      ASSERT_EQ(e.send(&b, 1, kChar, 1, 42, kCommWorld), Err::Success);
    } else {
      ASSERT_EQ(e.recv(&b, 1, kChar, 0, 42, kCommWorld, nullptr), Err::Success);
    }
  });

  EXPECT_TRUE(returned_at_fire);
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse_one_line(report, &v, &err)) << err;
  EXPECT_EQ(v["nranks"].i64(), 2);
  EXPECT_FALSE(v["stuck"].arr.empty());
}

TEST(Watchdog, NoFalsePositiveOnSlowRendezvousTraffic) {
  // Rendezvous traffic where the receiver is chronically late, but always
  // late by less than the stall window: every arrival is progress, so the
  // watchdog must stay silent end to end.
  WorldOptions o = test::fast_opts();
  o.eager_threshold = 1024;  // 64 KiB payloads take the rendezvous path
  World w(2, o);

  obs::WatchdogOptions wo;
  wo.stall_ns = 600'000'000;
  wo.poll_ns = 20'000'000;
  obs::Watchdog wd(w, wo);

  constexpr int kMsgs = 5;
  constexpr int kBytes = 64 * 1024;
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      std::vector<char> out(kBytes, 's');
      std::vector<Request> reqs(kMsgs, kRequestNull);
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_EQ(e.isend(out.data(), kBytes, kChar, 1, i, kCommWorld,
                          &reqs[static_cast<std::size_t>(i)]),
                  Err::Success);
      }
      ASSERT_EQ(e.waitall(reqs, {}), Err::Success);
    } else {
      std::vector<char> in(kBytes, 0);
      for (int i = 0; i < kMsgs; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        ASSERT_EQ(e.recv(in.data(), kBytes, kChar, 0, i, kCommWorld, nullptr),
                  Err::Success);
        ASSERT_EQ(in[kBytes / 2], 's');
      }
    }
  });

  EXPECT_EQ(wd.fires(), 0);
  EXPECT_TRUE(wd.last_report().stuck.empty());
}

// Every blocking call names itself to the watchdog while it waits, and the
// name clears once the call returns. Rank 0 makes the call; rank 1 withholds
// what it needs (a message, a lock, an acknowledgement, a token) until a
// poller thread has read the call's name from Engine::blocking_call(). Rank 0
// starts the call only once rank 1 has gone quiet, so nothing rank 1 is
// still progressing can answer it early.
struct Stall {
  struct Ctx {  // one per rank
    std::atomic<bool>& locked;  // shared: rank 0 holds its orig-device lock
    Win win = kWinNull;
    Datatype dt = kDatatypeNull;
    std::vector<int> buf = std::vector<int>(16, 0);
  };
  using Step = std::function<void(Engine&, Ctx&)>;
  static void nothing(Engine&, Ctx&) {}

  const char* call;
  DeviceKind device;
  bool window;     // both ranks create (and at the end free) a window first
  Step block;      // rank 0, once rank 1 is quiet: the blocking call
  Step supply;     // rank 1, after the release
  Step prepare = nothing;   // rank 0, before rank 1 goes quiet
  Step withhold = nothing;  // rank 1, before it goes quiet
};

Group group_of(Engine& e, int rank) {
  Group world = kGroupNull, g = kGroupNull;
  EXPECT_EQ(e.comm_group(kCommWorld, &world), Err::Success);
  const int idx[] = {rank};
  EXPECT_EQ(e.group_incl(world, idx, &g), Err::Success);
  EXPECT_EQ(e.group_free(&world), Err::Success);
  return g;
}

void send_one(Engine& e, Stall::Ctx& c) {
  ASSERT_EQ(e.send(c.buf.data(), 1, kInt, 0, 3, kCommWorld), Err::Success);
}

const Stall kStalls[] = {
    {"Wait", DeviceKind::Ch4, false,
     [](Engine& e, Stall::Ctx& c) {
       Request r = kRequestNull;
       ASSERT_EQ(e.irecv(c.buf.data(), 1, kInt, 1, 3, kCommWorld, &r), Err::Success);
       ASSERT_EQ(e.wait(&r, nullptr), Err::Success);
     },
     send_one},
    {"Waitany", DeviceKind::Ch4, false,
     [](Engine& e, Stall::Ctx& c) {
       Request r[1] = {kRequestNull};
       ASSERT_EQ(e.irecv(c.buf.data(), 1, kInt, 1, 3, kCommWorld, &r[0]), Err::Success);
       int index = -1;
       ASSERT_EQ(e.waitany(r, &index, nullptr), Err::Success);
       EXPECT_EQ(index, 0);
     },
     send_one},
    {"Probe", DeviceKind::Ch4, false,
     [](Engine& e, Stall::Ctx& c) {
       ASSERT_EQ(e.probe(1, 3, kCommWorld, nullptr), Err::Success);
       ASSERT_EQ(e.recv(c.buf.data(), 1, kInt, 1, 3, kCommWorld, nullptr), Err::Success);
     },
     send_one},
    {"Comm_waitall", DeviceKind::Ch4, false,
     [](Engine& e, Stall::Ctx& c) {
       // 64 bytes over the 16-byte threshold: a rendezvous that completes
       // only when rank 1 posts its receive.
       ASSERT_EQ(e.isend_noreq(c.buf.data(), 16, kInt, 1, 3, kCommWorld), Err::Success);
       ASSERT_EQ(e.comm_waitall(kCommWorld), Err::Success);
     },
     [](Engine& e, Stall::Ctx& c) {
       ASSERT_EQ(e.recv(c.buf.data(), 16, kInt, 0, 3, kCommWorld, nullptr), Err::Success);
     }},
    {"Barrier", DeviceKind::Ch4, false,
     [](Engine& e, Stall::Ctx&) { ASSERT_EQ(e.barrier(kCommWorld), Err::Success); },
     [](Engine& e, Stall::Ctx&) { ASSERT_EQ(e.barrier(kCommWorld), Err::Success); }},
    {"Win_fence", DeviceKind::Ch4, true,
     [](Engine& e, Stall::Ctx& c) { ASSERT_EQ(e.win_fence(c.win), Err::Success); },
     [](Engine& e, Stall::Ctx& c) { ASSERT_EQ(e.win_fence(c.win), Err::Success); }},
    {"Win_flush", DeviceKind::Ch4, true,
     [](Engine& e, Stall::Ctx& c) {
       // A strided put travels as an active message; its acknowledgement
       // needs rank 1's progress.
       ASSERT_EQ(e.put(c.buf.data(), 1, c.dt, 1, 0, 1, c.dt, c.win), Err::Success);
       ASSERT_EQ(e.win_flush(1, c.win), Err::Success);
       ASSERT_EQ(e.win_unlock(1, c.win), Err::Success);
       ASSERT_EQ(e.type_free(&c.dt), Err::Success);
     },
     Stall::nothing,
     [](Engine& e, Stall::Ctx& c) {
       ASSERT_EQ(e.type_vector(2, 1, 2, kInt, &c.dt), Err::Success);
       ASSERT_EQ(e.type_commit(&c.dt), Err::Success);
       ASSERT_EQ(e.win_lock(LockType::Exclusive, 1, c.win), Err::Success);
     }},
    {"Win_lock", DeviceKind::Ch4, true,
     [](Engine& e, Stall::Ctx& c) {
       ASSERT_EQ(e.win_lock(LockType::Shared, 1, c.win), Err::Success);
       ASSERT_EQ(e.win_unlock(1, c.win), Err::Success);
     },
     [](Engine& e, Stall::Ctx& c) { ASSERT_EQ(e.win_unlock(1, c.win), Err::Success); },
     Stall::nothing,
     [](Engine& e, Stall::Ctx& c) {
       ASSERT_EQ(e.win_lock(LockType::Exclusive, 1, c.win), Err::Success);
     }},
    {"Win_lock", DeviceKind::Orig, true,
     [](Engine& e, Stall::Ctx& c) {
       // The grant is an active message that rank 1's progress answers.
       ASSERT_EQ(e.win_lock(LockType::Exclusive, 1, c.win), Err::Success);
       ASSERT_EQ(e.win_unlock(1, c.win), Err::Success);
     },
     Stall::nothing},
    {"Win_unlock", DeviceKind::Orig, true,
     [](Engine& e, Stall::Ctx& c) { ASSERT_EQ(e.win_unlock(1, c.win), Err::Success); },
     Stall::nothing,
     [](Engine& e, Stall::Ctx& c) {
       ASSERT_EQ(e.win_lock(LockType::Exclusive, 1, c.win), Err::Success);
       c.locked.store(true, std::memory_order_release);
     },
     [](Engine& e, Stall::Ctx& c) {
       // Answer until the lock is granted.
       while (!c.locked.load(std::memory_order_acquire)) e.progress();
     }},
    {"Win_start", DeviceKind::Ch4, true,
     [](Engine& e, Stall::Ctx& c) {
       Group g = group_of(e, 1);
       ASSERT_EQ(e.win_start(g, c.win), Err::Success);
       ASSERT_EQ(e.win_complete(c.win), Err::Success);
       ASSERT_EQ(e.group_free(&g), Err::Success);
     },
     [](Engine& e, Stall::Ctx& c) {
       Group g = group_of(e, 0);
       ASSERT_EQ(e.win_post(g, c.win), Err::Success);
       ASSERT_EQ(e.win_wait(c.win), Err::Success);
       ASSERT_EQ(e.group_free(&g), Err::Success);
     }},
    {"Win_wait", DeviceKind::Ch4, true,
     [](Engine& e, Stall::Ctx& c) {
       Group g = group_of(e, 1);
       ASSERT_EQ(e.win_post(g, c.win), Err::Success);
       ASSERT_EQ(e.win_wait(c.win), Err::Success);
       ASSERT_EQ(e.group_free(&g), Err::Success);
     },
     [](Engine& e, Stall::Ctx& c) {
       Group g = group_of(e, 0);
       ASSERT_EQ(e.win_start(g, c.win), Err::Success);
       ASSERT_EQ(e.win_complete(c.win), Err::Success);
       ASSERT_EQ(e.group_free(&g), Err::Success);
     }},
};

// gtest names each instance by its printed parameter: print the call.
void PrintTo(const Stall& s, std::ostream* os) {
  *os << s.call << " on " << to_string(s.device);
}

class BlockingCall : public ::testing::TestWithParam<Stall> {};

TEST_P(BlockingCall, NamesItselfWhileStalled) {
  const Stall& s = GetParam();
  WorldOptions o = test::fast_opts(s.device);
  o.eager_threshold = 16;
  World w(2, o);
  std::atomic<bool> locked{false};
  Stall::Ctx ctxs[2] = {{locked}, {locked}};
  std::atomic<bool> quiet{false};    // rank 1 makes no more progress
  std::atomic<bool> release{false};  // rank 1 may supply what rank 0 waits for
  std::string seen;
  // Bounded by a generous deadline (TSan); on timeout the peer is released
  // anyway so the world still finishes and the mismatch is reported.
  std::thread poller([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (const char* call = w.engine(0).blocking_call(); call != nullptr) {
        seen = call;
        if (seen == s.call) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    release.store(true, std::memory_order_release);
  });
  const auto until = [](const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  w.run([&](Engine& e) {
    Stall::Ctx& ctx = ctxs[e.world_rank()];
    if (s.window) {
      ASSERT_EQ(e.win_create(ctx.buf.data(), ctx.buf.size() * sizeof(int), sizeof(int),
                             kCommWorld, &ctx.win),
                Err::Success);
    }
    if (e.world_rank() == 0) {
      s.prepare(e, ctx);
      until(quiet);
      s.block(e, ctx);
      EXPECT_EQ(e.blocking_call(), nullptr);
    } else {
      s.withhold(e, ctx);
      quiet.store(true, std::memory_order_release);
      until(release);
      s.supply(e, ctx);
    }
    if (s.window) {
      ASSERT_EQ(e.win_free(&ctx.win), Err::Success);
    }
  });
  poller.join();
  EXPECT_EQ(seen, s.call);
  EXPECT_EQ(w.engine(0).blocking_call(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(EveryWaitLoop, BlockingCall, ::testing::ValuesIn(kStalls),
                         [](const ::testing::TestParamInfo<Stall>& info) {
                           return std::string(info.param.call) +
                                  (info.param.device == DeviceKind::Orig ? "_orig" : "");
                         });

}  // namespace
}  // namespace lwmpi
