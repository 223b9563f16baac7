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

}  // namespace
}  // namespace lwmpi
