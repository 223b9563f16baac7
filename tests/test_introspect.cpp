// Live queue introspection (obs/introspect.hpp): Engine::snapshot() walks the
// posted/unexpected/send queues and RMA epoch state; render_text/render_json
// turn a snapshot into the dump tools/hangdump consumes. All tests drive the
// engines single-threaded so the queues hold exactly what the test staged.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/introspect.hpp"
#include "obs/json.hpp"
#include "obs/watchdog.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

using test::parses;

TEST(Introspect, IdleRankSnapshotIsEmpty) {
  WorldOptions o = test::fast_opts();
  World w(2, o);
  const obs::RankSnapshot s = w.engine(1).snapshot();
  EXPECT_EQ(s.rank, 1);
  EXPECT_EQ(s.live_requests, 0u);
  EXPECT_EQ(s.blocking_call, nullptr);
  EXPECT_FALSE(s.oldest.valid);
  ASSERT_FALSE(s.vcis.empty());
  for (const auto& v : s.vcis) {
    EXPECT_TRUE(v.posted.empty());
    EXPECT_TRUE(v.unexpected.empty());
    EXPECT_TRUE(v.send_queue.empty());
  }
  EXPECT_TRUE(s.windows.empty());
}

TEST(Introspect, PostedReceiveAndOldestRequest) {
  WorldOptions o = test::fast_opts();
  o.build.lat_sample_shift = 0;  // stamp every post so queue ages are exact
  World w(2, o);
  Engine& e0 = w.engine(0);
  Engine& e1 = w.engine(1);

  std::vector<char> buf(64, 0);
  Request rr = kRequestNull;
  ASSERT_EQ(e1.irecv(buf.data(), static_cast<int>(buf.size()), kChar, 0, 5, kCommWorld,
                     &rr),
            Err::Success);

  obs::RankSnapshot s = e1.snapshot();
  EXPECT_EQ(s.live_requests, 1u);
  std::size_t posted = 0;
  for (const auto& v : s.vcis) {
    for (const auto& p : v.posted) {
      ++posted;
      EXPECT_EQ(p.ctx, kWorldCtx);
      EXPECT_EQ(p.comm, kCommWorld);
      EXPECT_EQ(p.src, 0);
      EXPECT_EQ(p.tag, 5);
      EXPECT_EQ(p.bytes, buf.size());
      EXPECT_GT(p.age_ns, 0u);
      EXPECT_FALSE(p.arrival_order);
    }
  }
  EXPECT_EQ(posted, 1u);
  ASSERT_TRUE(s.oldest.valid);
  EXPECT_STREQ(s.oldest.kind, "recv");
  EXPECT_EQ(s.oldest.comm, kCommWorld);
  EXPECT_EQ(s.oldest.peer, 0);
  EXPECT_EQ(s.oldest.tag, 5);
  EXPECT_GT(s.oldest.age_ns, 0u);

  // Matching the receive empties the posted queue and retires the request.
  char c = 'i';
  Request sr = kRequestNull;
  ASSERT_EQ(e0.isend(&c, 1, kChar, 1, 5, kCommWorld, &sr), Err::Success);
  ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);
  e1.progress();
  ASSERT_EQ(e1.wait(&rr, nullptr), Err::Success);

  s = e1.snapshot();
  EXPECT_EQ(s.live_requests, 0u);
  EXPECT_FALSE(s.oldest.valid);
  for (const auto& v : s.vcis) EXPECT_TRUE(v.posted.empty());
}

TEST(Introspect, UnexpectedArrivalsCarrySenderAndPayload) {
  WorldOptions o = test::fast_opts();
  World w(2, o);
  Engine& e0 = w.engine(0);
  Engine& e1 = w.engine(1);

  std::vector<char> payload(96, 'u');
  Request sr = kRequestNull;
  ASSERT_EQ(e0.isend(payload.data(), static_cast<int>(payload.size()), kChar, 1, 9,
                     kCommWorld, &sr),
            Err::Success);
  ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);
  e1.progress();  // no receive posted: the arrival lands on the unexpected queue

  const obs::RankSnapshot s = e1.snapshot();
  std::size_t unexpected = 0;
  for (const auto& v : s.vcis) {
    for (const auto& u : v.unexpected) {
      ++unexpected;
      EXPECT_EQ(u.ctx, kWorldCtx);
      EXPECT_EQ(u.comm, kCommWorld);
      EXPECT_EQ(u.src, 0);
      EXPECT_EQ(u.tag, 9);
      EXPECT_EQ(u.bytes, payload.size());
      EXPECT_GT(u.age_ns, 0u);  // counters on by default, so arrivals are stamped
    }
  }
  EXPECT_EQ(unexpected, 1u);

  // Drain so the world tears down clean.
  std::vector<char> in(96, 0);
  ASSERT_EQ(e1.recv(in.data(), static_cast<int>(in.size()), kChar, 0, 9, kCommWorld,
                    nullptr),
            Err::Success);
}

TEST(Introspect, OrigDeviceSendQueueResidency) {
  WorldOptions o = test::fast_opts(DeviceKind::Orig);
  World w(2, o);
  Engine& e0 = w.engine(0);
  Engine& e1 = w.engine(1);

  // Orig-device eager sends complete locally on buffering: the packet stays
  // staged in the software send queue until the progress engine drains it
  // (wait() runs one progress pass, so isend without wait keeps it staged).
  char c = 'q';
  Request sr = kRequestNull;
  ASSERT_EQ(e0.isend(&c, 1, kChar, 1, 3, kCommWorld, &sr), Err::Success);

  obs::RankSnapshot s = e0.snapshot();
  std::size_t queued = 0;
  for (const auto& v : s.vcis) {
    for (const auto& q : v.send_queue) {
      ++queued;
      EXPECT_EQ(q.dst_world, 1);
      EXPECT_EQ(q.tag, 3);
      EXPECT_EQ(q.bytes, 1u);
    }
  }
  EXPECT_EQ(queued, 1u);

  ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);  // wait's progress pass drains
  s = e0.snapshot();
  for (const auto& v : s.vcis) EXPECT_TRUE(v.send_queue.empty());

  ASSERT_EQ(e1.recv(&c, 1, kChar, 0, 3, kCommWorld, nullptr), Err::Success);
}

TEST(Introspect, WindowEpochState) {
  WorldOptions o = test::fast_opts();
  World w(1, o);
  Engine& e = w.engine(0);

  std::vector<int> mem(8, 0);
  Win win = kWinNull;
  ASSERT_EQ(e.win_create(mem.data(), mem.size() * sizeof(int), sizeof(int), kCommWorld,
                         &win),
            Err::Success);
  obs::RankSnapshot s = e.snapshot();
  ASSERT_EQ(s.windows.size(), 1u);
  EXPECT_STREQ(s.windows[0].epoch, "none");
  EXPECT_EQ(s.windows[0].outstanding_acks, 0u);

  ASSERT_EQ(e.win_fence(win), Err::Success);
  s = e.snapshot();
  ASSERT_EQ(s.windows.size(), 1u);
  EXPECT_STREQ(s.windows[0].epoch, "fence");

  ASSERT_EQ(e.win_free(&win), Err::Success);
  s = e.snapshot();
  EXPECT_TRUE(s.windows.empty());
}

TEST(Introspect, RenderTextAndJsonForms) {
  WorldOptions o = test::fast_opts();
  World w(2, o);
  Engine& e0 = w.engine(0);
  Engine& e1 = w.engine(1);

  // Stage one posted receive and one unexpected arrival so both queue kinds
  // appear in the rendering.
  char pbuf = 0;
  Request rr = kRequestNull;
  ASSERT_EQ(e1.irecv(&pbuf, 1, kChar, 0, 11, kCommWorld, &rr), Err::Success);
  char c = 'r';
  Request sr = kRequestNull;
  ASSERT_EQ(e0.isend(&c, 1, kChar, 1, 77, kCommWorld, &sr), Err::Success);
  ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);
  e1.progress();

  const obs::RankSnapshot s = e1.snapshot();
  const std::string text = obs::render_text(s);
  EXPECT_NE(text.find("rank 1"), std::string::npos);
  EXPECT_NE(text.find("posted="), std::string::npos);
  EXPECT_NE(text.find("tag=11"), std::string::npos);
  EXPECT_NE(text.find("tag=77"), std::string::npos);
  EXPECT_NE(text.find("WORLD"), std::string::npos);

  const std::string json = obs::render_json(s);
  EXPECT_TRUE(parses(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"rank\":1"), std::string::npos);
  EXPECT_NE(json.find("\"blocking_call\":null"), std::string::npos);
  EXPECT_NE(json.find("\"posted\":["), std::string::npos);
  EXPECT_NE(json.find("\"unexpected\":["), std::string::npos);
  EXPECT_NE(json.find("\"tag\":11"), std::string::npos);
  EXPECT_NE(json.find("\"tag\":77"), std::string::npos);

  // Tear down clean: match both messages.
  char in = 0;
  ASSERT_EQ(e0.send(&c, 1, kChar, 1, 11, kCommWorld), Err::Success);
  e1.progress();
  ASSERT_EQ(e1.wait(&rr, nullptr), Err::Success);
  ASSERT_EQ(e1.recv(&in, 1, kChar, 0, 77, kCommWorld, nullptr), Err::Success);
  EXPECT_EQ(in, 'r');
}

TEST(Introspect, PhaseNameIsEscapedInSnapshotAndHangReport) {
  // A user-chosen phase name with a quote must not break either document a
  // hang diagnosis is built from.
  WorldOptions o = test::fast_opts();
  o.prof = true;
  World w(1, o);
  Engine& e = w.engine(0);
  e.phase_push("halo \"x\"");
  const obs::RankSnapshot s = e.snapshot();
  e.phase_pop();

  obs::json::Value snap;
  std::string err;
  ASSERT_TRUE(obs::json::parse(obs::render_json(s), &snap, &err)) << err;
  EXPECT_EQ(snap.get("phase")->str, "halo \"x\"");

  obs::HangReport r;
  r.nranks = 1;
  obs::StuckRank stuck;
  stuck.call = "Wait";
  stuck.snap = s;
  r.stuck.push_back(stuck);
  obs::json::Value report;
  ASSERT_TRUE(obs::json::parse(obs::render_json(r), &report, &err)) << err;
  EXPECT_EQ(report.get("stuck")->arr.at(0).get("snapshot")->get("phase")->str, "halo \"x\"");
}

TEST(Introspect, RdmaSnapshotCarriesCreditAndRegCacheState) {
  // On the rdma backend the snapshot must expose the two backend-specific
  // stall sources -- ring credits and the registration cache -- so a hangdump
  // shows whether a stuck sender is out of credits.
  WorldOptions o = test::fast_opts();
  o.netmod = "rdma";
  o.ranks_per_node = 1;
  o.profile.rdma_ring_depth = 4;
  World w(2, o);
  Engine& e0 = w.engine(0);
  Engine& e1 = w.engine(1);

  // Fill rank 1's ring without letting it progress: credits drain visibly.
  char c = 'x';
  for (int i = 0; i < 4; ++i) {
    Request sr = kRequestNull;
    ASSERT_EQ(e0.isend(&c, 1, kChar, 1, i, kCommWorld, &sr), Err::Success);
    ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);
  }

  obs::RankSnapshot s = e1.snapshot();
  ASSERT_TRUE(s.rdma.valid);
  ASSERT_FALSE(s.rdma.lanes.empty());
  EXPECT_EQ(s.rdma.lanes[0].ring_depth, 4u);
  EXPECT_EQ(s.rdma.lanes[0].credits_free, 0u);  // all four slots consumed
  EXPECT_EQ(s.rdma.lanes[0].occupancy_hwm, 4u);

  const std::string text = obs::render_text(s);
  EXPECT_NE(text.find("credits=0/4"), std::string::npos);
  EXPECT_NE(text.find("[EXHAUSTED]"), std::string::npos);
  const std::string json = obs::render_json(s);
  EXPECT_TRUE(parses(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"rdma\":{"), std::string::npos);
  EXPECT_NE(json.find("\"credits_free\":0"), std::string::npos);

  // Drain, then check the credits recover and the reg-cache fields appear
  // after a zero-copy rendezvous pins memory.
  char in = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(e1.recv(&in, 1, kChar, 0, i, kCommWorld, nullptr), Err::Success);
  }
  s = e1.snapshot();
  EXPECT_EQ(s.rdma.lanes[0].credits_free, 4u);

  const std::size_t big = 64 * 1024;
  std::vector<char> out(big, 'y');
  std::vector<char> got(big, 0);
  Request sr = kRequestNull;
  ASSERT_EQ(e0.isend(out.data(), static_cast<int>(big), kChar, 1, 9, kCommWorld, &sr),
            Err::Success);
  Request rr = kRequestNull;
  ASSERT_EQ(e1.irecv(got.data(), static_cast<int>(big), kChar, 0, 9, kCommWorld, &rr),
            Err::Success);
  e1.progress();  // RTS -> CTS (registers the receive buffer)
  e0.progress();  // CTS -> rdma_write + RdvDone (registers the send buffer)
  ASSERT_EQ(e0.wait(&sr, nullptr), Err::Success);
  e1.progress();
  ASSERT_EQ(e1.wait(&rr, nullptr), Err::Success);
  EXPECT_EQ(got[big - 1], 'y');

  s = e1.snapshot();
  EXPECT_GE(s.rdma.reg_cache_size, 1u);
  EXPECT_GE(s.rdma.reg_misses, 1u);

  // Mailbox worlds keep the block invalid and the renderers skip it.
  WorldOptions om = test::fast_opts();
  World wm(1, om);
  const obs::RankSnapshot sm = wm.engine(0).snapshot();
  EXPECT_FALSE(sm.rdma.valid);
  EXPECT_EQ(obs::render_text(sm).find("rdma:"), std::string::npos);
  EXPECT_NE(obs::render_json(sm).find("\"rdma\":null"), std::string::npos);
}

TEST(Introspect, WildcardReceiveRendersStars) {
  WorldOptions o = test::fast_opts();
  World w(2, o);
  Engine& e1 = w.engine(1);

  char buf = 0;
  Request rr = kRequestNull;
  ASSERT_EQ(e1.irecv(&buf, 1, kChar, kAnySource, kAnyTag, kCommWorld, &rr), Err::Success);
  const obs::RankSnapshot s = e1.snapshot();
  const std::string text = obs::render_text(s);
  EXPECT_NE(text.find("src=*"), std::string::npos);
  EXPECT_NE(text.find("tag=*"), std::string::npos);

  char c = 'w';
  Request sr = kRequestNull;
  ASSERT_EQ(w.engine(0).isend(&c, 1, kChar, 1, 0, kCommWorld, &sr), Err::Success);
  ASSERT_EQ(w.engine(0).wait(&sr, nullptr), Err::Success);
  e1.progress();
  ASSERT_EQ(e1.wait(&rr, nullptr), Err::Success);
  EXPECT_EQ(buf, 'w');
}

}  // namespace
}  // namespace lwmpi
