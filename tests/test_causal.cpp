// Causal tier (obs/causal.hpp): wait-state classification, the piggybacked
// causal header, Lamport clock ordering, the critical-path analyzer, and the
// JSONL trace round trip.
//
// The injected-delay cases are the acceptance checks: deliberately delaying
// the sender, the receiver, or withholding rdma ring credits must surface as
// late-sender / late-receiver / credit-stalled classifications, and the
// analyzer must rank the injected gap as the top critical-path contributor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/causal.hpp"
#include "obs/pvar.hpp"
#include "obs/trace.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

using obs::Wait;
namespace causal = obs::causal;
namespace trace = obs::trace;

constexpr std::uint64_t kMs = 1'000'000;

// Sanitizer instrumentation slows the software path an order of magnitude,
// so the injected delays must stay far above any instrumented sw_* edge for
// the top-contributor assertions to hold.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kDelayScale = 20;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kDelayScale = 20;
#else
constexpr int kDelayScale = 1;
#endif
#else
constexpr int kDelayScale = 1;
#endif

using test::read_pvar;

// --- classify_wait -----------------------------------------------------------

TEST(ClassifyWait, UnstampedSidesAreUnclassifiable) {
  std::uint64_t w = 123;
  EXPECT_EQ(obs::classify_wait(0, 500, 0, 900, &w), Wait::None);
  EXPECT_EQ(w, 0u);
  EXPECT_EQ(obs::classify_wait(500, 0, 0, 900, &w), Wait::None);
  EXPECT_EQ(w, 0u);
  EXPECT_EQ(obs::classify_wait(100, 100, 0, 100, nullptr), Wait::None);  // zero wait
}

TEST(ClassifyWait, LateSenderDominatesWhenSendFollowsPost) {
  std::uint64_t w = 0;
  // Posted at 100, sent at 150, matched at 160: the receiver spent 60 waiting,
  // 50 of which were the sender's absence.
  EXPECT_EQ(obs::classify_wait(100, 150, 0, 160, &w), Wait::LateSender);
  EXPECT_EQ(w, 60u);
}

TEST(ClassifyWait, LateReceiverDominatesWhenPostFollowsSend) {
  std::uint64_t w = 0;
  EXPECT_EQ(obs::classify_wait(150, 100, 0, 160, &w), Wait::LateReceiver);
  EXPECT_EQ(w, 60u);
}

TEST(ClassifyWait, ProgressStarvedWhenBothReadyAndNobodyPolls) {
  std::uint64_t w = 0;
  // Both sides ready at 100, match only at 300: 200 ns of pure residual.
  EXPECT_EQ(obs::classify_wait(100, 101, 0, 300, &w), Wait::ProgressStarved);
  EXPECT_EQ(w, 200u);
}

TEST(ClassifyWait, CreditStallExplainsThePostReadyWindow) {
  std::uint64_t w = 0;
  // Post-ready window is 90; the sender stalled 80 of it for a credit, which
  // beats the 10 ns sender lag and 10 ns residual.
  EXPECT_EQ(obs::classify_wait(100, 110, 80, 200, &w), Wait::CreditStalled);
  EXPECT_EQ(w, 100u);
  // A stall longer than the post-ready window cannot claim more than the
  // window: the receiver's absence overlapped it, so lag_recv wins.
  EXPECT_EQ(obs::classify_wait(500, 100, 1000, 520, &w), Wait::LateReceiver);
}

TEST(WaitBlock, RecordsIntoPerStateHistograms) {
  const auto count_of = [](const obs::WaitBlock& blk, Wait w) {
    obs::LatSnapshot s;
    s.merge(blk.of(w));
    return s.count;
  };
  obs::WaitBlock b;
  b.record(Wait::LateSender, 1000);
  b.record(Wait::LateSender, 2000);
  b.record(Wait::CreditStalled, 500);
  b.record(Wait::None, 99999);  // ignored
  EXPECT_EQ(count_of(b, Wait::LateSender), 2u);
  EXPECT_EQ(count_of(b, Wait::CreditStalled), 1u);
  EXPECT_EQ(count_of(b, Wait::LateReceiver), 0u);
  b.enabled = false;
  b.record(Wait::LateSender, 1000);
  EXPECT_EQ(count_of(b, Wait::LateSender), 2u);
}

TEST(WaitStrings, RoundTrip) {
  for (Wait w : {Wait::None, Wait::LateSender, Wait::LateReceiver, Wait::ProgressStarved,
                 Wait::CreditStalled, Wait::RegCacheMiss}) {
    EXPECT_EQ(obs::wait_from_string(obs::to_string(w)), w);
  }
  EXPECT_FALSE(obs::wait_from_string("no-such-state").has_value());
}

TEST(EvStrings, RoundTrip) {
  for (trace::Ev e : {trace::Ev::SendPost, trace::Ev::RecvPost, trace::Ev::Match,
                      trace::Ev::Inject, trace::Ev::Deliver, trace::Ev::Complete,
                      trace::Ev::ZcopyWrite}) {
    EXPECT_EQ(trace::ev_from_string(trace::to_string(e)), e);
  }
  EXPECT_FALSE(trace::ev_from_string("no-such-kind").has_value());
}

// --- injected-delay classification + critical path ---------------------------

WorldOptions causal_opts(const std::string& netmod) {
  WorldOptions o;
  o.netmod = netmod;
  o.ranks_per_node = 1;          // inter-node: exercise the full netmod path
  o.build.trace = true;
  o.build.lat_sample_shift = 0;  // stamp every message so every match classifies
  return o;
}

// One warmup exchange plus one delayed message; returns the merged trace.
// The on-time side finishes its half (the receive posted, or the message
// sent) and raises `ready` before the late side starts its delay, so host
// load cannot reorder the two and flip the classification.
std::vector<trace::Event> run_delayed(const std::string& netmod, bool delay_sender,
                                      std::uint64_t* wait_count,
                                      std::uint64_t* wait_max_ns) {
  const auto kDelay = std::chrono::milliseconds(20 * kDelayScale);
  std::vector<trace::Event> events;
  {
    World w(2, causal_opts(netmod));
    std::atomic<bool> ready{false};
    const auto wait_ready = [&] {
      while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
    };
    w.run([&](Engine& e) {
      char b = 0;
      // Warmup: both ranks get a timeline origin for the analyzer to anchor
      // the injected gap against.
      if (e.world_rank() == 0) {
        e.send(&b, 1, kChar, 1, 1, kCommWorld);
      } else {
        e.recv(&b, 1, kChar, 0, 1, kCommWorld, nullptr);
      }
      if (e.world_rank() == 0) {
        if (delay_sender) {
          wait_ready();
          std::this_thread::sleep_for(kDelay);
        }
        e.send(&b, 1, kChar, 1, 7, kCommWorld);
        if (!delay_sender) ready.store(true, std::memory_order_release);
      } else if (delay_sender) {
        Request r = kRequestNull;
        EXPECT_EQ(e.irecv(&b, 1, kChar, 0, 7, kCommWorld, &r), Err::Success);
        ready.store(true, std::memory_order_release);
        EXPECT_EQ(e.wait(&r, nullptr), Err::Success);
      } else {
        wait_ready();
        std::this_thread::sleep_for(kDelay);
        e.recv(&b, 1, kChar, 0, 7, kCommWorld, nullptr);
      }
    });
    const char* count_pvar =
        delay_sender ? "wait_late_sender_count" : "wait_late_receiver_count";
    const char* max_pvar =
        delay_sender ? "wait_late_sender_max_ns" : "wait_late_receiver_max_ns";
    *wait_count = read_pvar(w.engine(1), count_pvar);
    *wait_max_ns = read_pvar(w.engine(1), max_pvar);
    events = w.trace_events();
  }
  return events;
}

class DelayedClassification : public ::testing::TestWithParam<const char*> {};

TEST_P(DelayedClassification, LateSenderDominatesCriticalPath) {
  std::uint64_t count = 0, max_ns = 0;
  const auto events = run_delayed(GetParam(), /*delay_sender=*/true, &count, &max_ns);
  EXPECT_GE(count, 1u);
  EXPECT_GE(max_ns, 10 * kMs);

  const causal::Analysis a = causal::analyze(events);
  ASSERT_FALSE(a.by_category.empty());
  EXPECT_STREQ(a.by_category[0].category, "late_sender");
  EXPECT_GE(a.by_category[0].total_ns, 10 * kMs);
  // The injected gap is the single top edge.
  std::uint64_t top = 0;
  const char* top_cat = "";
  for (const causal::PathEdge& e : a.path) {
    if (e.dur_ns > top) {
      top = e.dur_ns;
      top_cat = e.category;
    }
  }
  EXPECT_STREQ(top_cat, "late_sender");
  EXPECT_GE(top, 10 * kMs);
}

TEST_P(DelayedClassification, LateReceiverDominatesCriticalPath) {
  std::uint64_t count = 0, max_ns = 0;
  const auto events = run_delayed(GetParam(), /*delay_sender=*/false, &count, &max_ns);
  EXPECT_GE(count, 1u);
  EXPECT_GE(max_ns, 10 * kMs);

  const causal::Analysis a = causal::analyze(events);
  ASSERT_FALSE(a.by_category.empty());
  EXPECT_STREQ(a.by_category[0].category, "late_receiver");
  EXPECT_GE(a.by_category[0].total_ns, 10 * kMs);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, DelayedClassification,
                         ::testing::Values("mailbox", "rdma"));

TEST(CreditStall, WithheldCreditsClassifyAsCreditStalled) {
  // 2-deep eager ring; the receiver posts everything up front and then
  // withholds progress, so the sender's third inject busy-waits for a credit.
  constexpr int kMsgs = 8;
  const auto kDelay = std::chrono::milliseconds(25 * kDelayScale);
  WorldOptions o = causal_opts("rdma");
  o.profile.rdma_ring_depth = 2;
  World w(2, o);
  w.run([&](Engine& e) {
    char b = 0;
    if (e.world_rank() == 1) {
      std::vector<Request> reqs(kMsgs, kRequestNull);
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_EQ(e.irecv(&b, 1, kChar, 0, 7, kCommWorld, &reqs[i]), Err::Success);
      }
      std::this_thread::sleep_for(kDelay);
      std::vector<Status> sts(kMsgs);
      ASSERT_EQ(e.waitall(reqs, sts), Err::Success);
    } else {
      // Head start for the receiver's posts, so posted_ns predates send_ns and
      // sender lag cannot dominate the classification.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      for (int i = 0; i < kMsgs; ++i) {
        e.send(&b, 1, kChar, 1, 7, kCommWorld);
      }
    }
  });

  // The sender demonstrably stalled on the ring...
  EXPECT_GE(read_pvar(w.engine(0), "rdma_ring_stalls"), 1u);
  EXPECT_GE(read_pvar(w.engine(0), "rdma_ring_stall_ns"), 10 * kMs);
  // ...and the receiver blamed the stall, not itself.
  EXPECT_GE(read_pvar(w.engine(1), "wait_credit_stalled_count"), 1u);
  EXPECT_GE(read_pvar(w.engine(1), "wait_credit_stalled_max_ns"), 10 * kMs);

  // The stall must also be visible on the merged timeline: a credit_stalled
  // classification on some Match event.
  const auto events = w.trace_events();
  bool saw = false;
  for (const trace::Event& e : events) {
    if (e.kind == trace::Ev::Match &&
        static_cast<Wait>(e.wait) == Wait::CreditStalled) {
      saw = true;
      EXPECT_GE(e.wait_ns, 10 * kMs);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(RegCacheMiss, ZcopyRegistrationPinsAreRecorded) {
  // A zero-copy rendezvous registers memory on both sides; with a measurable
  // pin cost the cold registrations must be recorded as reg-cache-miss waits.
  WorldOptions o = causal_opts("rdma");
  o.eager_threshold = 1024;
  o.profile.pin_cost_ns_per_page = 50'000;  // 50 us per page, measurable
  World w(2, o);
  const std::size_t n = 64 * 1024;
  std::vector<char> got(n, 0);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      std::vector<char> data(n, 'q');
      e.send(data.data(), static_cast<int>(n), kChar, 1, 3, kCommWorld);
    } else {
      e.recv(got.data(), static_cast<int>(n), kChar, 0, 3, kCommWorld, nullptr);
    }
  });
  EXPECT_EQ(got[n - 1], 'q');
  // Receiver registers for the CTS rkey; sender registers for the local read.
  EXPECT_GE(read_pvar(w.engine(1), "wait_reg_cache_miss_count"), 1u);
  EXPECT_GE(read_pvar(w.engine(0), "wait_reg_cache_miss_count"), 1u);
  EXPECT_GE(read_pvar(w.engine(1), "wait_reg_cache_miss_max_ns"), 50'000u);
}

// --- Lamport ordering across the wire ----------------------------------------

TEST(LamportClock, DeliverIsStrictlyAfterMatchingInject) {
  WorldOptions o = causal_opts("rdma");
  World w(2, o);
  w.run([&](Engine& e) {
    char b = 0;
    for (int i = 0; i < 6; ++i) {
      if (e.world_rank() == 0) {
        e.send(&b, 1, kChar, 1, i, kCommWorld);
      } else {
        e.recv(&b, 1, kChar, 0, i, kCommWorld, nullptr);
      }
    }
  });
  const auto events = w.trace_events();
  std::map<std::uint64_t, std::uint64_t> inject_clock;
  for (const trace::Event& e : events) {
    if (e.kind == trace::Ev::Inject && e.seq != 0 && e.rank == 0) {
      inject_clock[e.seq] = e.lclock;
    }
  }
  EXPECT_GE(inject_clock.size(), 6u);
  int checked = 0;
  for (const trace::Event& e : events) {
    if (e.kind == trace::Ev::Deliver && e.seq != 0 && e.rank == 1) {
      auto it = inject_clock.find(e.seq);
      if (it == inject_clock.end()) continue;
      // The inject event snapshots the clock *before* its own tick; the
      // deliver snapshots it after the merge, so strict dominance holds.
      EXPECT_GT(e.lclock, it->second) << "seq " << e.seq;
      ++checked;
    }
  }
  EXPECT_GE(checked, 6);
}

// --- satellite: balanced spans for every rdma-backend message ----------------

TEST(TraceSpans, EveryRdmaMessageHasBalancedBeginEnd) {
  // Mixed eager + zero-copy rendezvous traffic on the rdma backend: every
  // distinct message id in the Chrome export must open exactly one async span
  // and close it ("b"/"e" balance), including the RdvDone and zcopy-landing
  // hops.
  WorldOptions o = causal_opts("rdma");
  o.eager_threshold = 1024;
  World w(2, o);
  const std::size_t big = 64 * 1024;
  std::vector<char> in_small(8, 0);
  std::vector<char> in_big(big, 0);
  w.run([&](Engine& e) {
    if (e.world_rank() == 0) {
      std::vector<char> s(8, 'a');
      std::vector<char> g(big, 'z');
      for (int i = 0; i < 4; ++i) e.send(s.data(), 8, kChar, 1, i, kCommWorld);
      e.send(g.data(), static_cast<int>(big), kChar, 1, 99, kCommWorld);
    } else {
      for (int i = 0; i < 4; ++i) {
        e.recv(in_small.data(), 8, kChar, 0, i, kCommWorld, nullptr);
      }
      e.recv(in_big.data(), static_cast<int>(big), kChar, 0, 99, kCommWorld, nullptr);
    }
  });
  const auto events = w.trace_events();

  // The zcopy landing and the rendezvous-completion hop are on the timeline.
  bool saw_zcopy = false;
  for (const trace::Event& e : events) {
    if (e.kind == trace::Ev::ZcopyWrite) saw_zcopy = true;
  }
  EXPECT_TRUE(saw_zcopy);

  std::ostringstream os;
  trace::export_chrome_json(os, events);
  const std::string doc = os.str();

  // Count per-id async begin/end markers: each {...} object carries at most
  // one "ph" and one "id".
  std::map<std::string, int> begins, ends;
  std::size_t pos = 0;
  while ((pos = doc.find('{', pos)) != std::string::npos) {
    const std::size_t end = doc.find('}', pos);
    if (end == std::string::npos) break;
    const std::string obj = doc.substr(pos, end - pos);
    const auto field = [&](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\":";
      const std::size_t p = obj.find(needle);
      if (p == std::string::npos) return "";
      std::size_t i = p + needle.size();
      std::size_t j = i;
      while (j < obj.size() && obj[j] != ',' && obj[j] != '}') ++j;
      return obj.substr(i, j - i);
    };
    const std::string ph = field("ph");
    const std::string id = field("id");
    if (!id.empty()) {
      if (ph == "\"b\"") ++begins[id];
      if (ph == "\"e\"") ++ends[id];
    }
    pos = end + 1;
  }
  ASSERT_GE(begins.size(), 5u);  // 4 eager + 1 rendezvous chain at minimum
  EXPECT_EQ(begins.size(), ends.size());
  for (const auto& [id, n] : begins) {
    EXPECT_EQ(n, 1) << "unbalanced begin for id " << id;
    EXPECT_EQ(ends[id], 1) << "unbalanced end for id " << id;
  }
}

// --- JSONL round trip + teardown export --------------------------------------

TEST(CausalJsonl, RoundTripsEveryField) {
  std::vector<trace::Event> in;
  trace::Event a;
  a.ts_ns = 111;
  a.seq = 42;
  a.bytes = 8;
  a.lclock = 5;
  a.wait_ns = 777;
  a.rank = 0;
  a.peer = 1;
  a.tag = 9;
  a.vci = 2;
  a.wait = static_cast<std::uint8_t>(Wait::LateSender);
  a.kind = trace::Ev::Match;
  trace::Event b;
  b.ts_ns = 99;  // earlier: export must reorder
  b.seq = 42;
  b.lclock = 1;
  b.rank = 1;
  b.peer = 0;
  b.kind = trace::Ev::Inject;
  in.push_back(a);
  in.push_back(b);

  std::stringstream ss;
  causal::export_jsonl(ss, in);
  std::vector<trace::Event> out;
  std::string err;
  ASSERT_TRUE(causal::parse_jsonl(ss, &out, &err)) << err;
  ASSERT_EQ(out.size(), 2u);
  // Sorted by merged order: b (ts 99) first.
  EXPECT_EQ(out[0].ts_ns, 99u);
  EXPECT_EQ(out[0].kind, trace::Ev::Inject);
  EXPECT_EQ(out[1].ts_ns, 111u);
  EXPECT_EQ(out[1].seq, 42u);
  EXPECT_EQ(out[1].bytes, 8u);
  EXPECT_EQ(out[1].lclock, 5u);
  EXPECT_EQ(out[1].wait_ns, 777u);
  EXPECT_EQ(out[1].rank, 0);
  EXPECT_EQ(out[1].peer, 1);
  EXPECT_EQ(out[1].tag, 9);
  EXPECT_EQ(out[1].vci, 2u);
  EXPECT_EQ(static_cast<Wait>(out[1].wait), Wait::LateSender);
  EXPECT_EQ(out[1].kind, trace::Ev::Match);
}

TEST(CausalJsonl, WorldTeardownWritesAnalyzableTrace) {
  const std::string path = ::testing::TempDir() + "lwmpi_causal_teardown.jsonl";
  std::remove(path.c_str());
  {
    WorldOptions o = causal_opts("mailbox");
    o.causal_trace_path = path;
    World w(2, o);
    w.run([&](Engine& e) {
      char b = 0;
      if (e.world_rank() == 0) {
        e.send(&b, 1, kChar, 1, 7, kCommWorld);
      } else {
        e.recv(&b, 1, kChar, 0, 7, kCommWorld, nullptr);
      }
    });
  }  // ~World writes the trace
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open()) << path;
  std::vector<trace::Event> events;
  std::string err;
  ASSERT_TRUE(causal::parse_jsonl(f, &events, &err)) << err;
  ASSERT_GE(events.size(), 6u);  // post/inject/complete + post/deliver/match/complete
  const causal::Analysis a = causal::analyze(events);
  EXPECT_EQ(a.messages, 1u);
  EXPECT_FALSE(a.path.empty());
  std::remove(path.c_str());
}

TEST(CausalRender, JsonAndTextCarryTheBreakdown) {
  std::uint64_t count = 0, max_ns = 0;
  const auto events = run_delayed("mailbox", /*delay_sender=*/true, &count, &max_ns);
  const causal::Analysis a = causal::analyze(events);
  const std::string text = causal::render_text(a);
  EXPECT_NE(text.find("cost by category"), std::string::npos);
  EXPECT_NE(text.find("late_sender"), std::string::npos);
  EXPECT_NE(text.find("per-rank slack"), std::string::npos);
  const std::string json = causal::render_json(a);
  EXPECT_NE(json.find("\"by_category\":[{\"category\":\"late_sender\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ranks\":["), std::string::npos);
}

}  // namespace
}  // namespace lwmpi
