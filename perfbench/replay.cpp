// replay: apps::run_replay of the committed stencil4 and storm4 bundles,
// repeated, on the mailbox netmod and on rdma. Recorded traffic rather than a
// guess: storm4 is an unexpected-heavy incast with rendezvous messages. This
// is the only group that carries the mailbox-vs-rdma backend gap and the only
// one that builds a World per measured run. md8 is left out: it needs eight
// rank threads, twice the four cores the benchmark may use.
#include <memory>

#include "apps/replay.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "match/match.hpp"
#include "runtime/packet.hpp"
#include "runtime/world.hpp"

namespace pb {
namespace {
using namespace lwmpi;

struct Bundles {
  apps::TraceBundle stencil4, storm4;
};

bool load(Ctx& c, Bundles& b) {
  std::string err;
  const bool ok = apps::load_trace(c.trace_dir + "/stencil4", &b.stencil4, &err) &&
                  apps::load_trace(c.trace_dir + "/storm4", &b.storm4, &err);
  c.check(ok && b.stencil4.complete() && b.storm4.complete(), "load replay bundles: " + err);
  return ok;
}

void e2e(Ctx& c, Report& out, double seconds, Tracer* tr) {
  Bundles bundles;
  if (!load(c, bundles)) return;
  struct Case {
    const char* bundle = nullptr;
    const apps::TraceBundle* trace = nullptr;
    const char* netmod = nullptr;
    std::uint64_t ops = 0, wall_ns = 0;  // this round's replay
    std::vector<double> kops;            // per round, this bundle alone
    std::uint64_t hwm = 0, stalls = 0, runs = 0;
  };
  Case cases[4] = {};
  const char* const netmods[] = {"mailbox", "rdma"};
  for (int i = 0; i < 4; ++i) {
    cases[i].bundle = i % 2 == 0 ? "stencil4" : "storm4";
    cases[i].trace = i % 2 == 0 ? &bundles.stencil4 : &bundles.storm4;
    cases[i].netmod = netmods[i / 2];
  }
  std::vector<double> mailbox_kops, rdma_kops;
  std::uint32_t id = 0;
  Budget b(seconds, 5);
  while (b.next()) {
    for (int i : c.order(4)) {
      Case& k = cases[i];
      apps::ReplayOptions o;
      o.netmod = k.netmod;
      if (tr != nullptr) o.capture_pvars = {"vci_unexpected_hwm", "rdma_ring_stalls"};
      apps::ReplayResult res;
      {
        Scope s(tr, "apps.run_replay", Layer::apps, id++);
        res = apps::run_replay(*k.trace, o);
      }
      if (c.force_wrong_once("replay")) ++res.timeouts;
      c.check(res.ok && res.fidelity_checked && res.fidelity_ok && res.timeouts == 0 &&
                  (!res.fabric_checked || res.fabric_ok),
              fmt("replay %s on %s: fidelity %s, %llu timeout(s), %zu diff(s)", k.bundle, k.netmod,
                  res.fidelity_ok ? "exact" : "MISMATCH",
                  static_cast<unsigned long long>(res.timeouts), res.diffs.size()));
      c.ops(res.replayed, 0, "replayed ops");
      k.ops = res.replayed;
      k.wall_ns = res.wall_ns;
      k.kops.push_back(res.wall_ns > 0 ? 1e6 * static_cast<double>(res.replayed) / res.wall_ns : 0);
      ++k.runs;
      for (const auto& [name, v] : res.pvars) {
        if (name == "vci_unexpected_hwm") k.hwm = std::max(k.hwm, v);
        if (name == "rdma_ring_stalls") k.stalls += v;
      }
    }
    // One round's throughput per netmod: both bundles' ops over both walls.
    for (int n = 0; n < 2; ++n) {
      const Case& a = cases[2 * n];
      const Case& s = cases[2 * n + 1];
      const double wall = static_cast<double>(a.wall_ns + s.wall_ns);
      (n == 0 ? mailbox_kops : rdma_kops).push_back(wall > 0 ? 1e6 * (a.ops + s.ops) / wall : 0);
    }
  }
  // A replay's wall time includes starting and joining four rank threads,
  // which on a VM waits on host scheduling: when the host is busy, whole
  // seconds of rounds run several times slower. The 90th percentile of round
  // throughput tracks the rounds the host did not disturb.
  const std::string note = fmt("p90 of %zu rounds, one stencil4 + one storm4 replay each",
                               mailbox_kops.size());
  out.add("replay_mailbox_kops", quantile(mailbox_kops, 0.9), "kops/s", note + ", mailbox");
  out.add("replay_rdma_kops", quantile(rdma_kops, 0.9), "kops/s", note + ", rdma");
  if (tr == nullptr) return;

  for (int b2 = 0; b2 < 2; ++b2) {
    const double mb = median(cases[b2].kops), rd = median(cases[b2 + 2].kops);
    c.layers.add(fmt("shape.replay_mailbox_over_rdma_%s", cases[b2].bundle), rd > 0 ? mb / rd : 0,
                 "ratio", fmt("median replay kops/s, mailbox over rdma, %zu rounds", cases[b2].kops.size()));
  }
  c.layers.add("match.unexpected_hwm", static_cast<double>(std::max(cases[0].hwm, cases[1].hwm)),
               "count", "vci_unexpected_hwm, worst rank of any mailbox replay");
  const double rdma_runs = static_cast<double>(cases[2].runs + cases[3].runs);
  c.layers.add("net.rdma_ring_stalls",
               rdma_runs > 0 ? static_cast<double>(cases[2].stalls + cases[3].stalls) / rdma_runs : 0,
               "count", "rdma_ring_stalls per rdma replay, worst rank");
}

double setup(Ctx& c) {
  const std::uint64_t t0 = now_ns();
  Bundles b;
  load(c, b);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void layers(Ctx& c, Tracer& tr) {
  WorldOptions o;
  o.build.num_vcis = 4;
  for (int r = 0; r < 48; ++r) {
    std::unique_ptr<World> w;
    {
      Scope s(&tr, "runtime.world_ctor", Layer::runtime, static_cast<std::uint32_t>(r));
      w = std::make_unique<World>(4, o);
    }
    Scope s(&tr, "runtime.run_launch", Layer::runtime, static_cast<std::uint32_t>(r));
    w->run([](Engine&) {});
  }
  c.layers.add("runtime.world_ctor_us", span_median_ns(tr, "runtime.world_ctor") / 1e3, "us",
               "median of 48 four-rank World constructions");
  c.layers.add("runtime.run_launch_us", span_median_ns(tr, "runtime.run_launch") / 1e3, "us",
               "median of 48 empty four-rank World::run launches");
  for (int r = 0; r < 24; ++r) {
    Bundles b;
    Scope s(&tr, "apps.load_trace", Layer::apps, static_cast<std::uint32_t>(r));
    load(c, b);
  }
  c.layers.add("apps.load_trace_ms", span_median_ns(tr, "apps.load_trace") / 1e6, "ms",
               "median of 24 loads of stencil4 + storm4");

  // Matching on a standalone engine. A matched arrival leaves the packet
  // with the caller, so one pooled packet serves every arrival.
  {
    match::MatchEngine m;
    rt::Packet* p = rt::PacketPool::alloc();
    p->hdr.kind = rt::PacketKind::Eager;
    std::uint64_t missed = 0;
    for (int r = 0; r < 96; ++r) {
      Scope s(&tr, "match.post_arrive", Layer::match, static_cast<std::uint32_t>(r), 256);
      for (std::uint32_t i = 0; i < 256; ++i) {
        p->hdr.tag = static_cast<Tag>(i);
        missed += m.post(match::PostedRecv{.src = 0, .tag = static_cast<Tag>(i), .req = i}).has_value();
        missed += !m.arrive(p).has_value();
      }
    }
    for (int i = 0; i < 64; ++i) {  // decoys the arrivals below must scan past
      m.post(match::PostedRecv{.src = 0, .tag = 100000 + i});
    }
    for (int r = 0; r < 96; ++r) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        m.post(match::PostedRecv{.src = 0, .tag = static_cast<Tag>(i), .req = i});
      }
      Scope s(&tr, "match.arrive_depth64", Layer::match, static_cast<std::uint32_t>(r), 256);
      for (std::uint32_t i = 0; i < 256; ++i) {
        p->hdr.tag = static_cast<Tag>(i);
        missed += !m.arrive(p).has_value();
      }
    }
    c.ops(96 * 256 * 3, missed, "standalone match");
    c.check(m.posted_depth() == 64 && m.unexpected_depth() == 0, "match queues drained");
    rt::PacketPool::free(p);
  }
  c.layers.add("match.post_arrive_ns", span_median_ns(tr, "match.post_arrive"), "ns",
               "median over windows of 256 post + matching arrive pairs");
  c.layers.add("match.arrive_depth64_ns", span_median_ns(tr, "match.arrive_depth64"), "ns",
               "median over windows of 256 arrivals behind 64 non-matching posted receives");
}

}  // namespace

const Group kReplay = {"replay", "replay_mailbox_kops", true, e2e, layers, setup};

}  // namespace pb
