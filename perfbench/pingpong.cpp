// pingpong: two ranks, blocking send/recv round trips on the loopback
// profile, at 1 byte (eager) and at a rendezvous size far above the 16 KiB
// eager threshold, on the mailbox netmod and then on rdma. This is the full
// round trip across threads: inject, poll, match, complete and Backoff. The
// large size moves the work to the rendezvous protocol, payload copies and
// the rdma registration cache / zero-copy path, so a small-message gain that
// costs bulk transfer shows up here.
#include <atomic>
#include <cstring>

#include "common.hpp"
#include "core/engine.hpp"
#include "datatype/datatype.hpp"
#include "net/fabric.hpp"
#include "runtime/packet.hpp"
#include "runtime/world.hpp"

namespace pb {
namespace {
using namespace lwmpi;

constexpr std::size_t kLarge = 256 * 1024;  // 16x the eager threshold
constexpr int kWarm = 16;                   // untimed iterations per chunk
constexpr int kPatternSlack = 256;          // iteration i sends pattern[i % 256 ...]

WorldOptions loop(const char* netmod) {
  WorldOptions o;
  o.profile = net::loopback();
  o.netmod = netmod;
  return o;
}

struct Names {
  const char* iter;
  const char* send;
  const char* recv;
};

struct Case {
  const char* netmod;
  std::size_t bytes;
  int iters;  // timed iterations per chunk, sized to a few ms
  World* world;
  Names names;
};

struct Samples {
  std::vector<double> lat;       // one-way ns per iteration (round trip / 2)
  std::vector<double> p50, p99;  // per chunk
  std::uint64_t messages = 0;
};

// One chunk of round trips. Rank 0 sends a fresh seeded pattern each
// iteration, rank 1 echoes it, and rank 0 checks the echo outside the timed
// region. Spans of one iteration share its id.
void chunk(Ctx& c, const Case& k, Samples& got, const std::vector<char>& pattern, Tracer* tr,
           std::uint32_t& id) {
  std::atomic<std::uint64_t> bad{0};
  std::uint64_t mismatched = 0;  // rank 0 only
  const int n = static_cast<int>(k.bytes);
  const int slot = c.slot++;
  const std::size_t first = got.lat.size();
  k.world->run([&](Engine& e) {
    pin_thread(slot + e.world_rank());
    std::vector<char> sbuf(k.bytes), rbuf(k.bytes);
    std::uint64_t my_bad = 0;
    if (e.world_rank() == 1) {
      for (int i = -kWarm; i < k.iters; ++i) {
        my_bad += e.recv(rbuf.data(), n, kChar, 0, 0, kCommWorld, nullptr) != Err::Success;
        my_bad += e.send(rbuf.data(), n, kChar, 0, 0, kCommWorld) != Err::Success;
      }
      bad += my_bad;
      return;
    }
    for (int i = -kWarm; i < k.iters; ++i) {
      const char* want = pattern.data() + ((i + kWarm) % kPatternSlack);
      std::memcpy(sbuf.data(), want, k.bytes);
      Tracer* t = i < 0 ? nullptr : tr;
      const std::uint64_t t0 = now_ns();
      {
        Scope it(t, k.names.iter, Layer::bench, id);
        {
          Scope s(t, k.names.send, Layer::core, id);
          my_bad += e.send(sbuf.data(), n, kChar, 1, 0, kCommWorld) != Err::Success;
        }
        Scope s(t, k.names.recv, Layer::core, id);
        my_bad += e.recv(rbuf.data(), n, kChar, 1, 0, kCommWorld, nullptr) != Err::Success;
      }
      const std::uint64_t t1 = now_ns();
      if (i == 0 && c.force_wrong_once("pingpong")) rbuf[k.bytes / 2] ^= 0x20;
      mismatched += std::memcmp(rbuf.data(), want, k.bytes) != 0;
      if (i >= 0) {
        got.lat.push_back(static_cast<double>(t1 - t0) / 2.0);
        ++id;
      }
    }
    bad += my_bad;
  });
  const std::vector<double> mine(got.lat.begin() + static_cast<std::ptrdiff_t>(first),
                                 got.lat.end());
  got.p50.push_back(quantile(mine, 0.5));
  got.p99.push_back(quantile(mine, 0.99));
  const auto iters = static_cast<std::uint64_t>(k.iters + kWarm);
  got.messages += 2 * iters;
  c.ops(4 * iters, bad.load(), "ping-pong send/recv");
  c.ops(iters, mismatched, "ping-pong payload pattern");
}

std::vector<char> seeded_pattern(Ctx& c) {
  std::vector<char> p(kLarge + kPatternSlack);
  for (std::size_t i = 0; i < p.size(); i += 8) {
    const std::uint64_t r = c.rng();
    std::memcpy(p.data() + i, &r, std::min<std::size_t>(8, p.size() - i));
  }
  c.mix(p.data(), 4096);
  return p;
}

void e2e(Ctx& c, Report& out, double seconds, Tracer* tr) {
  World mailbox(2, loop("mailbox")), rdma(2, loop("rdma"));
  const std::vector<char> pattern = seeded_pattern(c);
  const Case cases[] = {
      {.netmod = "mailbox", .bytes = 1, .iters = 2000, .world = &mailbox,
       .names = {"bench.pingpong_iter", "core.send", "core.recv"}},
      {.netmod = "mailbox", .bytes = kLarge, .iters = 48, .world = &mailbox,
       .names = {"bench.pingpong_iter_large", "core.send_large", "core.recv_large"}},
      {.netmod = "rdma", .bytes = 1, .iters = 2000, .world = &rdma,
       .names = {"bench.pingpong_iter_rdma", "core.send_rdma", "core.recv_rdma"}},
      {.netmod = "rdma", .bytes = kLarge, .iters = 48, .world = &rdma,
       .names = {"bench.pingpong_iter_rdma_large", "core.send_rdma_large",
                 "core.recv_rdma_large"}},
  };
  Samples got[4];
  std::uint32_t id = 0;
  Budget b(seconds, 4);
  while (b.next()) {
    for (int i : c.order(4)) chunk(c, cases[i], got[i], pattern, tr, id);
  }

  auto note = [&](int i, const char* q) {
    return fmt("median over %zu chunks of the chunk %s of %d round trips / 2 (%zu in all), %zu B, %s",
               got[i].p50.size(), q, cases[i].iters, got[i].lat.size(), cases[i].bytes,
               cases[i].netmod);
  };
  out.add("lat_small_p50_ns", median(got[0].p50), "ns", note(0, "p50"));
  out.add("lat_small_p99_ns", median(got[0].p99), "ns", note(0, "p99"));
  out.add("lat_large_p50_us", median(got[1].p50) / 1e3, "us", note(1, "p50"));
  out.add("rdma_lat_small_p50_ns", median(got[2].p50), "ns", note(2, "p50"));
  out.add("rdma_lat_large_p50_us", median(got[3].p50) / 1e3, "us", note(3, "p50"));
  if (tr == nullptr) return;

  // Counts from the traced run's worlds.
  const double idle = static_cast<double>(pvar_sum(mailbox, "progress_calls_idle"));
  const double swept = static_cast<double>(pvar_sum(mailbox, "progress_calls_swept"));
  c.layers.add("core.progress_swept_ratio", idle + swept > 0 ? swept / (idle + swept) : 0, "ratio",
               "progress_calls_swept / (idle + swept), mailbox ping-pong world");
  std::uint64_t injected = 0, hits = 0, misses = 0;
  for (Rank r = 0; r < 2; ++r) {
    injected += mailbox.fabric().injected(r);
    hits += rdma.fabric().net_stat(net::NetStat::RegCacheHit, r);
    misses += rdma.fabric().net_stat(net::NetStat::RegCacheMiss, r);
  }
  c.layers.add("net.packets_per_large_msg",
               got[1].messages > 0
                   ? static_cast<double>(injected - got[0].messages) / got[1].messages
                   : 0,
               "count", "mailbox packets injected per 256 KiB message (1-byte messages take 1)");
  c.layers.add("net.rdma_reg_cache_hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
               "ratio", "rdma registrations served by the cache, ping-pong world");
  c.layers.add("core.send_ns", span_median_ns(*tr, "core.send"), "ns",
               "median per-call span, 1 B mailbox send");
  c.layers.add("core.recv_ns", span_median_ns(*tr, "core.recv"), "ns",
               "median per-call span, 1 B mailbox recv (includes the wait for the echo)");
}

double setup(Ctx&) {
  const std::uint64_t t0 = now_ns();
  World mailbox(2, loop("mailbox")), rdma(2, loop("rdma"));
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void inject_poll(Ctx& c, Tracer& tr, const char* netmod, const char* span) {
  net::Fabric f(2, 16, net::loopback(), 1, netmod);
  const char byte = 7;
  rt::Packet* pk[256];
  std::uint64_t lost = 0;
  for (int r = 0; r < 96; ++r) {
    for (auto& p : pk) {
      p = rt::PacketPool::alloc();
      p->set_payload(&byte, 1);
    }
    {
      Scope s(&tr, span, Layer::net, static_cast<std::uint32_t>(r), 256);
      for (auto& p : pk) {
        f.inject(0, 1, p);
        p = f.poll(1, 0);
        f.credit_return(1, 0);
      }
    }
    for (auto* p : pk) {
      lost += p == nullptr || p->payload.size() != 1;
      if (p != nullptr) rt::PacketPool::free(p);
    }
  }
  c.ops(96 * 256, lost, "standalone fabric inject+poll");
}

void layers(Ctx& c, Tracer& tr) {
  inject_poll(c, tr, "mailbox", "net.inject_poll");
  inject_poll(c, tr, "rdma", "net.rdma_inject_poll");
  c.layers.add("net.inject_poll_ns", span_median_ns(tr, "net.inject_poll"), "ns",
               "median over windows of 256 1-byte inject+poll pairs, standalone mailbox fabric");
  c.layers.add("net.rdma_inject_poll_ns", span_median_ns(tr, "net.rdma_inject_poll"), "ns",
               "median over windows of 256 1-byte inject+poll pairs, standalone rdma fabric");

  // Progress on an idle engine: rank 1 leaves at once, so nothing arrives.
  {
    World w(2, loop("mailbox"));
    w.run([&](Engine& e) {
      if (e.world_rank() != 0) return;
      for (int r = 0; r < 96; ++r) {
        Scope s(&tr, "core.progress_idle", Layer::core, static_cast<std::uint32_t>(r), 1024);
        for (int i = 0; i < 1024; ++i) e.progress();
      }
    });
  }
  c.layers.add("core.progress_idle_ns", span_median_ns(tr, "core.progress_idle"), "ns",
               "median over windows of 1024 progress() calls with nothing to do");

  // Contiguous pack of one rendezvous-size message.
  {
    dt::TypeEngine te;
    std::vector<char> src(kLarge, 3);
    std::vector<std::byte> dst(kLarge);
    std::uint64_t short_packs = 0;
    for (int r = 0; r < 48; ++r) {
      Scope s(&tr, "datatype.pack_contig", Layer::datatype, static_cast<std::uint32_t>(r), 4);
      for (int i = 0; i < 4; ++i) {
        short_packs += dt::pack(te, src.data(), static_cast<int>(kLarge), kChar, dst.data()) != kLarge;
      }
    }
    c.ops(48 * 4, short_packs, "contiguous pack");
  }
  c.layers.add("datatype.pack_contig_ns_per_kib",
               span_median_ns(tr, "datatype.pack_contig") / (kLarge / 1024.0), "ns",
               "median over windows of 4 packs of 256 KiB, per KiB");
  const double mb = c.e2e.get("lat_large_p50_us");
  c.layers.add("shape.rdma_over_mailbox_lat_large", mb > 0 ? c.e2e.get("rdma_lat_large_p50_us") / mb : 0,
               "ratio", "rdma_lat_large_p50_us over lat_large_p50_us, untraced");
}

}  // namespace

const Group kPingpong = {"pingpong", "lat_small_p50_ns", false, e2e, layers, setup};

}  // namespace pb
