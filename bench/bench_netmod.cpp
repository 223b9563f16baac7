// Netmod crossover sweep: eager vs rendezvous per transport backend.
//
// The paper's fig3/fig4 crossovers come from two genuinely different
// injection semantics; this bench re-derives the protocol crossover per
// netmod backend and shows where the rdma backend's mechanisms move it:
//
//   1. Size sweep (1 KiB .. 256 KiB), each size measured ping-pong with the
//      protocol forced eager and forced rendezvous, on both backends. The
//      knee is the first size where rendezvous beats eager. On `rdma` the
//      rendezvous arm is the zero-copy registered-buffer handoff, so a warm
//      registration cache pulls the knee down.
//   2. Registration-cache behavior: a repeated-buffer rendezvous sweep (same
//      send/recv buffers every iteration) must resolve > 90% of
//      registrations from the cache; a rotating-buffer sweep over more
//      distinct buffers than the cache holds must miss and evict.
//   3. Zero-copy payoff: at >= 64 KiB the rdma backend's zero-copy rendezvous
//      must beat the mailbox backend's staged-copy rendezvous (one copy and
//      no per-segment staging vs two copies), measured on a zero-latency
//      profile so the software difference is what's timed.
//
// Exit status is nonzero if any gate fails. Writes BENCH_netmod.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/pvar.hpp"

namespace {

using namespace lwmpi;

// Force-rendezvous threshold: 1-byte ping-pong acks stay eager (bytes <=
// threshold), every >= 1 KiB payload takes the rendezvous path.
constexpr std::size_t kForceRdv = 8;
constexpr std::size_t kForceEager = 1u << 30;

struct SweepResult {
  double ns_per_iter = 0.0;   // min over iterations (round trip)
  std::uint64_t reg_hits = 0;  // summed over both ranks
  std::uint64_t reg_misses = 0;
  std::uint64_t reg_evictions = 0;
  std::uint64_t zcopy_writes = 0;
};

std::uint64_t read_pvar(Engine& e, const char* name) {
  const int idx = obs::LWMPI_T_pvar_index(name);
  if (idx < 0) return 0;
  obs::PvarSession s;
  obs::LWMPI_T_pvar_session_create(e, &s);
  std::uint64_t v = 0;
  obs::LWMPI_T_pvar_read(s, idx, &v);
  obs::LWMPI_T_pvar_session_free(&s);
  return v;
}

// Ping-pong: rank 0 sends `size` bytes, rank 1 replies with a 1-byte ack.
// `nbufs` > 1 rotates the payload through distinct buffers (registration-
// cache pressure); 1 reuses the same buffer every iteration.
SweepResult pingpong(const net::Profile& profile, const std::string& netmod,
                     std::size_t eager_threshold, std::size_t size, int iters,
                     int nbufs = 1) {
  WorldOptions o;
  o.profile = profile;
  o.netmod = netmod;
  o.ranks_per_node = 1;  // inter-node cost parameters
  o.eager_threshold = eager_threshold;
  World w(2, o);
  SweepResult res;
  double best = 0.0;
  w.run([&](Engine& e) {
    std::vector<std::vector<char>> bufs(static_cast<std::size_t>(nbufs));
    for (auto& b : bufs) b.assign(size, static_cast<char>(e.world_rank()));
    char ack = 0;
    const int count = static_cast<int>(size);
    if (e.world_rank() == 0) {
      for (int i = 0; i < iters; ++i) {
        char* buf = bufs[static_cast<std::size_t>(i % nbufs)].data();
        const std::uint64_t t0 = rt::now_ns();
        e.send(buf, count, kChar, 1, 7, kCommWorld);
        e.recv(&ack, 1, kChar, 1, 8, kCommWorld, nullptr);
        const double ns = static_cast<double>(rt::now_ns() - t0);
        if (i >= 2 && (best == 0.0 || ns < best)) best = ns;  // skip warmup
      }
    } else {
      for (int i = 0; i < iters; ++i) {
        char* buf = bufs[static_cast<std::size_t>(i % nbufs)].data();
        e.recv(buf, count, kChar, 0, 7, kCommWorld, nullptr);
        e.send(&ack, 1, kChar, 0, 8, kCommWorld);
      }
    }
  });
  // Read the pvars once the rank threads have joined: summing into `res`
  // from inside the rank lambdas would race.
  for (int r = 0; r < w.nranks(); ++r) {
    Engine& e = w.engine(r);
    res.reg_hits += read_pvar(e, "rdma_reg_cache_hits");
    res.reg_misses += read_pvar(e, "rdma_reg_cache_misses");
    res.reg_evictions += read_pvar(e, "rdma_reg_cache_evictions");
    res.zcopy_writes += read_pvar(e, "rdma_zero_copy_writes");
  }
  res.ns_per_iter = best;
  return res;
}

}  // namespace

int main() {
  using bench::print_header;
  int failures = 0;
  bench::JsonResult json("netmod");

  // --- 1. eager/rendezvous crossover per backend ----------------------------
  print_header("bench_netmod: eager vs rendezvous crossover per backend");
  const net::Profile wire = net::psm2();
  const std::vector<std::size_t> sizes = {1u << 10, 4u << 10, 16u << 10,
                                          64u << 10, 128u << 10, 256u << 10};
  constexpr int kIters = 40;
  for (const char* netmod : {"mailbox", "rdma"}) {
    std::printf("\n  netmod %-8s %10s %14s %14s\n", netmod, "size", "eager ns", "rdv ns");
    std::size_t knee = 0;
    for (std::size_t s : sizes) {
      const double eager =
          pingpong(wire, netmod, kForceEager, s, kIters).ns_per_iter;
      const double rdv = pingpong(wire, netmod, kForceRdv, s, kIters).ns_per_iter;
      std::printf("  %-15s %9zuB %14.0f %14.0f%s\n", "", s, eager, rdv,
                  rdv < eager ? "  <- rdv wins" : "");
      if (knee == 0 && rdv < eager) knee = s;
      json.add(std::string(netmod) + " eager " + std::to_string(s) + "B", eager, "ns");
      json.add(std::string(netmod) + " rdv " + std::to_string(s) + "B", rdv, "ns");
    }
    std::printf("  %s crossover knee: %zu bytes%s\n", netmod, knee,
                knee == 0 ? " (none found)" : "");
    json.add(std::string(netmod) + " crossover knee", static_cast<double>(knee), "bytes");
    if (std::strcmp(netmod, "rdma") == 0 && knee == 0) {
      std::printf("  FAIL: rdma backend shows no eager/rendezvous crossover\n");
      ++failures;
    }
  }

  // --- 2. registration cache: repeated vs rotating buffers ------------------
  print_header("bench_netmod: registration-cache behavior (rdma)");
  net::Profile cacheprof = net::psm2();
  cacheprof.reg_cache_capacity = 16;
  const std::size_t kRegSize = 64u << 10;
  const SweepResult repeated = pingpong(cacheprof, "rdma", kForceRdv, kRegSize, 200, 1);
  const SweepResult rotating = pingpong(cacheprof, "rdma", kForceRdv, kRegSize, 200, 64);
  const double rep_total = static_cast<double>(repeated.reg_hits + repeated.reg_misses);
  const double hit_rate =
      rep_total > 0 ? static_cast<double>(repeated.reg_hits) / rep_total : 0.0;
  std::printf("  repeated buffer: hits %llu misses %llu evictions %llu (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(repeated.reg_hits),
              static_cast<unsigned long long>(repeated.reg_misses),
              static_cast<unsigned long long>(repeated.reg_evictions), hit_rate * 100.0);
  std::printf("  rotating buffers: hits %llu misses %llu evictions %llu\n",
              static_cast<unsigned long long>(rotating.reg_hits),
              static_cast<unsigned long long>(rotating.reg_misses),
              static_cast<unsigned long long>(rotating.reg_evictions));
  json.add("repeated reg hit rate", hit_rate, "fraction");
  json.add("rotating reg misses", static_cast<double>(rotating.reg_misses), "count");
  json.add("rotating reg evictions", static_cast<double>(rotating.reg_evictions), "count");
  if (hit_rate <= 0.90) {
    std::printf("  FAIL: repeated-buffer hit rate %.1f%% <= 90%%\n", hit_rate * 100.0);
    ++failures;
  }
  if (rotating.reg_misses <= repeated.reg_misses || rotating.reg_evictions == 0) {
    std::printf("  FAIL: rotating buffers did not miss/evict more than repeated\n");
    ++failures;
  }
  if (repeated.zcopy_writes == 0) {
    std::printf("  FAIL: rendezvous sweep issued no zero-copy writes\n");
    ++failures;
  }

  // --- 3. zero-copy vs staged rendezvous at >= 64 KiB -----------------------
  print_header("bench_netmod: zero-copy vs staged rendezvous (software path)");
  // Zero-latency, infinite-bandwidth profile with a real pin cost: what is
  // timed is the software difference (1 copy + cached registration vs 2
  // copies + per-segment staging), not the shared wire time.
  net::Profile sw = net::loopback();
  sw.pin_cost_ns_per_page = 200;
  bool zcopy_faster = true;
  for (std::size_t s : {64u << 10, 128u << 10, 256u << 10}) {
    const double staged = pingpong(sw, "mailbox", kForceRdv, s, 60).ns_per_iter;
    const double zcopy = pingpong(sw, "rdma", kForceRdv, s, 60).ns_per_iter;
    std::printf("  %6zu KiB: staged (mailbox) %10.0f ns   zero-copy (rdma) %10.0f ns%s\n",
                s >> 10, staged, zcopy, zcopy < staged ? "" : "  <- NOT faster");
    json.add("staged rdv " + std::to_string(s) + "B", staged, "ns");
    json.add("zcopy rdv " + std::to_string(s) + "B", zcopy, "ns");
    zcopy_faster = zcopy_faster && zcopy < staged;
  }
  if (!zcopy_faster) {
    std::printf("  FAIL: zero-copy rendezvous not faster than staged at >= 64 KiB\n");
    ++failures;
  }

  json.add("gate failures", static_cast<double>(failures), "count");
  json.write();
  std::printf("\nbench_netmod: %s (%d gate failure%s)\n", failures == 0 ? "PASS" : "FAIL",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
