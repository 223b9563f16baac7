// lwmpi prof: render and diff the aggregate profiler's JSON artifacts.
//
// The profiler (src/obs/profiler.hpp) writes a versioned profile artifact at
// World teardown (WorldOptions::prof_path). This subcommand reads it with the
// strict loader and prints it with the one renderer (obs/profile_load.hpp)
// that World::profile_report() also uses:
//
//   lwmpi prof profile.json            per-phase summary, top callsites, an
//                                      ANSI rank x rank heatmap of the
//                                      communication matrix, hot pairs
//   lwmpi prof --diff a.json b.json    compare two runs: per-callsite count /
//                                      bytes / time deltas and matrix deltas
//   lwmpi prof --demo [--out F]        run a live 2-rank skewed workload with
//                                      profiling on, write the artifact, and
//                                      render it (the tool's acceptance test)
//
// The heatmap colors each (src, dst) cell by total bytes relative to the
// hottest pair (256-color grayscale ramp on a tty unless --no-color, an
// ASCII density ramp otherwise), so congestion structure -- a hot halo
// neighbor, an all-to-all wall, a lopsided root -- is visible at a glance.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "obs/profile_load.hpp"
#include "obs/text.hpp"
#include "runtime/world.hpp"
#include "tools/cli.hpp"

namespace lwmpi::cli {

namespace {

using obs::fmt_bytes;
using obs::load_profile;
using obs::Profile;
using obs::SiteAgg;

// --- diff -------------------------------------------------------------------

int run_diff(const char* path_a, const char* path_b, bool color) {
  Profile a;
  Profile b;
  std::string err;
  if (!load_profile(path_a, &a, &err) || !load_profile(path_b, &b, &err)) {
    std::fprintf(stderr, "lwmpi prof: %s\n", err.c_str());
    return 1;
  }
  std::printf("diff %s (A) vs %s (B):\n", path_a, path_b);
  if (a.nranks != b.nranks) {
    std::printf("  nranks: %d -> %d\n", a.nranks, b.nranks);
  }
  if (a.netmod != b.netmod) {
    std::printf("  netmod: %s -> %s\n", a.netmod.c_str(), b.netmod.c_str());
  }
  // Per-callsite deltas over the union of sites, sorted by |time delta|.
  struct Row {
    std::string site;
    SiteAgg a, b;
  };
  std::vector<Row> rows;
  for (const auto& [site, agg] : a.sites) {
    Row r{site, agg, {}};
    if (const auto it = b.sites.find(site); it != b.sites.end()) r.b = it->second;
    rows.push_back(std::move(r));
  }
  for (const auto& [site, agg] : b.sites) {
    if (a.sites.find(site) == a.sites.end()) rows.push_back(Row{site, {}, agg});
  }
  const auto dtime = [](const Row& r) {
    return r.b.time_ns > r.a.time_ns ? r.b.time_ns - r.a.time_ns : r.a.time_ns - r.b.time_ns;
  };
  std::sort(rows.begin(), rows.end(),
            [&](const Row& x, const Row& y) { return dtime(x) > dtime(y); });
  std::printf("%-22s %14s %14s %16s\n", "CALLSITE", "dCOUNT", "dBYTES", "dTIME");
  for (const Row& r : rows) {
    const auto dcount = static_cast<long long>(r.b.count) - static_cast<long long>(r.a.count);
    const auto dbytes = static_cast<long long>(r.b.bytes) - static_cast<long long>(r.a.bytes);
    const double dtime_us =
        (static_cast<double>(r.b.time_ns) - static_cast<double>(r.a.time_ns)) / 1e3;
    if (dcount == 0 && dbytes == 0 && r.a.time_ns == r.b.time_ns) continue;
    std::printf("%-22s %+14lld %+14lld %+15.1fus\n", r.site.c_str(), dcount, dbytes,
                dtime_us);
  }
  // Matrix byte delta: total plus the biggest single-pair movement.
  const std::uint64_t tot_a = a.matrix_bytes();
  const std::uint64_t tot_b = b.matrix_bytes();
  std::printf("matrix bytes: %s -> %s (%+lld)\n",
              fmt_bytes(static_cast<double>(tot_a)).c_str(),
              fmt_bytes(static_cast<double>(tot_b)).c_str(),
              static_cast<long long>(tot_b) - static_cast<long long>(tot_a));
  if (a.nranks == b.nranks && a.nranks > 0) {
    const std::size_t n = static_cast<std::size_t>(a.nranks);
    std::size_t hot = 0;
    long long hot_d = 0;
    for (std::size_t i = 0; i < n * n; ++i) {
      const long long d = static_cast<long long>(b.matrix_total[i]) -
                          static_cast<long long>(a.matrix_total[i]);
      if (std::llabs(d) > std::llabs(hot_d)) {
        hot_d = d;
        hot = i;
      }
    }
    if (hot_d != 0) {
      std::printf("largest pair delta: %zu -> %zu  %+lld bytes\n", hot / n, hot % n, hot_d);
    }
    std::printf("B heatmap:\n%s", obs::render_heatmap(b, color).c_str());
  }
  return 0;
}

// --- demo -------------------------------------------------------------------

// Live skewed workload: rank 0 streams most of the traffic, phases split the
// run into "halo" and "reduce" regions. Exits 0 iff the written artifact
// round-trips with nonzero callsite counts and matrix bytes.
int run_demo(const std::string& out_path, bool color) {
  {
    WorldOptions o;
    o.prof = true;
    o.prof_path = out_path;
    World w(2, o);
    // Calls outside the two regions would land in "setup", above "main".
    w.phase_push("setup");
    w.phase_push("halo");
    w.run([](Engine& e) {
      std::uint64_t buf[64] = {};
      if (e.world_rank() == 0) {
        for (int i = 0; i < 200; ++i) e.send(buf, 64, kUint64, 1, 7, kCommWorld);
      } else {
        for (int i = 0; i < 200; ++i) e.recv(buf, 64, kUint64, 0, 7, kCommWorld, nullptr);
      }
    });
    w.phase_pop();
    w.phase_push("reduce");
    w.run([](Engine& e) {
      std::uint64_t in = 1;
      std::uint64_t out = 0;
      for (int i = 0; i < 50; ++i) {
        e.allreduce(&in, &out, 1, kUint64, ReduceOp::Sum, kCommWorld);
      }
    });
    w.phase_pop();
    w.phase_pop();
    // ~World writes the artifact.
  }
  Profile p;
  std::string err;
  if (!load_profile(out_path, &p, &err)) {
    std::fprintf(stderr, "lwmpi prof: demo artifact unreadable: %s\n", err.c_str());
    return 1;
  }
  std::fputs(obs::render_text(p, color).c_str(), stdout);
  const std::uint64_t matrix_bytes = p.matrix_bytes();
  std::uint64_t calls = 0;
  for (const auto& [site, a] : p.sites) calls += a.count;
  std::printf("\ndemo complete: %llu call(s) across %zu callsite(s), %s on the matrix\n",
              static_cast<unsigned long long>(calls), p.sites.size(),
              fmt_bytes(static_cast<double>(matrix_bytes)).c_str());
  if (calls == 0 || matrix_bytes == 0 || p.phases.size() < 3) {
    std::fprintf(stderr, "lwmpi prof: demo failed (%s)\n",
                 calls == 0         ? "no callsites recorded"
                 : matrix_bytes == 0 ? "empty comm matrix"
                                     : "phase regions missing");
    return 1;
  }
  return 0;
}

}  // namespace

int prof_main(int argc, char** argv) {
  const Args args(argc, argv, {"--demo", "--diff", "--no-color"}, {"--out"});
  const bool color = !args.has("--no-color") && isatty(STDOUT_FILENO) != 0;
  const std::vector<std::string>& paths = args.positional;
  if (args.ok && args.has("--demo")) {
    return run_demo(args.get("--out", "lwmpi_prof_demo_profile.json"), color);
  }
  if (args.ok && args.has("--diff") && paths.size() == 2) {
    return run_diff(paths[0].c_str(), paths[1].c_str(), color);
  }
  if (!args.ok || args.has("--diff") || paths.size() != 1) {
    return usage("usage: lwmpi prof [--no-color] <profile.json>\n"
                 "       lwmpi prof [--no-color] --diff <a.json> <b.json>\n"
                 "       lwmpi prof [--no-color] --demo [--out profile.json]\n");
  }
  Profile p;
  std::string err;
  if (!load_profile(paths[0], &p, &err)) {
    std::fprintf(stderr, "lwmpi prof: %s\n", err.c_str());
    return 1;
  }
  std::fputs(obs::render_text(p, color).c_str(), stdout);
  return 0;
}

}  // namespace lwmpi::cli
