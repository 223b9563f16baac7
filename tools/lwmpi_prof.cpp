// lwmpi_prof: render and diff the aggregate profiler's JSON artifacts.
//
// The profiler (src/obs/profiler.hpp) writes a versioned profile artifact at
// World teardown (WorldOptions::prof_path / LWMPI_CVAR_PROF_PATH). This tool
// consumes that artifact:
//
//   lwmpi_prof profile.json            per-phase summary, top callsites, and
//                                      an ANSI rank x rank heatmap of the
//                                      communication matrix
//   lwmpi_prof --diff a.json b.json    compare two runs: per-callsite count /
//                                      bytes / time deltas and matrix deltas
//   lwmpi_prof --demo [--out F]        run a live 2-rank skewed workload with
//                                      profiling on, write the artifact, and
//                                      render it (the tool's acceptance test)
//
// The heatmap colors each (src, dst) cell by total bytes relative to the
// hottest pair (256-color grayscale ramp on a tty, an ASCII density ramp
// otherwise), so congestion structure -- a hot halo neighbor, an all-to-all
// wall, a lopsided root -- is visible at a glance.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "runtime/world.hpp"
#include "tools/profile_load.hpp"

namespace {

using lwmpi::tools::load_profile;
using lwmpi::tools::Profile;
using lwmpi::tools::SiteAgg;

// --- rendering --------------------------------------------------------------

std::string human_bytes(std::uint64_t b) {
  char buf[32];
  if (b >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fGiB", static_cast<double>(b) / (1ull << 30));
  } else if (b >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", static_cast<double>(b) / (1ull << 20));
  } else if (b >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", static_cast<double>(b) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(b));
  }
  return buf;
}

// Heatmap of the all-class byte matrix. Each cell is two columns wide; the
// intensity scale is linear in bytes relative to the hottest cell.
void render_heatmap(const Profile& p, bool color) {
  const std::size_t n = static_cast<std::size_t>(p.nranks);
  if (n == 0) return;
  std::uint64_t max_b = 0;
  for (std::uint64_t b : p.matrix_total) max_b = std::max(max_b, b);
  std::printf("comm matrix (rows = src, cols = dst, hottest pair = %s):\n",
              human_bytes(max_b).c_str());
  static const char* kRamp = " .:-=+*#%@";  // 10 density steps for non-tty
  std::printf("     ");
  for (std::size_t d = 0; d < n; ++d) std::printf("%2zu", d % 100);
  std::printf("\n");
  for (std::size_t s = 0; s < n; ++s) {
    std::printf("%4zu ", s);
    std::uint64_t row_tx = 0;
    for (std::size_t d = 0; d < n; ++d) {
      const std::uint64_t b = p.matrix_total[s * n + d];
      row_tx += b;
      const double frac = max_b == 0 ? 0.0 : static_cast<double>(b) / max_b;
      if (color) {
        // 256-color grayscale ramp: 232 (near-black) .. 255 (white).
        const int shade = b == 0 ? 232 : 236 + static_cast<int>(frac * 19.0);
        std::printf("\x1b[48;5;%dm  \x1b[0m", std::min(shade, 255));
      } else {
        const int step = b == 0 ? 0 : 1 + static_cast<int>(frac * 8.0);
        const char c = kRamp[std::min(step, 9)];
        std::printf("%c%c", c, c);
      }
    }
    std::printf("  tx=%s\n", human_bytes(row_tx).c_str());
  }
  // Per-class totals, so the eager / rendezvous / zcopy split is visible
  // without reading raw JSON.
  std::printf("class split:");
  for (const auto& [cls, cells] : p.matrix_by_class) {
    std::uint64_t t = 0;
    for (std::uint64_t b : cells) t += b;
    std::printf("  %s=%s", cls.c_str(), human_bytes(t).c_str());
  }
  std::printf("\n");
}

void render_summary(const Profile& p, bool color) {
  std::printf("lwmpi profile: %d rank(s), netmod %s, %zu phase(s)\n", p.nranks,
              p.netmod.c_str(), p.phases.size());
  if (p.pop_warnings != 0 || p.phase_overflows != 0) {
    std::printf("  warnings: %llu unbalanced phase pop(s), %llu phase-table overflow(s)\n",
                static_cast<unsigned long long>(p.pop_warnings),
                static_cast<unsigned long long>(p.phase_overflows));
  }
  for (const std::string& ph : p.phases) {
    const auto it = p.phase_time.find(ph);
    if (it == p.phase_time.end()) continue;
    std::uint64_t max_ns = 0;
    std::uint64_t sum_ns = 0;
    std::size_t max_rank = 0;
    for (std::size_t r = 0; r < it->second.size(); ++r) {
      sum_ns += it->second[r];
      if (it->second[r] > max_ns) {
        max_ns = it->second[r];
        max_rank = r;
      }
    }
    const double mean = p.nranks > 0 ? static_cast<double>(sum_ns) / p.nranks : 0.0;
    std::printf("phase \"%s\": mpi time max=%.1fus (rank %zu) mean=%.1fus imbalance=%.2fx\n",
                ph.c_str(), max_ns / 1e3, max_rank, mean / 1e3,
                mean > 0.0 ? max_ns / mean : 1.0);
  }
  // Top callsites by time.
  std::vector<std::pair<std::string, SiteAgg>> top(p.sites.begin(), p.sites.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second.time_ns > b.second.time_ns;
  });
  if (top.size() > 8) top.resize(8);
  std::printf("top callsites (by MPI time, all ranks):\n");
  for (const auto& [site, a] : top) {
    std::printf("  %-22s count=%-10llu bytes=%-10s time=%.1fus\n", site.c_str(),
                static_cast<unsigned long long>(a.count), human_bytes(a.bytes).c_str(),
                a.time_ns / 1e3);
  }
  render_heatmap(p, color);
}

// --- diff -------------------------------------------------------------------

int run_diff(const char* path_a, const char* path_b, bool color) {
  Profile a;
  Profile b;
  std::string err;
  if (!load_profile(path_a, &a, &err) || !load_profile(path_b, &b, &err)) {
    std::fprintf(stderr, "lwmpi_prof: %s\n", err.c_str());
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
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    const auto dx = x.b.time_ns > x.a.time_ns ? x.b.time_ns - x.a.time_ns
                                              : x.a.time_ns - x.b.time_ns;
    const auto dy = y.b.time_ns > y.a.time_ns ? y.b.time_ns - y.a.time_ns
                                              : y.a.time_ns - y.b.time_ns;
    return dx > dy;
  });
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
  std::uint64_t tot_a = 0;
  std::uint64_t tot_b = 0;
  for (std::uint64_t v : a.matrix_total) tot_a += v;
  for (std::uint64_t v : b.matrix_total) tot_b += v;
  std::printf("matrix bytes: %s -> %s (%+lld)\n", human_bytes(tot_a).c_str(),
              human_bytes(tot_b).c_str(),
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
    std::printf("B heatmap:\n");
    render_heatmap(b, color);
  }
  return 0;
}

// --- demo -------------------------------------------------------------------

// Live skewed workload: rank 0 streams most of the traffic, phases split the
// run into "halo" and "reduce" regions. Exits 0 iff the written artifact
// round-trips with nonzero callsite counts and matrix bytes.
int run_demo(const char* out_path, bool color) {
  using namespace lwmpi;
  {
    WorldOptions o;
    o.prof = true;
    o.prof_default_phase = "setup";
    o.prof_path = out_path;
    World w(2, o);
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
    // ~World writes the artifact.
  }
  Profile p;
  std::string err;
  if (!load_profile(out_path, &p, &err)) {
    std::fprintf(stderr, "lwmpi_prof: demo artifact unreadable: %s\n", err.c_str());
    return 1;
  }
  render_summary(p, color);
  std::uint64_t matrix_bytes = 0;
  for (std::uint64_t v : p.matrix_total) matrix_bytes += v;
  std::uint64_t calls = 0;
  for (const auto& [site, a] : p.sites) calls += a.count;
  std::printf("\ndemo complete: %llu call(s) across %zu callsite(s), %s on the matrix\n",
              static_cast<unsigned long long>(calls), p.sites.size(),
              human_bytes(matrix_bytes).c_str());
  if (calls == 0 || matrix_bytes == 0 || p.phases.size() < 3) {
    std::fprintf(stderr, "lwmpi_prof: demo failed (%s)\n",
                 calls == 0         ? "no callsites recorded"
                 : matrix_bytes == 0 ? "empty comm matrix"
                                     : "phase regions missing");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool diff = false;
  bool no_color = false;
  const char* out_path = "lwmpi_prof_demo_profile.json";
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      diff = true;
    } else if (std::strcmp(argv[i], "--no-color") == 0) {
      no_color = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      paths.push_back(argv[i]);
    }
  }
  const bool color = !no_color && isatty(STDOUT_FILENO) != 0;
  if (demo) return run_demo(out_path, color);
  if (diff) {
    if (paths.size() != 2) {
      std::fprintf(stderr, "usage: lwmpi_prof --diff <a.json> <b.json>\n");
      return 2;
    }
    return run_diff(paths[0], paths[1], color);
  }
  if (paths.size() != 1) {
    std::fprintf(stderr,
                 "usage: lwmpi_prof <profile.json>\n"
                 "       lwmpi_prof --diff <a.json> <b.json>\n"
                 "       lwmpi_prof --demo [--out profile.json]\n");
    return 2;
  }
  Profile p;
  std::string err;
  if (!load_profile(paths[0], &p, &err)) {
    std::fprintf(stderr, "lwmpi_prof: %s\n", err.c_str());
    return 1;
  }
  render_summary(p, color);
  return 0;
}
