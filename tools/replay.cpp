// lwmpi replay: record communication traces and re-execute them as workloads.
//
//   lwmpi replay --record stencil|md|storm --out <prefix> [--netmod m]
//       run a canned workload with the flight recorder in bundle mode
//       (sample_shift 0, deep ring) and flush `<prefix>.rank<r>.lwtrace`
//       plus the `<prefix>.json` provenance sidecar
//
//   lwmpi replay <prefix> [--netmod m] [--timescale t] [--check] [--quiet]
//       load a bundle and replay it through the public API, printing the
//       fidelity diff of replayed pvar totals against the recorded ones.
//       --netmod replays on a different transport than the recording;
//       --timescale 1.0 reproduces the recorded compute gaps (0 = as fast
//       as possible); --check exits nonzero unless fidelity is exact
//
//   lwmpi replay --demo [--out <prefix>]
//       record a 4-rank stencil halo exchange, immediately replay it, and
//       print the fidelity diff -- the round-trip acceptance check
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/md.hpp"
#include "apps/replay.hpp"
#include "apps/stencil.hpp"
#include "core/engine.hpp"
#include "runtime/backoff.hpp"
#include "runtime/world.hpp"
#include "tools/cli.hpp"

namespace lwmpi::cli {

namespace {

// Checkpoint-storm synthetic: alternating compute phases and bursts where
// every rank pushes a large (rendezvous-path) checkpoint block at rank 0,
// bracketed by the collectives a checkpoint library would issue. Stresses
// the n->1 incast pattern the stencil/md workloads never produce.
void run_storm(Engine& e, int rounds, int block_bytes) {
  const int r = e.world_rank();
  const int n = e.world_size();
  std::vector<char> block(static_cast<std::size_t>(block_bytes), 'c');
  std::vector<char> sink(static_cast<std::size_t>(block_bytes));
  double my_cost = 1.0;
  double agreed = 0.0;
  for (int round = 0; round < rounds; ++round) {
    rt::spin_for_ns(20'000);  // the compute phase between checkpoints
    // "Should we checkpoint now?" -- the storm's coordination collective.
    e.allreduce(&my_cost, &agreed, 1, kDouble, ReduceOp::Sum, kCommWorld);
    if (r == 0) {
      for (int src = 1; src < n; ++src) {
        e.recv(sink.data(), block_bytes, kChar, src, 100 + round, kCommWorld, nullptr);
      }
    } else {
      rt::spin_for_ns(5'000 * static_cast<std::uint64_t>(r));  // staggered arrival
      e.send(block.data(), block_bytes, kChar, 0, 100 + round, kCommWorld);
    }
    int epoch = round;
    e.bcast(&epoch, 1, kInt, 0, kCommWorld);  // "checkpoint <round> is durable"
    e.barrier(kCommWorld);
  }
}

struct RecordSpec {
  int nranks = 4;
  const char* describe = "";
  void (*run)(Engine&) = nullptr;
};

void run_stencil_rec(Engine& e) {
  apps::StencilConfig cfg;
  cfg.nx = 32;
  cfg.ny = 32;
  cfg.px = 2;
  cfg.py = 2;
  cfg.iters = 8;
  apps::run_stencil(e, kCommWorld, cfg);
}

void run_md_rec(Engine& e) {
  apps::MdConfig cfg;
  cfg.px = 2;
  cfg.py = 2;
  cfg.pz = 2;
  cfg.cells_x = 2;
  cfg.cells_y = 2;
  cfg.cells_z = 2;
  cfg.steps = 4;
  apps::run_md(e, kCommWorld, cfg);
}

void run_storm_rec(Engine& e) { run_storm(e, 4, 48 * 1024); }

bool spec_for(const std::string& name, RecordSpec* out) {
  if (name == "stencil") {
    *out = {4, "2x2 Jacobi stencil halo exchange, 8 iterations", &run_stencil_rec};
    return true;
  }
  if (name == "md") {
    *out = {8, "2x2x2 LJ molecular-dynamics ghost exchange, 4 steps", &run_md_rec};
    return true;
  }
  if (name == "storm") {
    *out = {4, "checkpoint storm: 4 rounds of 48KiB incast at rank 0", &run_storm_rec};
    return true;
  }
  return false;
}

int do_record(const std::string& workload, const std::string& prefix,
              const std::string& netmod, bool quiet) {
  RecordSpec spec;
  if (!spec_for(workload, &spec)) {
    std::fprintf(stderr, "lwmpi replay: unknown workload '%s' (stencil|md|storm)\n",
                 workload.c_str());
    return 2;
  }
  WorldOptions o;
  if (!netmod.empty()) o.netmod = netmod;
  o.record = true;
  o.record_path = prefix;
  o.record_sample_shift = 0;           // bundle mode: every op carries timing
  o.record_ring_depth = 1u << 16;      // deep enough that nothing wraps
  o.build.counters = true;             // fidelity totals come from the counters
  {
    World w(spec.nranks, o);
    w.run([&](Engine& e) { spec.run(e); });
    // Teardown (end of scope) flushes the bundle.
  }
  if (!quiet) {
    std::printf("recorded %s (%d ranks) -> %s.rank*.lwtrace\n", spec.describe,
                spec.nranks, prefix.c_str());
  }
  return 0;
}

int do_replay(const std::string& prefix, const apps::ReplayOptions& opts, bool check,
              bool quiet) {
  apps::TraceBundle bundle;
  std::string err;
  if (!apps::load_trace(prefix, &bundle, &err)) {
    std::fprintf(stderr, "lwmpi replay: %s\n", err.c_str());
    return 1;
  }
  if (!quiet) {
    std::uint64_t records = 0;
    for (const auto& r : bundle.ranks) records += r.header.nrecords;
    std::printf("loaded %s: %d rank(s), %llu record(s)%s\n", prefix.c_str(),
                bundle.nranks, static_cast<unsigned long long>(records),
                bundle.complete() ? "" : " [incomplete: wrapped or truncated]");
    std::printf("recorded on: netmod=%s device=%s eager_threshold=%llu\n",
                bundle.netmod.empty() ? "?" : bundle.netmod.c_str(),
                bundle.device.empty() ? "?" : bundle.device.c_str(),
                static_cast<unsigned long long>(bundle.eager_threshold));
  }

  const apps::ReplayResult res = apps::run_replay(bundle, opts);
  if (!res.ok) {
    std::fprintf(stderr, "lwmpi replay: replay did not run\n");
    return 1;
  }
  if (!quiet) {
    std::printf("replayed %llu op(s) on %s in %.2fms (skipped %llu, timeouts %llu)\n",
                static_cast<unsigned long long>(res.replayed), res.netmod.c_str(),
                static_cast<double>(res.wall_ns) / 1e6,
                static_cast<unsigned long long>(res.skipped),
                static_cast<unsigned long long>(res.timeouts));
    if (!res.fidelity_checked) {
      std::printf("fidelity: not checked (bundle incomplete)\n");
    } else {
      std::printf("fidelity: engine totals %s", res.fidelity_ok ? "exact" : "MISMATCH");
      if (res.fabric_checked) {
        std::printf(", fabric totals %s", res.fabric_ok ? "exact" : "differ");
      } else {
        std::printf(", fabric totals not compared (different netmod)");
      }
      std::printf("\n");
      for (const std::string& d : res.diffs) std::printf("  %s\n", d.c_str());
    }
  }
  if (check && (!res.fidelity_checked || !res.fidelity_ok)) {
    std::fprintf(stderr, "lwmpi replay: fidelity check failed\n");
    return 1;
  }
  return 0;
}

int do_demo(const std::string& prefix, bool quiet) {
  if (!quiet) std::printf("=== record: 4-rank stencil halo exchange ===\n");
  if (int rc = do_record("stencil", prefix, "", quiet); rc != 0) return rc;
  if (!quiet) std::printf("=== replay ===\n");
  apps::ReplayOptions opts;
  return do_replay(prefix, opts, /*check=*/true, quiet);
}

}  // namespace

int replay_main(int argc, char** argv) {
  const Args args(argc, argv, {"--demo", "--check", "--quiet"},
                  {"--record", "--out", "--netmod", "--timescale"});
  const std::vector<std::string>& pos = args.positional;
  if (!args.ok || pos.size() > 1) {
    return usage("usage: lwmpi replay --record stencil|md|storm --out <prefix> [--netmod m]\n"
                 "       lwmpi replay <prefix> [--netmod m] [--timescale t] [--check]"
                 " [--quiet]\n"
                 "       lwmpi replay --demo [--out <prefix>]\n");
  }
  const bool quiet = args.has("--quiet");
  const std::string out = args.get("--out");
  apps::ReplayOptions opts;
  opts.netmod = args.get("--netmod");
  opts.timescale = std::strtod(args.get("--timescale", "0").c_str(), nullptr);
  if (args.has("--demo")) return do_demo(out.empty() ? "lwmpi_replay_demo" : out, quiet);
  if (args.has("--record")) {
    if (out.empty()) {
      std::fprintf(stderr, "lwmpi replay: --record needs --out <prefix>\n");
      return 2;
    }
    return do_record(args.get("--record"), out, opts.netmod, quiet);
  }
  if (pos.empty()) {
    std::fprintf(stderr, "lwmpi replay: give a trace prefix, --record, or --demo\n");
    return 2;
  }
  return do_replay(pos[0], opts, args.has("--check"), quiet);
}

}  // namespace lwmpi::cli
