// lwmpi check: the bench regression sentinel and the artifact checkers.
//
//   lwmpi check [--tolerance <frac>] [--update] <baseline-dir> <current-dir> [name...]
//   lwmpi check --profcheck <profile.json>
//   lwmpi check --replaycheck <BENCH_replay.json>
//
// Compares <current-dir>/BENCH_<name>.json against the committed baseline in
// <baseline-dir> for each bench name (default: the deterministic benches,
// table1 and fig2, plus the per-backend rate figures). Instruction/count
// entries must match bit-for-bit; other units are report-only unless
// --tolerance gives an allowed relative band. --update copies the current
// artifacts over the baselines instead of comparing (the acknowledged-change
// workflow; see README).
//
// --profcheck loads an aggregate-profiler artifact (the JSON the World
// writes at teardown when WorldOptions::prof_path is set) with the strict
// loader `lwmpi prof` uses (obs/profile_load.hpp): version key,
// rank/phase/callsite structure, and matrix cells with in-range endpoints and
// known message classes.
//
// --replaycheck validates a BENCH_replay.json artifact (bench/bench_replay):
// every bundle x netmod cell must be present with its throughput, op counts,
// and captured-pvar entries under the expected units, and the recorded
// fidelity gates must have held -- fidelity_exact == 1 and timeouts == 0 for
// all cells. This is the acceptance half of the replay tier: the bench
// writes the artifact, the sentinel refuses to bless a run whose replays
// were not bit-exact against their recordings.
//
// Exit status: 0 clean, 1 regression/schema errors found, 2 usage/io error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/profile_load.hpp"
#include "tools/check_core.hpp"
#include "tools/cli.hpp"

namespace lwmpi::cli {

namespace {

using obs::json::read_file;

// ---------------------------------------------------------------------------
// --profcheck: aggregate-profiler artifact schema validator
// ---------------------------------------------------------------------------

int run_profcheck(const char* path) {
  obs::Profile p;
  std::string err;
  if (!obs::load_profile(path, &p, &err)) {
    std::fprintf(stderr, "profcheck: %s\n", err.c_str());
    return 1;
  }
  std::printf("profcheck: %s OK (%d ranks, %zu phases, %zu callsite rows, "
              "%zu matrix cells)\n",
              path, p.nranks, p.phases.size(), p.callsite_rows, p.matrix_cells);
  return 0;
}

// ---------------------------------------------------------------------------
// --replaycheck: trace-replay bench artifact validator
// ---------------------------------------------------------------------------

int run_replaycheck(const char* path) {
  std::string body;
  if (!read_file(path, &body)) {
    std::fprintf(stderr, "lwmpi check: cannot read %s\n", path);
    return 2;
  }
  const tools::BenchFile bf = tools::parse_bench_json(body);
  if (!bf.ok || bf.bench != "replay") {
    std::fprintf(stderr, "replaycheck: %s is not a BENCH_replay.json artifact\n", path);
    return 1;
  }

  const auto find = [&bf](const std::string& label) { return tools::find_entry(bf, label); };

  int errors = 0;
  auto fail = [&errors](const char* what, const std::string& detail) {
    std::fprintf(stderr, "replaycheck: %s: %s\n", what, detail.c_str());
    ++errors;
  };

  // The cell grid bench_replay sweeps, and the unit every field must carry.
  static const char* kBundles[] = {"stencil4", "md8", "storm4"};
  static const char* kNetmods[] = {"mailbox", "rdma"};
  static const struct {
    const char* suffix;
    const char* unit;
  } kFields[] = {
      {"_ops_per_sec", "ops/s"}, {"_replayed", "count"}, {"_skipped", "count"},
      {"_timeouts", "count"},    {"_fidelity_exact", "bool"},
  };

  int cells = 0;
  for (const char* bundle : kBundles) {
    for (const char* netmod : kNetmods) {
      const std::string cell = std::string(bundle) + "_" + netmod;
      ++cells;
      for (const auto& f : kFields) {
        const tools::Entry* e = find(cell + f.suffix);
        if (e == nullptr) {
          fail("missing entry", cell + f.suffix);
          continue;
        }
        if (e->unit != f.unit) {
          fail("wrong unit", cell + f.suffix + ": '" + e->unit + "' (want '" +
                                 f.unit + "')");
        }
      }
      // The gates the bench itself enforces; a hand-edited or stale artifact
      // that slipped past them fails here.
      if (const tools::Entry* e = find(cell + "_fidelity_exact");
          e != nullptr && e->value != 1.0) {
        fail("fidelity not exact", cell);
      }
      if (const tools::Entry* e = find(cell + "_timeouts");
          e != nullptr && e->value != 0.0) {
        fail("replay hit timeouts", cell);
      }
      if (const tools::Entry* e = find(cell + "_replayed");
          e != nullptr && e->value <= 0.0) {
        fail("nothing replayed", cell);
      }
    }
  }

  // Captured-pvar entries ride along per cell; only their unit convention is
  // schema (which pvars are captured is the bench's choice).
  for (const tools::Entry& e : bf.entries) {
    const bool is_ns = e.label.size() >= 3 &&
                       e.label.compare(e.label.size() - 3, 3, "_ns") == 0;
    if (is_ns && e.unit != "ns") fail("ns-suffixed entry not in ns", e.label);
  }

  if (errors != 0) {
    std::fprintf(stderr, "replaycheck: %d error(s) in %s\n", errors, path);
    return 1;
  }
  std::printf("replaycheck: %s OK (%d cells, %zu entries)\n", path, cells,
              bf.entries.size());
  return 0;
}

}  // namespace

int check_main(int argc, char** argv) {
  const Args args(argc, argv, {"--update"},
                  {"--tolerance", "--profcheck", "--replaycheck"});
  const std::vector<std::string>& pos = args.positional;
  if (args.ok && args.has("--profcheck")) return run_profcheck(args.get("--profcheck").c_str());
  if (args.ok && args.has("--replaycheck")) {
    return run_replaycheck(args.get("--replaycheck").c_str());
  }
  if (!args.ok || pos.size() < 2) {
    return usage(
        "usage: lwmpi check [--tolerance <frac>] [--update] <baseline-dir> <current-dir>"
        " [name...]\n"
        "       lwmpi check --profcheck <profile.json>\n"
        "       lwmpi check --replaycheck <BENCH_replay.json>\n");
  }
  // Report-only for non-exact units unless a tolerance is given.
  const double tolerance = std::strtod(args.get("--tolerance", "-1").c_str(), nullptr);
  const bool update = args.has("--update");
  const std::string baseline_dir = pos[0];
  const std::string current_dir = pos[1];
  std::vector<std::string> names(pos.begin() + 2, pos.end());
  if (names.empty()) {
    // Deterministic benches plus the per-backend rate figures. The rate
    // artifacts carry only report-only units (msg/s), so by default they
    // guard schema (labels/units) rather than timing.
    names = {"table1", "fig2", "fig3_mailbox", "fig3_rdma", "fig4_mailbox", "fig4_rdma"};
  }

  bool all_ok = true;
  for (const std::string& name : names) {
    const std::string file = "BENCH_" + name + ".json";
    const std::string base_path = baseline_dir + "/" + file;
    const std::string cur_path = current_dir + "/" + file;

    if (update) {
      std::error_code ec;
      if (!std::filesystem::copy_file(cur_path, base_path,
                                      std::filesystem::copy_options::overwrite_existing, ec)) {
        std::fprintf(stderr, "lwmpi check: cannot copy %s -> %s\n", cur_path.c_str(),
                     base_path.c_str());
        return 2;
      }
      std::printf("updated %s\n", base_path.c_str());
      continue;
    }

    std::string base_body;
    std::string cur_body;
    if (!read_file(base_path, &base_body)) {
      std::fprintf(stderr, "lwmpi check: cannot read baseline %s\n", base_path.c_str());
      return 2;
    }
    if (!read_file(cur_path, &cur_body)) {
      std::fprintf(stderr, "lwmpi check: cannot read current %s\n", cur_path.c_str());
      return 2;
    }
    const tools::BenchFile base = tools::parse_bench_json(base_body);
    const tools::BenchFile cur = tools::parse_bench_json(cur_body);
    if (!base.ok || !cur.ok) {
      std::fprintf(stderr, "lwmpi check: malformed json for bench '%s': %s\n", name.c_str(),
                   (base.ok ? cur.error : base.error).c_str());
      return 2;
    }

    const tools::CompareResult r = tools::compare(base, cur, tolerance);
    std::printf("%-8s %-4s (%zu baseline entries", name.c_str(), r.ok ? "OK" : "FAIL",
                base.entries.size());
    if (!r.diffs.empty()) std::printf(", %zu diffs", r.diffs.size());
    std::printf(")\n");
    for (const tools::Diff& d : r.diffs) {
      std::printf("  [%s] %s (%s): baseline %.6g, current %.6g\n",
                  tools::to_string(d.kind), d.label.c_str(), d.unit.c_str(),
                  d.baseline, d.current);
    }
    all_ok = all_ok && r.ok;
  }
  if (!update && !all_ok) {
    std::fprintf(stderr,
                 "lwmpi check: regression detected; if the change is intended, refresh "
                 "the baselines with --update and commit them.\n");
    return 1;
  }
  return 0;
}

}  // namespace lwmpi::cli
