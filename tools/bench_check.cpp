// Bench regression sentinel CLI.
//
//   bench_check [--tolerance <frac>] [--update] <baseline-dir> <current-dir> [name...]
//   bench_check --promlint <exposition.prom>
//   bench_check --profcheck <profile.json>
//   bench_check --replaycheck <BENCH_replay.json>
//
// Compares <current-dir>/BENCH_<name>.json against the committed baseline in
// <baseline-dir> for each bench name (default: the deterministic benches,
// table1 and fig2). Instruction/count entries must match bit-for-bit; other
// units are report-only unless --tolerance gives an allowed relative band.
// --update copies the current artifacts over the baselines instead of
// comparing (the acknowledged-change workflow; see README).
//
// --profcheck loads an aggregate-profiler artifact (the JSON the World
// writes at teardown when LWMPI_CVAR_PROF_PATH is set) with the same strict
// loader tools/lwmpi_prof uses (tools/profile_load.hpp): version key,
// rank/phase/callsite structure, and matrix cells with in-range endpoints and
// known message classes. Header-only on obs/json.hpp -- no lwmpi dependency
// -- so CI can gate the artifact format even while the library is
// mid-refactor.
//
// --replaycheck validates a BENCH_replay.json artifact (bench/bench_replay):
// every bundle x netmod cell must be present with its throughput, op counts,
// and captured-pvar entries under the expected units, and the recorded
// fidelity gates must have held -- fidelity_exact == 1 and timeouts == 0 for
// all cells. This is the acceptance half of the replay tier: the bench
// writes the artifact, the sentinel refuses to bless a run whose replays
// were not bit-exact against their recordings. Pure string processing.
//
// --promlint validates a Prometheus text-exposition file (the telemetry
// sampler's export format) against the format rules promtool enforces:
// metric/label name charsets, HELP/TYPE comment shape, TYPE before samples
// and at most one per metric, parseable sample values, and no duplicate
// (name, label-set) series. Pure string processing -- no lwmpi dependency.
//
// Exit status: 0 clean, 1 regression/lint errors found, 2 usage/io error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/check_core.hpp"
#include "tools/profile_load.hpp"

namespace {

using lwmpi::obs::json::read_file;

// ---------------------------------------------------------------------------
// --promlint: Prometheus text-exposition linter
// ---------------------------------------------------------------------------

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_' || s[0] == ':')) {
    return false;
  }
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) {
      return false;
    }
  }
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  }
  return true;
}

bool valid_sample_value(const std::string& s) {
  if (s.empty()) return false;
  if (s == "NaN" || s == "+Inf" || s == "-Inf") return true;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

struct PromLinter {
  int errors = 0;
  int samples = 0;
  std::set<std::string> helped;
  std::set<std::string> typed;
  std::set<std::string> sampled;  // metrics that have emitted a sample
  std::set<std::string> series;   // name + canonical label set

  void fail(int line, const char* what, const std::string& detail) {
    std::fprintf(stderr, "promlint:%d: %s: %s\n", line, what, detail.c_str());
    ++errors;
  }

  void comment(int lineno, const std::string& line) {
    // "# HELP <name> <text>" / "# TYPE <name> <type>"; any other comment is
    // fine and ignored.
    std::istringstream is(line);
    std::string hash, kw, name;
    is >> hash >> kw >> name;
    if (kw != "HELP" && kw != "TYPE") return;
    if (!valid_metric_name(name)) {
      fail(lineno, "bad metric name in comment", name);
      return;
    }
    if (kw == "HELP") {
      if (!helped.insert(name).second) fail(lineno, "duplicate HELP", name);
      return;
    }
    std::string type;
    is >> type;
    if (type != "counter" && type != "gauge" && type != "histogram" &&
        type != "summary" && type != "untyped") {
      fail(lineno, "unknown TYPE", name + " " + type);
    }
    if (!typed.insert(name).second) fail(lineno, "duplicate TYPE", name);
    if (sampled.count(name) != 0) fail(lineno, "TYPE after samples", name);
  }

  void sample(int lineno, const std::string& line) {
    // <name>[{label="value",...}] <value> [<timestamp>]
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ' && line[i] != '\t') ++i;
    const std::string name = line.substr(0, i);
    if (!valid_metric_name(name)) {
      fail(lineno, "bad metric name", name);
      return;
    }
    std::vector<std::string> labels;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = line.find('=', i);
        if (eq == std::string::npos) {
          fail(lineno, "unterminated label pair", line.substr(i));
          return;
        }
        const std::string lname = line.substr(i, eq - i);
        if (!valid_label_name(lname)) {
          fail(lineno, "bad label name", lname);
          return;
        }
        if (eq + 1 >= line.size() || line[eq + 1] != '"') {
          fail(lineno, "unquoted label value", lname);
          return;
        }
        std::size_t j = eq + 2;
        std::string lvalue;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            lvalue += line[j + 1];
            j += 2;
          } else {
            lvalue += line[j++];
          }
        }
        if (j >= line.size()) {
          fail(lineno, "unterminated label value", lname);
          return;
        }
        labels.push_back(lname + "=" + lvalue);
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) {
        fail(lineno, "unterminated label set", name);
        return;
      }
      ++i;  // '}'
    }
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t vend = i;
    while (vend < line.size() && line[vend] != ' ' && line[vend] != '\t') ++vend;
    const std::string value = line.substr(i, vend - i);
    if (!valid_sample_value(value)) {
      fail(lineno, "unparseable sample value", name + " '" + value + "'");
      return;
    }
    // Canonical series key: sorted labels make duplicate detection
    // order-insensitive (promtool treats reordered labels as the same series).
    std::sort(labels.begin(), labels.end());
    std::string key = name + "{";
    for (const std::string& l : labels) key += l + ",";
    key += "}";
    if (!series.insert(key).second) fail(lineno, "duplicate series", key);
    sampled.insert(name);
    ++samples;
  }
};

int run_promlint(const char* path) {
  std::string body;
  if (!read_file(path, &body)) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", path);
    return 2;
  }
  PromLinter lint;
  std::istringstream is(body);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      lint.comment(lineno, line);
    } else {
      lint.sample(lineno, line);
    }
  }
  // Every sampled metric should carry HELP and TYPE metadata: this is what
  // keeps the exporter self-describing, and it is the lint promtool's
  // "no help text" / "no type hint" warnings enforce.
  for (const std::string& name : lint.sampled) {
    if (lint.helped.count(name) == 0) lint.fail(0, "metric without HELP", name);
    if (lint.typed.count(name) == 0) lint.fail(0, "metric without TYPE", name);
  }
  if (lint.errors != 0) {
    std::fprintf(stderr, "promlint: %d error(s) in %s\n", lint.errors, path);
    return 1;
  }
  std::printf("promlint: %s OK (%d samples, %zu series, %zu metrics)\n", path,
              lint.samples, lint.series.size(), lint.typed.size());
  return 0;
}

// ---------------------------------------------------------------------------
// --profcheck: aggregate-profiler artifact schema validator
// ---------------------------------------------------------------------------

int run_profcheck(const char* path) {
  lwmpi::tools::Profile p;
  std::string err;
  if (!lwmpi::tools::load_profile(path, &p, &err)) {
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
    std::fprintf(stderr, "bench_check: cannot read %s\n", path);
    return 2;
  }
  const lwmpi::tools::BenchFile bf = lwmpi::tools::parse_bench_json(body);
  if (!bf.ok || bf.bench != "replay") {
    std::fprintf(stderr, "replaycheck: %s is not a BENCH_replay.json artifact\n", path);
    return 1;
  }

  auto find = [&bf](const std::string& label) -> const lwmpi::tools::Entry* {
    for (const lwmpi::tools::Entry& e : bf.entries) {
      if (e.label == label) return &e;
    }
    return nullptr;
  };

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
        const lwmpi::tools::Entry* e = find(cell + f.suffix);
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
      if (const lwmpi::tools::Entry* e = find(cell + "_fidelity_exact");
          e != nullptr && e->value != 1.0) {
        fail("fidelity not exact", cell);
      }
      if (const lwmpi::tools::Entry* e = find(cell + "_timeouts");
          e != nullptr && e->value != 0.0) {
        fail("replay hit timeouts", cell);
      }
      if (const lwmpi::tools::Entry* e = find(cell + "_replayed");
          e != nullptr && e->value <= 0.0) {
        fail("nothing replayed", cell);
      }
    }
  }

  // Captured-pvar entries ride along per cell; only their unit convention is
  // schema (which pvars are captured is the bench's choice).
  for (const lwmpi::tools::Entry& e : bf.entries) {
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

bool copy_file(const std::string& from, const std::string& to) {
  std::string body;
  if (!read_file(from, &body)) return false;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_check [--tolerance <frac>] [--update] "
               "<baseline-dir> <current-dir> [name...]\n"
               "       bench_check --promlint <exposition.prom>\n"
               "       bench_check --profcheck <profile.json>\n"
               "       bench_check --replaycheck <BENCH_replay.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = -1.0;  // report-only for non-exact units by default
  bool update = false;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--promlint") == 0) {
      if (i + 1 >= argc) return usage();
      return run_promlint(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--profcheck") == 0) {
      if (i + 1 >= argc) return usage();
      return run_profcheck(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--replaycheck") == 0) {
      if (i + 1 >= argc) return usage();
      return run_replaycheck(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--update") == 0) {
      update = true;
    } else if (std::strcmp(argv[i], "--tolerance") == 0) {
      if (i + 1 >= argc) return usage();
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  if (pos.size() < 2) return usage();
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
      if (!copy_file(cur_path, base_path)) {
        std::fprintf(stderr, "bench_check: cannot copy %s -> %s\n", cur_path.c_str(),
                     base_path.c_str());
        return 2;
      }
      std::printf("updated %s\n", base_path.c_str());
      continue;
    }

    std::string base_body;
    std::string cur_body;
    if (!read_file(base_path, &base_body)) {
      std::fprintf(stderr, "bench_check: cannot read baseline %s\n", base_path.c_str());
      return 2;
    }
    if (!read_file(cur_path, &cur_body)) {
      std::fprintf(stderr, "bench_check: cannot read current %s\n", cur_path.c_str());
      return 2;
    }
    const lwmpi::tools::BenchFile base = lwmpi::tools::parse_bench_json(base_body);
    const lwmpi::tools::BenchFile cur = lwmpi::tools::parse_bench_json(cur_body);
    if (!base.ok || !cur.ok) {
      std::fprintf(stderr, "bench_check: malformed json for bench '%s': %s\n", name.c_str(),
                   (base.ok ? cur.error : base.error).c_str());
      return 2;
    }

    const lwmpi::tools::CompareResult r = lwmpi::tools::compare(base, cur, tolerance);
    std::printf("%-8s %-4s (%zu baseline entries", name.c_str(), r.ok ? "OK" : "FAIL",
                base.entries.size());
    if (!r.diffs.empty()) std::printf(", %zu diffs", r.diffs.size());
    std::printf(")\n");
    for (const lwmpi::tools::Diff& d : r.diffs) {
      std::printf("  [%s] %s (%s): baseline %.6g, current %.6g\n",
                  lwmpi::tools::to_string(d.kind), d.label.c_str(), d.unit.c_str(),
                  d.baseline, d.current);
    }
    all_ok = all_ok && r.ok;
  }
  if (!update && !all_ok) {
    std::fprintf(stderr,
                 "bench_check: regression detected; if the change is intended, refresh "
                 "the baselines with --update and commit them.\n");
    return 1;
  }
  return 0;
}
