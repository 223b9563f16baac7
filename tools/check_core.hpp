// Comparator core for the bench regression sentinel.
//
// Parses the flat BENCH_<name>.json files emitted by bench::JsonResult and
// compares a current run against a committed baseline. Two regimes:
//   - exact units ("instr", "count"): the modeled instruction counts are
//     deterministic by construction, so any difference is a real change in
//     the critical path and fails the check bit-for-bit;
//   - everything else (rates, percentages, bytes/s): machine-dependent, so
//     they are compared within a configurable relative tolerance, or merely
//     reported when the tolerance is negative (report-only mode).
// Missing or extra labels fail in either regime: a schema change must be
// acknowledged by refreshing the baseline (`lwmpi check --update`).
//
// Header-only so tests/test_bench_check.cpp can exercise it directly.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lwmpi::tools {

struct Entry {
  std::string label;
  std::string unit;
  double value = 0.0;
};

struct BenchFile {
  bool ok = false;    // parse succeeded
  std::string error;  // why it did not
  std::string bench;
  std::vector<Entry> entries;
};

inline bool exact_unit(const std::string& unit) {
  return unit == "instr" || unit == "count";
}

// Parse one BENCH_<name>.json body. Only the "results" array is compared;
// raw attachments (stats reports, attribution blobs) are free-form, but the
// document as a whole must be valid JSON, and an entry missing its label,
// value or unit rejects the file.
inline BenchFile parse_bench_json(const std::string& text) {
  BenchFile out;
  obs::json::Value root;
  if (!obs::json::parse(text, &root, &out.error)) return out;
  obs::json::Fields top(root, &out.error);
  out.bench = top.str("bench");
  const std::vector<obs::json::Value>& results = top.arr("results");
  for (std::size_t i = 0; i < results.size() && out.error.empty(); ++i) {
    obs::json::Fields f(results[i], &out.error);
    Entry e{f.str("label"), f.str("unit"), f.num("value")};
    if (!f.ok()) {
      out.error = "results[" + std::to_string(i) + "]: " + out.error;
    } else {
      out.entries.push_back(std::move(e));
    }
  }
  out.ok = out.error.empty();
  return out;
}

enum class DiffKind {
  Missing,            // label in baseline but not in current
  Extra,              // label in current but not in baseline
  UnitChanged,        // same label, different unit
  ExactMismatch,      // exact-unit value differs (bit-for-bit check)
  ToleranceExceeded,  // non-exact value outside the allowed relative band
  Drift,              // non-exact value moved but within tolerance / report-only
};

struct Diff {
  DiffKind kind;
  std::string label;
  std::string unit;
  double baseline = 0.0;
  double current = 0.0;
};

struct CompareResult {
  bool ok = true;      // no failing diffs
  std::vector<Diff> diffs;  // failing diffs first is NOT guaranteed; check kind
};

inline bool is_failure(DiffKind k) { return k != DiffKind::Drift; }

inline const Entry* find_entry(const BenchFile& f, const std::string& label) {
  for (const Entry& e : f.entries) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

inline double rel_delta(double baseline, double current) {
  if (baseline == 0.0) return current == 0.0 ? 0.0 : HUGE_VAL;
  return std::fabs(current - baseline) / std::fabs(baseline);
}

// tolerance: allowed relative deviation for non-exact units; negative means
// report-only (non-exact values never fail, only produce Drift records).
inline CompareResult compare(const BenchFile& baseline, const BenchFile& current,
                             double tolerance) {
  CompareResult out;
  for (const Entry& b : baseline.entries) {
    const Entry* c = find_entry(current, b.label);
    if (c == nullptr) {
      out.diffs.push_back({DiffKind::Missing, b.label, b.unit, b.value, 0.0});
      continue;
    }
    if (c->unit != b.unit) {
      out.diffs.push_back({DiffKind::UnitChanged, b.label, b.unit + "->" + c->unit,
                           b.value, c->value});
      continue;
    }
    if (exact_unit(b.unit)) {
      if (c->value != b.value) {
        out.diffs.push_back({DiffKind::ExactMismatch, b.label, b.unit, b.value, c->value});
      }
      continue;
    }
    if (c->value != b.value) {
      const bool fail = tolerance >= 0.0 && rel_delta(b.value, c->value) > tolerance;
      out.diffs.push_back({fail ? DiffKind::ToleranceExceeded : DiffKind::Drift, b.label,
                           b.unit, b.value, c->value});
    }
  }
  for (const Entry& c : current.entries) {
    if (find_entry(baseline, c.label) == nullptr) {
      out.diffs.push_back({DiffKind::Extra, c.label, c.unit, 0.0, c.value});
    }
  }
  for (const Diff& d : out.diffs) {
    if (is_failure(d.kind)) out.ok = false;
  }
  return out;
}

inline const char* to_string(DiffKind k) {
  switch (k) {
    case DiffKind::Missing: return "missing-in-current";
    case DiffKind::Extra: return "missing-in-baseline";
    case DiffKind::UnitChanged: return "unit-changed";
    case DiffKind::ExactMismatch: return "instr-mismatch";
    case DiffKind::ToleranceExceeded: return "tolerance-exceeded";
    case DiffKind::Drift: return "drift(info)";
  }
  return "?";
}

}  // namespace lwmpi::tools
