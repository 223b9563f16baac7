// Tests for the bench regression sentinel (tools/check_core.hpp) and the
// JSON emission side of the bench harness it consumes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench/harness.hpp"
#include "tools/check_core.hpp"

namespace lwmpi {
namespace {

using tools::BenchFile;
using tools::compare;
using tools::DiffKind;
using tools::parse_bench_json;

BenchFile make(std::initializer_list<tools::Entry> entries) {
  BenchFile f;
  f.ok = true;
  f.bench = "t";
  f.entries = entries;
  return f;
}

// --- parser ------------------------------------------------------------------

TEST(BenchCheckParse, RoundTripsJsonResultOutput) {
  bench::JsonResult jr("demo");
  jr.add("isend_total", 221, "instr");
  jr.add("rate", 1.25e6, "msg/s");
  jr.add_raw("attribution", "[{\"op\":\"isend\"}]");  // must be skipped

  const BenchFile f = parse_bench_json(jr.str());
  ASSERT_TRUE(f.ok);
  EXPECT_EQ(f.bench, "demo");
  ASSERT_EQ(f.entries.size(), 2u);
  EXPECT_EQ(f.entries[0].label, "isend_total");
  EXPECT_EQ(f.entries[0].value, 221.0);
  EXPECT_EQ(f.entries[0].unit, "instr");
  EXPECT_EQ(f.entries[1].label, "rate");
  EXPECT_DOUBLE_EQ(f.entries[1].value, 1.25e6);
  EXPECT_EQ(f.entries[1].unit, "msg/s");
}

TEST(BenchCheckParse, DecodesEscapedLabels) {
  bench::JsonResult jr("demo");
  jr.add("weird \"label\"\nwith\\stuff", 1, "count");
  const BenchFile f = parse_bench_json(jr.str());
  ASSERT_TRUE(f.ok);
  ASSERT_EQ(f.entries.size(), 1u);
  EXPECT_EQ(f.entries[0].label, "weird \"label\"\nwith\\stuff");
}

TEST(BenchCheckParse, RejectsMalformedInput) {
  EXPECT_FALSE(parse_bench_json("").ok);
  EXPECT_FALSE(parse_bench_json("{\"bench\":\"x\"}").ok);                 // no results
  EXPECT_FALSE(parse_bench_json("{\"bench\":\"x\",\"results\":[{").ok);  // truncated
}

// --- comparator --------------------------------------------------------------

TEST(BenchCheckCompare, IdenticalFilesPass) {
  const BenchFile f = make({{"isend_total", "instr", 221}, {"rate", "msg/s", 1e6}});
  const tools::CompareResult r = compare(f, f, -1.0);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.diffs.empty());
}

TEST(BenchCheckCompare, PerturbedInstructionCountFails) {
  // The acceptance demo: a single off-by-one instruction count must fail the
  // sentinel even in report-only (default) tolerance mode.
  const BenchFile base = make({{"isend_total", "instr", 221}});
  const BenchFile cur = make({{"isend_total", "instr", 222}});
  const tools::CompareResult r = compare(base, cur, -1.0);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_EQ(r.diffs[0].kind, DiffKind::ExactMismatch);
  EXPECT_EQ(r.diffs[0].baseline, 221.0);
  EXPECT_EQ(r.diffs[0].current, 222.0);
}

TEST(BenchCheckCompare, RatesUseTolerance) {
  const BenchFile base = make({{"rate", "msg/s", 1000.0}});
  const BenchFile close_enough = make({{"rate", "msg/s", 1040.0}});
  const BenchFile too_far = make({{"rate", "msg/s", 1500.0}});

  // Within a 10% band: recorded as informational drift, not a failure.
  tools::CompareResult r = compare(base, close_enough, 0.10);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_EQ(r.diffs[0].kind, DiffKind::Drift);

  // Outside the band: failure.
  r = compare(base, too_far, 0.10);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_EQ(r.diffs[0].kind, DiffKind::ToleranceExceeded);

  // Report-only mode never fails on rates.
  r = compare(base, too_far, -1.0);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_EQ(r.diffs[0].kind, DiffKind::Drift);
}

TEST(BenchCheckCompare, SchemaChangesFail) {
  const BenchFile base = make({{"a", "instr", 1}, {"b", "instr", 2}});
  const BenchFile renamed = make({{"a", "instr", 1}, {"c", "instr", 2}});
  const tools::CompareResult r = compare(base, renamed, -1.0);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.diffs.size(), 2u);
  EXPECT_EQ(r.diffs[0].kind, DiffKind::Missing);
  EXPECT_EQ(r.diffs[0].label, "b");
  EXPECT_EQ(r.diffs[1].kind, DiffKind::Extra);
  EXPECT_EQ(r.diffs[1].label, "c");
}

TEST(BenchCheckCompare, UnitChangeFails) {
  const BenchFile base = make({{"a", "instr", 5}});
  const BenchFile cur = make({{"a", "msg/s", 5}});
  const tools::CompareResult r = compare(base, cur, -1.0);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_EQ(r.diffs[0].kind, DiffKind::UnitChanged);
}

// --- live baselines ----------------------------------------------------------
// The committed baselines must agree with what the current library produces:
// this is the in-process version of the bench_regression ctest.

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchCheckBaselines, Table1BaselineMatchesLivePaths) {
  const std::string body = read_all(std::string(LWMPI_SOURCE_DIR) +
                                    "/bench/baselines/BENCH_table1.json");
  ASSERT_FALSE(body.empty()) << "committed baseline missing";
  const BenchFile base = parse_bench_json(body);
  ASSERT_TRUE(base.ok);

  const obs::AttributionRow isend =
      obs::attribution_row("isend", DeviceKind::Ch4, BuildConfig::dflt());
  const obs::AttributionRow put =
      obs::attribution_row("put", DeviceKind::Ch4, BuildConfig::dflt());
  for (const tools::Entry& e : base.entries) {
    if (e.label == "isend_total") {
      EXPECT_EQ(e.value, isend.metered.total);
    }
    if (e.label == "put_total") {
      EXPECT_EQ(e.value, put.metered.total);
    }
    if (e.label == "isend_error-checking") {
      EXPECT_EQ(e.value, isend.metered.group(cost::Group::ErrorChecking));
    }
    if (e.label == "put_mpi-mandatory") {
      EXPECT_EQ(e.value, put.metered.group(cost::Group::Mandatory));
    }
  }
}

// --- JsonResult emission ----------------------------------------------------

TEST(JsonResult, WriteHonorsBenchDirEnvVar) {
  char tmpl[] = "/tmp/lwmpi_bench_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir(tmpl);
  ASSERT_EQ(setenv("LWMPI_BENCH_DIR", dir.c_str(), 1), 0);
  bench::JsonResult jr("envtest");
  jr.add("x", 1, "count");
  EXPECT_TRUE(jr.write());
  unsetenv("LWMPI_BENCH_DIR");

  const std::string path = dir + "/BENCH_envtest.json";
  const std::string body = read_all(path);
  EXPECT_FALSE(body.empty());
  const BenchFile f = parse_bench_json(body);
  EXPECT_TRUE(f.ok);
  EXPECT_EQ(f.bench, "envtest");
  std::remove(path.c_str());
  std::remove(dir.c_str());
}

}  // namespace
}  // namespace lwmpi
