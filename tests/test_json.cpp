// The one JSON reader and string escaper (obs/json.hpp) and every artifact
// loader built on it: causal::parse_jsonl, tools::parse_bench_json and the
// profile.json loader (tools/profile_load.hpp).
//
// The hostile-input cases feed each loader every truncation point and a
// fixed, seeded set of single-byte flips of a real artifact. Every mutant
// must either load or return an error -- never crash (the asan preset runs
// this binary) and never yield a record whose fields were not all in the
// text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "tools/check_core.hpp"
#include "tools/profile_load.hpp"
#include "util.hpp"

namespace lwmpi {
namespace {

namespace json = obs::json;
namespace trace = obs::trace;
using json::Value;

std::string read_all(const std::string& path) {
  std::string text;
  EXPECT_TRUE(json::read_file(path, &text)) << path;
  return text;
}

std::string source_file(const char* rel) {
  return read_all(std::string(LWMPI_SOURCE_DIR) + "/" + rel);
}

Value parse_ok(const std::string& text) {
  Value v;
  std::string err;
  EXPECT_TRUE(json::parse(text, &v, &err)) << err << " in: " << text;
  return v;
}

// --- the parser ----------------------------------------------------------------

TEST(Json, ParsesEveryValueKind) {
  const Value v = parse_ok(
      " {\"a\":[1,-2.5e3,true,false,null],\"s\":\"q\\\"b\\\\s\\/\\b\\f\\n\\r\\t\","
      "\"u\":\"\\u00e9\\u20ac\\ud83d\\ude00\",\"o\":{}} \n");
  ASSERT_EQ(v.kind, Value::Kind::Obj);
  const Value& a = *v.get("a");
  ASSERT_EQ(a.arr.size(), 5u);
  EXPECT_EQ(a.arr[0].i64(), 1);
  EXPECT_EQ(a.arr[1].num, -2500.0);
  EXPECT_TRUE(a.arr[2].b);
  EXPECT_EQ(a.arr[3].kind, Value::Kind::Bool);
  EXPECT_FALSE(a.arr[3].b);
  EXPECT_EQ(a.arr[4].kind, Value::Kind::Null);
  EXPECT_EQ(v.get("s")->str, "q\"b\\s/\b\f\n\r\t");
  EXPECT_EQ(v.get("u")->str, "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");  // é € U+1F600
  EXPECT_EQ(v.get("o")->kind, Value::Kind::Obj);
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Json, IntegersReadBackExactly) {
  const Value v = parse_ok("[18446744073709551615,-9223372036854775808,9007199254740993,"
                           "18446744073709551616,-1,1.0,1e3]");
  std::uint64_t u = 0;
  std::int64_t i = 0;
  ASSERT_TRUE(v.arr[0].to_u64(&u));
  EXPECT_EQ(u, 18446744073709551615ull);
  ASSERT_TRUE(v.arr[1].to_i64(&i));
  EXPECT_EQ(i, INT64_MIN);
  ASSERT_TRUE(v.arr[2].to_u64(&u));
  EXPECT_EQ(u, 9007199254740993ull);  // not representable as a double
  EXPECT_FALSE(v.arr[3].to_u64(&u));  // out of range
  EXPECT_FALSE(v.arr[4].to_u64(&u));  // negative
  EXPECT_TRUE(v.arr[4].to_i64(&i));
  EXPECT_FALSE(v.arr[5].to_i64(&i));  // has a fraction
  EXPECT_FALSE(v.arr[6].to_u64(&u));  // has an exponent
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", " ", "{", "}", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{a:1}", "[1 2]", "01", "1.",
        ".5", "-", "+1", "1e", "tru", "nul", "\"abc", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"",
        "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"a\tb\"", "{} {}", "[1] x", "NaN"}) {
    Value v;
    std::string err;
    EXPECT_FALSE(json::parse(bad, &v, &err)) << "accepted: " << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  // Deep nesting is an error, not a stack overflow.
  Value v;
  EXPECT_FALSE(json::parse(std::string(100000, '['), &v));
  EXPECT_TRUE(json::parse(std::string(32, '[') + std::string(32, ']'), &v));
}

TEST(Json, FieldsNoteTheFirstMissingOrMistypedMember) {
  const Value v = parse_ok("{\"n\":7,\"s\":\"x\",\"neg\":-1,\"a\":[1]}");
  std::string err;
  json::Fields f(v, &err);
  EXPECT_EQ(f.u64("n"), 7u);
  EXPECT_EQ(f.str("s"), "x");
  EXPECT_EQ(f.arr("a").size(), 1u);
  EXPECT_TRUE(f.ok());
  f.u64("neg");
  EXPECT_EQ(err, "\"neg\" must be a non-negative integer");
  f.str("absent");  // a later failure does not overwrite the first
  EXPECT_EQ(err, "\"neg\" must be a non-negative integer");

  std::string err2;
  json::Fields g(v, &err2);
  g.str("n");
  EXPECT_EQ(err2, "\"n\" must be a string");
  std::string err3;
  json::Fields h(parse_ok("[]"), &err3);
  EXPECT_FALSE(h.ok());
}

// --- the escaper ---------------------------------------------------------------

TEST(JsonResultEscape, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(json::escape("a\nb"), "a\\u000ab");
  EXPECT_EQ(json::escape("tab\there"), "tab\\u0009here");
  EXPECT_EQ(json::escape("q\"q"), "q\\\"q");
  EXPECT_EQ(json::escape("b\\s"), "b\\\\s");
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json::escape("\x1f"), "\\u001f");
  EXPECT_EQ(json::escape("plain"), "plain");
  // Every byte round-trips through quote() and parse().
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(parse_ok(json::quote(all)).str, all);
}

// --- the newline-terminated line policy ------------------------------------------

TEST(Jsonl, SplitsCompleteLinesAndFlagsTruncatedTail) {
  json::Lines f = json::split_lines("{\"a\":1}\n{\"b\":2}\n{\"partial\":");
  ASSERT_EQ(f.lines.size(), 2u);
  EXPECT_EQ(f.lines[0], "{\"a\":1}");
  EXPECT_EQ(f.lines[1], "{\"b\":2}");
  EXPECT_TRUE(f.truncated_tail);

  f = json::split_lines("{\"a\":1}\n{\"b\":2}\n");
  EXPECT_EQ(f.lines.size(), 2u);
  EXPECT_FALSE(f.truncated_tail);
}

TEST(Jsonl, SkipsBlankLinesAndHandlesNoNewline) {
  json::Lines f = json::split_lines("\n\n{\"a\":1}\n\n{\"b\":2}\n");
  ASSERT_EQ(f.lines.size(), 2u);

  // A file with no newline at all is one truncated tail, zero usable lines.
  f = json::split_lines("{\"never_finished\":");
  EXPECT_TRUE(f.lines.empty());
  EXPECT_TRUE(f.truncated_tail);

  EXPECT_TRUE(json::split_lines("").lines.empty());

  // A one-document artifact needs exactly one complete line.
  Value v;
  std::string err;
  EXPECT_FALSE(json::parse_one_line("{\"a\":1}", &v, &err));
  EXPECT_FALSE(json::parse_one_line("{\"a\":1}\n{\"a\":2}\n", &v, &err));
  EXPECT_TRUE(json::parse_one_line("{\"a\":1}\n{\"cut", &v, &err)) << err;
}

TEST(Jsonl, ReadJsonlFailsOnlyOnMissingFile) {
  std::string text;
  EXPECT_FALSE(json::read_file("/nonexistent/lwmpi.jsonl", &text));

  const std::string path = ::testing::TempDir() + "lwmpi_jsonl_test.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"x\":1}\n{\"cut\":";
  }
  ASSERT_TRUE(json::read_file(path, &text));
  const json::Lines f = json::split_lines(text);
  ASSERT_EQ(f.lines.size(), 1u);
  EXPECT_TRUE(f.truncated_tail);
  std::remove(path.c_str());
}

// --- hostile input ---------------------------------------------------------------

// Calls `fn` with every proper prefix of `text` (truncated = true), then with
// kFlips copies that each XOR one byte, at a seeded position, with a nonzero
// mask (truncated = false).
constexpr int kFlips = 400;

void for_each_mutant(const std::string& text,
                     const std::function<void(const std::string&, bool truncated)>& fn) {
  for (std::size_t n = 0; n < text.size(); ++n) fn(text.substr(0, n), true);
  std::mt19937 rng(20171112);
  for (int k = 0; k < kFlips; ++k) {
    std::string m = text;
    const std::size_t at = rng() % m.size();
    m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + rng() % 255));
    fn(m, false);
  }
}

std::size_t count_newlines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

// A record a loader accepted must have had every member it needs in the
// text; a missing one would mean the loader filled in a default.
void expect_members(const Value& v, std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    EXPECT_NE(v.get(key), nullptr) << "loaded a record without \"" << key << "\"";
  }
}

// The loaded event states exactly what its line does.
void expect_event_matches(const trace::Event& e, const std::string& line) {
  Value v;
  ASSERT_TRUE(json::parse(line, &v)) << line;
  expect_members(v, {"kind", "ts", "seq", "bytes", "lclock", "rank", "peer", "tag", "vci", "wait",
                     "wait_ns"});
  EXPECT_EQ(v["kind"].str, trace::to_string(e.kind));
  EXPECT_EQ(v["wait"].str, obs::to_string(static_cast<obs::Wait>(e.wait)));
  EXPECT_EQ(v["ts"].u64(), e.ts_ns);
  EXPECT_EQ(v["seq"].u64(), e.seq);
  EXPECT_EQ(v["bytes"].u64(), e.bytes);
  EXPECT_EQ(v["lclock"].u64(), e.lclock);
  EXPECT_EQ(v["rank"].i64(), e.rank);
  EXPECT_EQ(v["peer"].i64(), e.peer);
  EXPECT_EQ(v["tag"].i64(), e.tag);
  EXPECT_EQ(v["vci"].u64(), e.vci);
  EXPECT_EQ(v["wait_ns"].u64(), e.wait_ns);
}

TEST(JsonHostile, CausalTimelineMutants) {
  const std::string golden = source_file("bench/baselines/causal_golden.jsonl");
  ASSERT_FALSE(golden.empty());
  int rejected = 0;
  for_each_mutant(golden, [&](const std::string& m, bool truncated) {
    std::istringstream is(m);
    std::vector<trace::Event> events;
    std::string err;
    const bool ok = obs::causal::parse_jsonl(is, &events, &err);
    if (truncated) {
      // A cut never damages a complete line: exactly those lines load.
      ASSERT_TRUE(ok) << err;
      ASSERT_EQ(events.size(), count_newlines(m));
    }
    if (!ok) {
      EXPECT_FALSE(err.empty());
      EXPECT_TRUE(events.empty());
      ++rejected;
      return;
    }
    const json::Lines lines = json::split_lines(m);
    ASSERT_EQ(events.size(), lines.lines.size());
    for (std::size_t i = 0; i < events.size(); ++i) expect_event_matches(events[i], lines.lines[i]);
  });
  EXPECT_GT(rejected, kFlips / 2);  // most flips break a line; those must not load
}

TEST(JsonHostile, BenchArtifactMutants) {
  const std::string table1 = source_file("bench/baselines/BENCH_table1.json");
  ASSERT_TRUE(tools::parse_bench_json(table1).ok);
  const std::size_t close = table1.rfind('}');
  for_each_mutant(table1, [&](const std::string& m, bool truncated) {
    const tools::BenchFile f = tools::parse_bench_json(m);
    if (truncated) {
      ASSERT_EQ(f.ok, m.size() > close) << m.size();
    }
    if (!f.ok) {
      EXPECT_FALSE(f.error.empty());
      return;
    }
    // Every loaded entry is one results[] object with all three members.
    const Value root = parse_ok(m);
    const std::vector<Value>& results = root["results"].arr;
    ASSERT_EQ(f.entries.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_members(results[i], {"label", "value", "unit"});
      EXPECT_EQ(f.entries[i].label, results[i]["label"].str);
      EXPECT_EQ(f.entries[i].unit, results[i]["unit"].str);
      EXPECT_EQ(f.entries[i].value, results[i]["value"].num);
    }
  });
}

TEST(JsonHostile, TraceSidecarMutants) {
  const std::string sidecar = source_file("bench/traces/stencil4.json");
  const std::size_t close = sidecar.rfind('}');
  Value v;
  ASSERT_TRUE(json::parse(sidecar, &v));
  for_each_mutant(sidecar, [&](const std::string& m, bool truncated) {
    std::string err;
    const bool ok = json::parse(m, &v, &err);
    if (truncated) {
      ASSERT_EQ(ok, m.size() > close) << m.size();
    }
    if (!ok) {
      EXPECT_FALSE(err.empty());
    }
  });
}

TEST(JsonHostile, ProfileArtifactMutants) {
  const std::string path = ::testing::TempDir() + "lwmpi_json_hostile_profile.json";
  std::remove(path.c_str());
  {
    WorldOptions o = test::fast_opts();
    o.prof = true;
    o.prof_path = path;
    World w(2, o);
    w.phase_push("halo \"x\"");
    w.run([](Engine& e) {
      std::uint64_t b = 0;
      if (e.world_rank() == 0) {
        e.send(&b, 1, kUint64, 1, 3, kCommWorld);
      } else {
        e.recv(&b, 1, kUint64, 0, 3, kCommWorld, nullptr);
      }
    });
    w.phase_pop();
  }
  const std::string artifact = read_all(path);
  std::remove(path.c_str());
  tools::Profile p;
  std::string err;
  ASSERT_TRUE(tools::parse_profile(artifact, &p, &err)) << err;
  EXPECT_EQ(p.nranks, 2);
  EXPECT_EQ(p.phases.back(), "halo \"x\"");
  ASSERT_GT(p.matrix_cells, 0u);

  for_each_mutant(artifact, [&](const std::string& m, bool truncated) {
    const bool ok = tools::parse_profile(m, &p, &err);
    if (truncated) {
      // One newline-terminated line: any cut leaves no complete document.
      ASSERT_FALSE(ok);
    }
    if (!ok) {
      EXPECT_FALSE(err.empty());
      return;
    }
    // Loaded: every record was whole, and the totals come from exactly the
    // rows the document holds.
    const Value root = parse_ok(m);
    expect_members(root, {"lwmpi_profile", "nranks", "nvcis", "netmod", "phases",
                          "phase_overflows", "ranks", "matrix"});
    EXPECT_EQ(p.netmod, root["netmod"].str);
    std::size_t rows = 0;
    for (const Value& r : root["ranks"].arr) {
      expect_members(r, {"rank", "pop_warnings", "phases"});
      for (const Value& ph : r["phases"].arr) {
        expect_members(ph, {"phase", "time_ns", "callsites"});
        for (const Value& cs : ph["callsites"].arr) {
          expect_members(cs, {"site", "vci", "count", "bytes", "time_ns", "cost"});
        }
        rows += ph["callsites"].arr.size();
      }
    }
    for (const Value& cell : root["matrix"].arr) {
      expect_members(cell, {"src", "dst", "class", "count", "bytes"});
    }
    EXPECT_EQ(p.callsite_rows, rows);
    EXPECT_EQ(p.matrix_cells, root["matrix"].arr.size());
    EXPECT_EQ(static_cast<std::size_t>(p.nranks), root["ranks"].arr.size());
  });
}

// The two reader defects the strict loaders replaced, each verified against
// the old key scanners.

TEST(JsonHostile, CorruptCausalLinesAreErrorsNotSendPosts) {
  // The old scanner turned each of these into a send-post event at ts 0.
  std::istringstream is("{\"kind\":\"bogus\"}\n{not json\n{\"ts\":\"x\"}\n");
  std::vector<trace::Event> events;
  std::string err;
  EXPECT_FALSE(obs::causal::parse_jsonl(is, &events, &err));
  EXPECT_TRUE(events.empty());
  EXPECT_NE(err.find("record 1"), std::string::npos) << err;
}

TEST(JsonHostile, BenchEntryWithoutUnitIsAnError) {
  // The old scanner gave entry "a" the next entry's unit, dropped "b", and
  // reported ok.
  const tools::BenchFile f = tools::parse_bench_json(
      "{\"bench\":\"x\",\"results\":[{\"label\":\"a\",\"value\":1},"
      "{\"label\":\"b\",\"value\":2,\"unit\":\"instr\"}]}");
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.error, "results[0]: missing \"unit\"");
}

}  // namespace
}  // namespace lwmpi
