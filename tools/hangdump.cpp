// hangdump: pretty-printer for lwmpi watchdog hang reports.
//
// The watchdog (src/obs/watchdog.hpp) diagnoses progress stalls and, when
// given a report_path, writes the diagnosis as JSON. This tool renders that
// file back into the human-readable form for postmortem reading -- the MPIR
// message-queue-dump workflow, minus the debugger:
//
//   hangdump report.json              pretty-print a saved hang report
//   hangdump --timeline report.json   also render the embedded sampler
//                                     timeline (the last-N-intervals rate
//                                     history a telemetry-attached watchdog
//                                     records leading into the stall)
//   hangdump --demo                   force a live 2-rank deadlock (with a
//                                     sampler attached) and print its
//                                     diagnosis plus timeline
//
// The report is read with the strict obs/json.hpp parser: a file that is not
// exactly one complete, well-formed JSON line is rejected, not guessed at.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "obs/cvar.hpp"
#include "obs/json.hpp"
#include "obs/sampler.hpp"
#include "obs/watchdog.hpp"
#include "runtime/world.hpp"

namespace {

using lwmpi::obs::json::Value;

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

// Members are read with Value::operator[], so a field missing from a
// hand-edited report prints as 0, or as "?" where text is expected.
const char* text(const Value& v) { return v.kind == Value::Kind::Str ? v.str.c_str() : "?"; }

std::string fmt_ms(const Value& ns) {
  if (ns.kind != Value::Kind::Num) return "?";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns.u64()) / 1e6);
  return buf;
}

unsigned long long ull(const Value& v) { return v.u64(); }

void print_entry(const char* label, const Value& e) {
  std::printf("      %s comm=%s src=%ld tag=%ld bytes=%llu age=%s%s\n", label, text(e["comm"]),
              e["src"].i64(), e["tag"].i64(), ull(e["bytes"]), fmt_ms(e["age_ns"]).c_str(),
              e["arrival_order"].b ? " [arrival-order]" : "");
}

// Pretty-print the sampler timeline block: one line per (interval, rank),
// newest last, so the rate history reads top-to-bottom into the hang.
void print_timeline(const Value& timeline) {
  if (timeline.kind != Value::Kind::Arr || timeline.arr.empty()) {
    std::printf("\n(no sampler timeline in this report)\n");
    return;
  }
  std::printf("\n=== telemetry timeline: last %zu interval-sample(s) ===\n",
              timeline.arr.size());
  std::printf("%5s %4s %9s %10s %10s %6s %6s %7s %6s  %s\n", "seq", "rank", "dt",
              "sends/s", "recvs/s", "uexq", "+uexq", "stall%", "idle%", "alerts");
  for (const Value& s : timeline.arr) {
    std::string fired;
    for (const Value& a : s["alerts"].arr) {
      if (a["rule"].kind != Value::Kind::Str) continue;
      if (!fired.empty()) fired += ' ';
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s(%.3g>%.3g)", a["rule"].str.c_str(), a["value"].num,
                    a["threshold"].num);
      fired += buf;
    }
    std::printf("%5llu %4ld %9s %10.0f %10.0f %6llu %+6lld %6.1f%% %5.1f%%  %s\n",
                ull(s["seq"]), s["rank"].i64(), fmt_ms(s["dt_ns"]).c_str(),
                s["sends_per_s"].num, s["recvs_per_s"].num, ull(s["unexpected_depth"]),
                static_cast<long long>(s["unexpected_growth"].i64()),
                s["credit_stall_pct"].num, s["idle_pct"].num,
                fired.empty() ? "-" : fired.c_str());
  }
}

int print_report(const Value& root, bool with_timeline) {
  const Value& stuck = root["stuck"];
  if (stuck.kind != Value::Kind::Arr || root["nranks"].kind != Value::Kind::Num) {
    std::fprintf(stderr, "hangdump: not a watchdog report (missing stuck/nranks)\n");
    return 1;
  }
  std::printf("=== lwmpi hang diagnosis: %zu of %ld rank(s) stuck ===\n", stuck.arr.size(),
              root["nranks"].i64());
  for (const Value& s : stuck.arr) {
    std::printf("rank %ld stuck in %s (blocked %s, no progress for %s)\n", s["rank"].i64(),
                text(s["call"]), fmt_ms(s["blocked_ns"]).c_str(),
                fmt_ms(s["stalled_ns"]).c_str());
    const Value& snap = s["snapshot"];
    if (const Value& oldest = snap["oldest"]; oldest.kind == Value::Kind::Obj) {
      std::printf("  oldest request: %s comm=%s peer=%ld tag=%ld bytes=%llu age=%s\n",
                  text(oldest["kind"]), text(oldest["comm"]), oldest["peer"].i64(),
                  oldest["tag"].i64(), ull(oldest["bytes"]), fmt_ms(oldest["age_ns"]).c_str());
    }
    for (const Value& v : snap["vcis"].arr) {
      const std::vector<Value>& posted = v["posted"].arr;
      const std::vector<Value>& unexpected = v["unexpected"].arr;
      const std::vector<Value>& sendq = v["send_queue"].arr;
      if (posted.size() + unexpected.size() + sendq.size() == 0) continue;
      std::printf("  vci %ld: posted=%zu unexpected=%zu sendq=%zu\n", v["vci"].i64(),
                  posted.size(), unexpected.size(), sendq.size());
      for (const Value& e : posted) print_entry("posted:    ", e);
      for (const Value& e : unexpected) print_entry("unexpected:", e);
      for (const Value& e : sendq) {
        std::printf("      sendq:      dst=%ld tag=%ld bytes=%llu\n", e["dst"].i64(),
                    e["tag"].i64(), ull(e["bytes"]));
      }
    }
    if (const std::vector<Value>& moves = s["last_moves"].arr; !moves.empty()) {
      std::printf("  last moves (oldest first):\n");
      for (const Value& m : moves) {
        std::printf("    #%llu %-12s peer=%ld tag=%ld vci=%ld bytes=%llu", ull(m["op"]),
                    text(m["kind"]), m["peer"].i64(), m["tag"].i64(), m["vci"].i64(),
                    ull(m["bytes"]));
        if (const long link = m["link"].i64(); link != 0) std::printf(" link=-%ld", link);
        std::printf("\n");
      }
    }
    for (const Value& w : snap["windows"].arr) {
      std::printf("  win %llu: epoch=%s acks=%llu deferred=%llu\n", ull(w["win_id"]),
                  text(w["epoch"]), ull(w["outstanding_acks"]), ull(w["deferred_ops"]));
    }
  }
  if (!with_timeline) return 0;
  if (const Value& timeline = root["timeline"]; timeline.kind != Value::Kind::Null) {
    print_timeline(timeline);
  } else {
    std::printf("\n(no sampler timeline in this report -- attach a Sampler via"
                " WatchdogOptions::sampler)\n");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --demo: force a live deadlock and diagnose it
// ---------------------------------------------------------------------------

int run_demo() {
  using namespace lwmpi;
  std::printf("forcing a 2-rank tag-mismatch deadlock (rank 0 sends tag 7, rank 1 waits"
              " on tag 42)...\n\n");
  WorldOptions o;
  o.profile = net::loopback();
  o.ranks_per_node = 2;
  o.record = true;  // the diagnosis embeds the stuck rank's last moves
  World w(2, o);
  // Telemetry sampler, declared before the watchdog so it outlives it; the
  // watchdog embeds its last intervals into the diagnosis.
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 20);
  obs::Sampler sampler(w);
  obs::WatchdogOptions wo;
  wo.stall_ns = 200'000'000;
  wo.poll_ns = 20'000'000;
  wo.sampler = &sampler;
  obs::Watchdog wd(w, wo);
  w.run([&](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      // The mistake under diagnosis: wrong tag, so rank 1 never matches.
      e.send(&b, 1, kChar, 1, 7, kCommWorld);
      while (wd.fires() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      // Rescue send so the demo terminates once diagnosed.
      e.send(&b, 1, kChar, 1, 42, kCommWorld);
    } else {
      e.recv(&b, 1, kChar, 0, 42, kCommWorld, nullptr);
    }
  });
  const obs::HangReport report = wd.last_report();
  std::fputs(obs::render_text(report).c_str(), stdout);
  if (Value timeline; lwmpi::obs::json::parse(report.timeline_json, &timeline)) {
    print_timeline(timeline);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_timeline = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) return run_demo();
    if (std::strcmp(argv[i], "--timeline") == 0) {
      with_timeline = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;  // too many positionals
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: hangdump [--timeline] <report.json> | hangdump --demo\n");
    return 2;
  }

  // One newline-terminated JSON line per report. A report the watchdog was
  // still writing when the hung job got killed has no complete line and is
  // rejected.
  std::string text;
  if (!lwmpi::obs::json::read_file(path, &text)) {
    std::fprintf(stderr, "hangdump: cannot open %s\n", path);
    return 1;
  }
  Value root;
  std::string err;
  if (!lwmpi::obs::json::parse_one_line(text, &root, &err)) {
    std::fprintf(stderr, "hangdump: %s: %s\n", path, err.c_str());
    return 1;
  }
  return print_report(root, with_timeline);
}
