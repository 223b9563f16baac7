// critpath: "why was this message slow?" -- the CLI over the causal tier
// (src/obs/causal.hpp).
//
// A World built with BuildConfig::trace and a causal_trace_path writes its
// merged cross-rank timeline as JSONL at teardown (the watchdog writes the
// same file mid-run on a hang). This tool replays that file through the
// critical-path analyzer and prints the Table-1-style report: which
// wait-state categories the end-to-end path spent its time in, the top
// contributing edges, and per-rank slack.
//
//   critpath trace.jsonl [--json] [--top N]
//       analyze a saved causal trace
//   critpath --demo [--netmod mailbox|rdma] [--delay sender|receiver|credits]
//            [--export trace.jsonl] [--json]
//       run a live 2-rank world with one injected delay and analyze it; the
//       injected delay should surface as the top cost category
//       (late_sender / late_receiver / credit_stalled respectively).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"
#include "runtime/world.hpp"

namespace {

using namespace lwmpi;

int usage() {
  std::fprintf(stderr,
               "usage: critpath <trace.jsonl> [--json] [--top N]\n"
               "       critpath --demo [--netmod mailbox|rdma]\n"
               "                [--delay sender|receiver|credits]\n"
               "                [--export <trace.jsonl>] [--json]\n");
  return 2;
}

int analyze_and_print(const std::vector<obs::trace::Event>& events, bool json,
                      std::size_t top_k) {
  if (events.empty()) {
    std::fprintf(stderr, "critpath: no events (was the world built with trace on?)\n");
    return 1;
  }
  const obs::causal::Analysis a = obs::causal::analyze(events);
  const std::string out =
      json ? obs::causal::render_json(a, top_k) : obs::causal::render_text(a, top_k);
  std::fputs(out.c_str(), stdout);
  if (json) std::fputc('\n', stdout);
  return 0;
}

// One injected delay, two ranks, a handful of messages. The delayed message
// dominates the end-to-end span, so the analyzer should rank its wait-state
// category first.
int run_demo(const std::string& netmod, const std::string& delay,
             const std::string& export_path, bool json, std::size_t top_k) {
  constexpr auto kDelay = std::chrono::milliseconds(20);
  constexpr int kMsgs = 8;

  WorldOptions o;
  o.netmod = netmod;
  o.ranks_per_node = 1;  // inter-node: exercise the full netmod path
  o.build.trace = true;
  o.build.lat_sample_shift = 0;  // stamp every message so every match classifies
  if (delay == "credits") {
    if (netmod != "rdma") {
      std::fprintf(stderr, "critpath: --delay credits requires --netmod rdma\n");
      return 2;
    }
    o.profile.rdma_ring_depth = 2;  // exhaust the eager ring after two messages
  }

  obs::trace::reset_all();
  std::vector<obs::trace::Event> events;
  {
    World w(2, o);
    w.run([&](Engine& e) {
      char buf[64] = {};
      // Warmup exchange: both ranks get a timeline origin, so the analyzer
      // has an anchor edge to attribute the injected gap against.
      if (e.world_rank() == 0) {
        e.send(buf, 1, kChar, 1, 1, kCommWorld);
      } else {
        e.recv(buf, 1, kChar, 0, 1, kCommWorld, nullptr);
      }
      if (delay == "sender") {
        // Receiver posts first; the sender shows up late.
        if (e.world_rank() == 0) {
          std::this_thread::sleep_for(kDelay);
          e.send(buf, 1, kChar, 1, 7, kCommWorld);
        } else {
          e.recv(buf, 1, kChar, 0, 7, kCommWorld, nullptr);
        }
      } else if (delay == "receiver") {
        // Sender injects immediately; the receive is posted late.
        if (e.world_rank() == 0) {
          e.send(buf, 1, kChar, 1, 7, kCommWorld);
        } else {
          std::this_thread::sleep_for(kDelay);
          e.recv(buf, 1, kChar, 0, 7, kCommWorld, nullptr);
        }
      } else {  // credits
        // Receiver posts everything up front, then withholds progress; with a
        // 2-deep eager ring the sender's third inject busy-waits for a credit
        // until the receiver wakes and drains.
        if (e.world_rank() == 1) {
          std::vector<Request> reqs(kMsgs);
          for (int i = 0; i < kMsgs; ++i) {
            e.irecv(buf, 1, kChar, 0, 7, kCommWorld, &reqs[i]);
          }
          std::this_thread::sleep_for(kDelay + kDelay / 4);
          std::vector<Status> sts(kMsgs);
          e.waitall(reqs, sts);
        } else {
          // Give the receiver a head start so its posts predate the injects.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          for (int i = 0; i < kMsgs; ++i) {
            e.send(buf, 1, kChar, 1, 7, kCommWorld);
          }
        }
      }
    });
    events = obs::trace::collect_all();
  }

  if (!export_path.empty()) {
    std::ofstream f(export_path, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "critpath: cannot write %s\n", export_path.c_str());
      return 1;
    }
    obs::causal::export_jsonl(f, events);
    std::fprintf(stderr, "critpath: wrote %zu events to %s\n", events.size(),
                 export_path.c_str());
  }
  return analyze_and_print(events, json, top_k);
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool json = false;
  std::size_t top_k = 10;
  std::string netmod = "mailbox";
  std::string delay = "sender";
  std::string export_path;
  std::string trace_file;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "critpath: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--top") == 0) {
      const char* v = next("--top");
      if (v == nullptr) return 2;
      top_k = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(a, "--netmod") == 0) {
      const char* v = next("--netmod");
      if (v == nullptr) return 2;
      netmod = v;
    } else if (std::strcmp(a, "--delay") == 0) {
      const char* v = next("--delay");
      if (v == nullptr) return 2;
      delay = v;
    } else if (std::strcmp(a, "--export") == 0) {
      const char* v = next("--export");
      if (v == nullptr) return 2;
      export_path = v;
    } else if (a[0] == '-') {
      return usage();
    } else if (trace_file.empty()) {
      trace_file = a;
    } else {
      return usage();
    }
  }

  if (demo) {
    if (delay != "sender" && delay != "receiver" && delay != "credits") return usage();
    return run_demo(netmod, delay, export_path, json, top_k);
  }
  if (trace_file.empty()) return usage();

  std::ifstream f(trace_file);
  if (!f) {
    std::fprintf(stderr, "critpath: cannot open %s\n", trace_file.c_str());
    return 1;
  }
  std::vector<obs::trace::Event> events;
  std::string err;
  if (!obs::causal::parse_jsonl(f, &events, &err)) {
    std::fprintf(stderr, "critpath: %s: %s\n", trace_file.c_str(), err.c_str());
    return 1;
  }
  return analyze_and_print(events, json, top_k);
}
