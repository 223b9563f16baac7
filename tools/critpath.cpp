// lwmpi critpath: "why was this message slow?" -- the CLI over the causal
// tier (src/obs/causal.hpp).
//
// A World built with BuildConfig::trace and a causal_trace_path writes its
// merged cross-rank timeline as JSONL at teardown (the watchdog writes the
// same file mid-run on a hang). This tool replays that file through the
// critical-path analyzer and prints the Table-1-style report: which
// wait-state categories the end-to-end path spent its time in, the top
// contributing edges, and per-rank slack.
//
//   lwmpi critpath trace.jsonl [--json] [--top N]
//       analyze a saved causal trace
//   lwmpi critpath --demo [--netmod mailbox|rdma] [--delay sender|receiver|credits]
//                  [--export trace.jsonl] [--json]
//       run a live 2-rank world with one injected delay and analyze it; the
//       injected delay should surface as the top cost category
//       (late_sender / late_receiver / credit_stalled respectively).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"
#include "runtime/world.hpp"
#include "tools/cli.hpp"

namespace lwmpi::cli {

namespace {

int analyze_and_print(const std::vector<obs::trace::Event>& events, bool json,
                      std::size_t top_k) {
  if (events.empty()) {
    std::fprintf(stderr, "lwmpi critpath: no events (was the world built with trace on?)\n");
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
      std::fprintf(stderr, "lwmpi critpath: --delay credits requires --netmod rdma\n");
      return 2;
    }
    o.profile.rdma_ring_depth = 2;  // exhaust the eager ring after two messages
  }

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
    events = w.trace_events();
  }

  if (!export_path.empty()) {
    std::ofstream f(export_path, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "lwmpi critpath: cannot write %s\n", export_path.c_str());
      return 1;
    }
    obs::causal::export_jsonl(f, events);
    std::fprintf(stderr, "lwmpi critpath: wrote %zu events to %s\n", events.size(),
                 export_path.c_str());
  }
  return analyze_and_print(events, json, top_k);
}

}  // namespace

int critpath_main(int argc, char** argv) {
  const Args args(argc, argv, {"--demo", "--json"},
                  {"--top", "--netmod", "--delay", "--export"});
  const bool json = args.has("--json");
  const auto top_k =
      static_cast<std::size_t>(std::strtoul(args.get("--top", "10").c_str(), nullptr, 10));
  const std::string delay = args.get("--delay", "sender");
  const bool demo = args.has("--demo");
  const std::size_t want_files = demo ? 0 : 1;
  if (!args.ok || args.positional.size() != want_files ||
      (delay != "sender" && delay != "receiver" && delay != "credits")) {
    return usage(
        "usage: lwmpi critpath <trace.jsonl> [--json] [--top N]\n"
        "       lwmpi critpath --demo [--netmod mailbox|rdma]\n"
        "                      [--delay sender|receiver|credits]\n"
        "                      [--export <trace.jsonl>] [--json]\n");
  }
  if (demo) {
    return run_demo(args.get("--netmod", "mailbox"), delay, args.get("--export"), json, top_k);
  }

  const std::string& trace_file = args.positional[0];
  std::ifstream f(trace_file);
  if (!f) {
    std::fprintf(stderr, "lwmpi critpath: cannot open %s\n", trace_file.c_str());
    return 1;
  }
  std::vector<obs::trace::Event> events;
  std::string err;
  if (!obs::causal::parse_jsonl(f, &events, &err)) {
    std::fprintf(stderr, "lwmpi critpath: %s: %s\n", trace_file.c_str(), err.c_str());
    return 1;
  }
  return analyze_and_print(events, json, top_k);
}

}  // namespace lwmpi::cli
