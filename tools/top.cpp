// lwmpi top: terminal dashboard over the telemetry sampler's time series --
// `top` for a simulated MPI job.
//
// The sampler (src/obs/sampler.hpp) derives interval rates per rank and per
// VCI lane and exports them as JSONL. This subcommand renders that series as
// a table: the latest interval of each rank as one sampler row
// (obs::sample_row -- rates, interval-local p99 latency, queue depth and
// growth, credit-stall and progress-idle ratios), plus a per-(rank, vci) lane
// breakdown.
//
//   lwmpi top telemetry.jsonl             render the latest interval per rank
//   lwmpi top --demo [--seconds N]        run a live 2-rank rdma scenario with
//                                         a deliberately starved receiver
//
// The demo is the acceptance check for the telemetry plane: a sender streams
// eager messages into a 2-deep credit ring while the receiver polls slowly,
// so credit stalls and unexpected-queue depth climb. Exit status 0 means the
// dashboard rendered live per-VCI rates AND at least one sampled interval --
// a drawn frame or any interval the sampler still retains after the run --
// crossed one of the scenario's thresholds: credit stall above 10% of the
// interval, or more than 4 unmatched messages.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/sampler.hpp"
#include "obs/text.hpp"
#include "runtime/world.hpp"
#include "tools/cli.hpp"

namespace lwmpi::cli {

namespace {

using obs::json::Value;

// Draw one frame from the latest sample per rank. Returns the number of
// nonzero per-VCI lane rates drawn (the demo's liveness check).
int draw(const std::vector<Value>& latest, bool clear_screen) {
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  std::uint64_t seq = 0;
  double interval_ms = 0.0;
  for (const Value& s : latest) {
    seq = std::max(seq, s["seq"].u64());
    interval_ms = s["interval_ns"].num / 1e6;
  }
  std::printf("lwmpi-top  |  interval %.0fms  seq %llu  ranks %zu\n", interval_ms,
              static_cast<unsigned long long>(seq), latest.size());
  std::fputs(obs::sample_header().c_str(), stdout);
  for (const Value& s : latest) std::fputs(obs::sample_row(s).c_str(), stdout);
  // Per-(rank, vci) lane breakdown: only lanes with any activity this
  // interval, so a 4-vci world with traffic on one channel stays readable.
  int live_lanes = 0;
  std::printf("\n%4s %4s %9s %9s %12s %12s %6s %5s\n", "RANK", "VCI", "TX/s", "RX/s",
              "RX bytes/s", "TX bytes/s", "POSTED", "UEXQ");
  for (const Value& s : latest) {
    for (const Value& l : s["lanes"].arr) {
      const double tx = l["send_per_s"].num;
      const double rx = l["deliver_per_s"].num;
      const std::uint64_t posted = l["posted"].u64();
      const std::uint64_t uexq = l["unexpected"].u64();
      if (tx == 0.0 && rx == 0.0 && posted == 0 && uexq == 0) continue;
      if (tx > 0.0 || rx > 0.0) ++live_lanes;
      std::printf("%4ld %4ld %9s %9s %12s %12s %6llu %5llu\n", s["rank"].i64(),
                  l["vci"].i64(), obs::fmt_rate(tx).c_str(), obs::fmt_rate(rx).c_str(),
                  obs::fmt_bytes(l["deliver_bytes_per_s"].num).c_str(),
                  obs::fmt_bytes(l["inject_bytes_per_s"].num).c_str(),
                  static_cast<unsigned long long>(posted),
                  static_cast<unsigned long long>(uexq));
    }
  }
  std::fflush(stdout);
  return live_lanes;
}

// Parse a JSONL telemetry file and keep the newest sample per rank (by seq).
// obs/json.hpp hands over only complete lines, so a final line cut by a
// killed writer is skipped. A complete line that does not parse, or lacks its
// rank or seq, is an error.
bool load_jsonl(const char* path, std::vector<Value>* latest, std::string* err) {
  std::string text;
  if (!obs::json::read_file(path, &text)) {
    *err = "cannot open";
    return false;
  }
  const obs::json::Lines file = obs::json::split_lines(text);
  err->clear();
  std::map<std::uint64_t, Value> by_rank;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    Value v;
    std::uint64_t rank = 0;
    std::uint64_t seq = 0;
    if (obs::json::parse(file.lines[i], &v, err)) {
      obs::json::Fields f(v, err);
      rank = f.u64("rank");
      seq = f.u64("seq");
    }
    if (!err->empty()) {
      *err = "record " + std::to_string(i + 1) + ": " + *err;
      return false;
    }
    Value& slot = by_rank[rank];
    if (slot.kind != Value::Kind::Obj || seq >= slot["seq"].u64()) slot = std::move(v);
  }
  latest->clear();
  for (auto& [rank, v] : by_rank) latest->push_back(std::move(v));
  return true;
}

// ---------------------------------------------------------------------------
// --demo: injected credit-stall scenario
// ---------------------------------------------------------------------------

// The scenario's thresholds, judged against sample fields every row prints.
constexpr double kStallPct = 10.0;         // STALL%: >10% of the interval stalled
constexpr std::uint64_t kUexqDepth = 4;    // UEXQ: >4 unmatched messages

// Counts the samples in `samples` that cross a demo threshold.
int over_threshold(const std::vector<Value>& samples) {
  int n = 0;
  for (const Value& s : samples) {
    if (s["credit_stall_pct"].num > kStallPct || s["unexpected_depth"].u64() > kUexqDepth) ++n;
  }
  return n;
}

int run_demo(int seconds) {
  const bool tty = isatty(STDOUT_FILENO) != 0;

  // A deliberately starved rdma transport: 2 eager credits per lane, so a
  // sender that outpaces its receiver hits acquire_credit busy-waits almost
  // immediately. Depth 2 also keeps the sender credit-paced for about half
  // the run (each receiver poll drains the whole ring but matches only one
  // message, so a deeper ring lets the sender finish disproportionately
  // early and the dashboard would mostly show a quiet fabric).
  WorldOptions o;
  o.netmod = "rdma";
  o.ranks_per_node = 1;  // inter-node path
  o.profile = net::loopback();
  o.profile.rdma_ring_depth = 2;
  World w(2, o);
  // 50 ms intervals: the 120-interval ring then retains the last 6 s, the
  // whole of a short run.
  obs::SamplerOptions so;
  so.interval_ns = 50'000'000;
  obs::Sampler sampler(w, so);

  // Receiver paces the whole run: it polls progress only inside brief test()
  // calls 2ms apart (irecv + sleepy test loop, never a spinning blocking
  // recv), so between polls the credit ring fills and the sender sits in
  // acquire_credit -- the injected credit stall. Each test() drains whatever
  // matured, so the unexpected queue also grows in bursts.
  const int nmsgs = std::max(100, seconds * 400);
  std::atomic<bool> workload_done{false};
  std::thread workload([&w, &workload_done, nmsgs] {
    w.run([nmsgs](Engine& e) {
      std::uint64_t buf = 0;
      if (e.world_rank() == 0) {
        for (int i = 0; i < nmsgs; ++i) {
          buf = static_cast<std::uint64_t>(i);
          e.send(&buf, 1, kUint64, 1, 7, kCommWorld);
        }
      } else {
        for (int i = 0; i < nmsgs; ++i) {
          Request req;
          e.irecv(&buf, 1, kUint64, 0, 7, kCommWorld, &req);
          bool done = false;
          while (!done) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            e.test(&req, &done, nullptr);
          }
        }
      }
    });
    workload_done.store(true, std::memory_order_release);
  });

  // Render from the sampler's own ring via the JSON round-trip, so the
  // dashboard exercises exactly what `lwmpi top <file>` reads.
  const auto samples = [&sampler](std::size_t last_n) {
    Value v;
    if (!obs::json::parse(sampler.timeline_json(last_n), &v) || v.kind != Value::Kind::Arr) {
      return std::vector<Value>{};
    }
    return std::move(v.arr);
  };
  int live_lanes = 0;
  int frames_over = 0;
  while (!workload_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(tty ? 100 : 150));
    const std::vector<Value> frame = samples(1);
    if (frame.empty()) continue;
    live_lanes = std::max(live_lanes, draw(frame, tty));
    frames_over += over_threshold(frame);
  }
  workload.join();
  sampler.sample_now();
  // Every retained interval, not only the ones a frame happened to show.
  const int retained_over = over_threshold(samples(sampler.ring_depth()));

  std::printf("\ndemo complete: %llu sampling tick(s), %d live lane rate(s); over a threshold"
              " (stall > %g%% or unexpected depth > %llu): %d retained sample(s), %d drawn\n",
              static_cast<unsigned long long>(sampler.ticks()), live_lanes, kStallPct,
              static_cast<unsigned long long>(kUexqDepth), retained_over, frames_over);
  if (live_lanes == 0 || retained_over + frames_over == 0) {
    std::fprintf(stderr, "lwmpi top: demo failed (%s)\n",
                 live_lanes == 0 ? "no live per-VCI rates rendered"
                                 : "no interval crossed a threshold");
    return 1;
  }
  return 0;
}

}  // namespace

int top_main(int argc, char** argv) {
  const Args args(argc, argv, {"--demo"}, {"--seconds"});
  if (args.ok && args.has("--demo")) {
    return run_demo(std::max(1, std::atoi(args.get("--seconds", "3").c_str())));
  }
  if (!args.ok || args.positional.size() != 1) {
    return usage("usage: lwmpi top <telemetry.jsonl>\n"
                 "       lwmpi top --demo [--seconds N]\n");
  }
  const char* path = args.positional[0].c_str();
  std::vector<Value> latest;
  if (std::string err; !load_jsonl(path, &latest, &err)) {
    std::fprintf(stderr, "lwmpi top: %s: %s\n", path, err.c_str());
    return 1;
  }
  if (latest.empty()) {
    std::fprintf(stderr, "lwmpi top: no telemetry records in %s\n", path);
    return 1;
  }
  draw(latest, false);
  return 0;
}

}  // namespace lwmpi::cli
