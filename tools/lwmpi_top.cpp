// lwmpi_top: live terminal dashboard over the telemetry sampler's time
// series -- `top` for a simulated MPI job.
//
// The sampler (src/obs/sampler.hpp) derives interval rates per rank and per
// VCI lane and exports them as JSONL. This tool renders that series as a
// refreshing table: per-rank send/recv rates, interval-local p99 latency,
// queue depth and growth, credit-stall and progress-idle ratios, and any SLO
// alerts fired on the latest interval, plus a per-(rank, vci) lane breakdown.
//
//   lwmpi_top telemetry.jsonl             render the latest interval per rank
//   lwmpi_top --follow telemetry.jsonl    re-read and re-render until ^C
//   lwmpi_top --demo [--seconds N]        run a live 2-rank rdma scenario with
//                                         a deliberately starved receiver and
//                                         watch the credit-stall SLO fire
//
// The demo is the acceptance check for the telemetry plane: a sender streams
// eager messages into an 8-deep credit ring while the receiver polls slowly,
// so credit stalls and unexpected-queue growth climb until the SLO rules
// (set via cvars at startup) fire. Exit status 0 means the dashboard
// rendered live per-VCI rates AND at least one alert fired.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/cvar.hpp"
#include "obs/json.hpp"
#include "obs/sampler.hpp"
#include "runtime/world.hpp"

namespace {

using lwmpi::obs::json::Value;

std::string fmt_rate(double per_s) {
  char buf[32];
  if (per_s >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", per_s / 1e6);
  } else if (per_s >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", per_s / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", per_s);
  }
  return buf;
}

std::string fmt_bytes_rate(double bytes_per_s) {
  char buf[32];
  if (bytes_per_s >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fGB/s", bytes_per_s / 1e9);
  } else if (bytes_per_s >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fMB/s", bytes_per_s / 1e6);
  } else if (bytes_per_s >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fKB/s", bytes_per_s / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB/s", bytes_per_s);
  }
  return buf;
}

std::string fmt_ns(double ns) {
  char buf[32];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

// Render one frame from the latest sample per rank. Returns the number of
// nonzero per-VCI lane rates rendered (the demo's liveness check).
int render_frame(const std::vector<Value>& latest, std::uint64_t alerts_total,
                 bool clear_screen) {
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  std::uint64_t seq = 0;
  double interval_ms = 0.0;
  for (const Value& s : latest) {
    seq = std::max(seq, s["seq"].u64());
    interval_ms = s["interval_ns"].num / 1e6;
  }
  std::printf("lwmpi-top  |  interval %.0fms  seq %llu  ranks %zu  |  alerts fired: %llu\n",
              interval_ms, static_cast<unsigned long long>(seq), latest.size(),
              static_cast<unsigned long long>(alerts_total));
  std::printf("%4s %9s %9s %10s %10s %5s %6s %7s %6s  %s\n", "RANK", "SENDS/s",
              "RECVS/s", "P99send", "P99recv", "UEXQ", "+UEXQ", "STALL%", "IDLE%",
              "ALERTS");
  for (const Value& s : latest) {
    std::string fired;
    for (const Value& a : s["alerts"].arr) {
      if (a["rule"].kind != Value::Kind::Str) continue;
      if (!fired.empty()) fired += ' ';
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s(%.3g>%.3g)", a["rule"].str.c_str(), a["value"].num,
                    a["threshold"].num);
      fired += buf;
    }
    std::printf("%4ld %9s %9s %10s %10s %5llu %+6lld %6.1f%% %5.1f%%  %s\n", s["rank"].i64(),
                fmt_rate(s["sends_per_s"].num).c_str(), fmt_rate(s["recvs_per_s"].num).c_str(),
                fmt_ns(s["send_p99_ns"].num).c_str(), fmt_ns(s["recv_p99_ns"].num).c_str(),
                static_cast<unsigned long long>(s["unexpected_depth"].u64()),
                static_cast<long long>(s["unexpected_growth"].i64()),
                s["credit_stall_pct"].num, s["idle_pct"].num,
                fired.empty() ? "-" : fired.c_str());
  }
  // Per-(rank, vci) lane breakdown: only lanes with any activity this
  // interval, so a 4-vci world with traffic on one channel stays readable.
  int live_lanes = 0;
  std::printf("\n%4s %4s %9s %9s %12s %12s %6s %5s\n", "RANK", "VCI", "TX/s", "RX/s",
              "RX bytes", "TX bytes", "POSTED", "UEXQ");
  for (const Value& s : latest) {
    for (const Value& l : s["lanes"].arr) {
      const double tx = l["send_per_s"].num;
      const double rx = l["deliver_per_s"].num;
      const std::uint64_t posted = l["posted"].u64();
      const std::uint64_t uexq = l["unexpected"].u64();
      if (tx == 0.0 && rx == 0.0 && posted == 0 && uexq == 0) continue;
      if (tx > 0.0 || rx > 0.0) ++live_lanes;
      std::printf("%4ld %4ld %9s %9s %12s %12s %6llu %5llu\n", s["rank"].i64(),
                  l["vci"].i64(), fmt_rate(tx).c_str(), fmt_rate(rx).c_str(),
                  fmt_bytes_rate(l["deliver_bytes_per_s"].num).c_str(),
                  fmt_bytes_rate(l["inject_bytes_per_s"].num).c_str(),
                  static_cast<unsigned long long>(posted),
                  static_cast<unsigned long long>(uexq));
    }
  }
  std::fflush(stdout);
  return live_lanes;
}

// Parse a JSONL telemetry file and keep the newest sample per rank (by seq)
// plus the total alert count across all retained records.
//
// The sampler appends records while we read, so the final line may be cut
// mid-append; obs/json.hpp hands over only complete lines, and the finished
// line shows up on the next tick's re-read. A complete line that does not
// parse, or lacks its rank, seq or alerts, is an error.
bool load_jsonl(const char* path, std::vector<Value>* latest, std::uint64_t* alerts_total,
                std::string* err) {
  std::string text;
  if (!lwmpi::obs::json::read_file(path, &text)) {
    *err = "cannot open";
    return false;
  }
  const lwmpi::obs::json::Lines file = lwmpi::obs::json::split_lines(text);
  err->clear();
  std::map<std::uint64_t, Value> by_rank;
  *alerts_total = 0;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    Value v;
    std::uint64_t rank = 0;
    std::uint64_t seq = 0;
    if (lwmpi::obs::json::parse(file.lines[i], &v, err)) {
      lwmpi::obs::json::Fields f(v, err);
      rank = f.u64("rank");
      seq = f.u64("seq");
      *alerts_total += f.arr("alerts").size();
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

int run_demo(int seconds) {
  using namespace lwmpi;
  const bool tty = isatty(STDOUT_FILENO) != 0;

  // SLO thresholds and cadence for the scenario. cvar writes here model an
  // operator tuning LWMPI_CVAR_* before launch.
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 50);
  obs::cvar_set(obs::Cv::SloCreditStallPct, 10);   // >10% of interval stalled
  obs::cvar_set(obs::Cv::SloUnexpectedDepth, 4);   // >4 unmatched messages

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
  obs::Sampler sampler(w);

  // Receiver paces the whole run: it polls progress only inside brief test()
  // calls 2ms apart (irecv + sleepy test loop, never a spinning blocking
  // recv), so between polls the 8-credit ring fills and the sender sits in
  // acquire_credit -- the injected credit-stall the SLO rules are watching
  // for. Each test() drains whatever matured, so the unexpected queue also
  // grows in bursts.
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

  int live_lanes = 0;
  while (!workload_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(tty ? 100 : 150));
    // Render from the sampler's own ring via the JSON round-trip, so the
    // dashboard exercises exactly what a --follow session would read.
    Value frame;
    if (lwmpi::obs::json::parse(sampler.timeline_json(1), &frame) &&
        frame.kind == Value::Kind::Arr && !frame.arr.empty()) {
      const int n = render_frame(frame.arr, sampler.alerts_fired(), tty);
      if (n > live_lanes) live_lanes = n;
    }
  }
  workload.join();
  sampler.sample_now();

  const std::uint64_t fired = sampler.alerts_fired();
  std::printf("\ndemo complete: %llu sampling tick(s), %d live lane rate(s), %llu SLO"
              " alert(s) fired\n",
              static_cast<unsigned long long>(sampler.ticks()), live_lanes,
              static_cast<unsigned long long>(fired));
  if (live_lanes == 0 || fired == 0) {
    std::fprintf(stderr, "lwmpi_top: demo failed (%s)\n",
                 live_lanes == 0 ? "no live per-VCI rates rendered"
                                 : "no SLO alert fired");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool follow = false;
  int seconds = 3;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--follow") == 0) {
      follow = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atoi(argv[++i]);
      if (seconds < 1) seconds = 1;
    } else if (path == nullptr) {
      path = argv[i];
    }
  }
  if (demo) return run_demo(seconds);
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: lwmpi_top [--follow] <telemetry.jsonl>\n"
                 "       lwmpi_top --demo [--seconds N]\n");
    return 2;
  }

  const bool tty = isatty(STDOUT_FILENO) != 0;
  std::vector<Value> latest;
  std::uint64_t alerts_total = 0;
  do {
    if (std::string err; !load_jsonl(path, &latest, &alerts_total, &err)) {
      std::fprintf(stderr, "lwmpi_top: %s: %s\n", path, err.c_str());
      return 1;
    }
    if (latest.empty() && !follow) {
      // --follow tolerates an empty read (file exists but no complete record
      // yet, e.g. the writer is mid-append) and just waits for the next tick.
      std::fprintf(stderr, "lwmpi_top: no telemetry records in %s\n", path);
      return 1;
    }
    if (!latest.empty()) render_frame(latest, alerts_total, tty && follow);
    if (follow) std::this_thread::sleep_for(std::chrono::milliseconds(500));
  } while (follow);
  return 0;
}
