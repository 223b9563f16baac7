// Hang-diagnosis watchdog: blocking-call annotations plus a progress-stall
// detector.
//
// The failure mode hardest to diagnose in a real MPI deployment is not the
// crash but the silent hang: some rank waits forever on a message that will
// never arrive, and nothing in the system says who, where, or why. This
// module closes that gap in two pieces:
//
//   * BlockScope (core/engine.hpp) annotates every blocking call with its
//     name and entry time, published through Engine::blocking_call(). The
//     engine's one wait loop, Engine::block_until, constructs it once its
//     first completion check misses (Wait/Waitany/Probe/Comm_waitall/
//     Win_flush/Win_lock/Win_start/Win_wait/...); Barrier, Win_fence and
//     Win_unlock hold an outer scope, and the outermost scope wins, so a
//     Barrier that waits internally still reports "Barrier".
//
//   * Watchdog runs a sampling thread over a World. Per rank it remembers an
//     activity fingerprint (fabric traffic + request lifecycle counters);
//     when a rank has outstanding work but its fingerprint has not changed
//     for `stall_ns`, the rank is declared stuck and a HangReport is emitted:
//     each stuck rank's current blocking call, its oldest pending request's
//     (comm, tag, peer, age), and the full queue snapshot
//     (obs/introspect.hpp). The report renders as JSON; its text form is
//     that JSON through obs::render_hang_text, which `lwmpi hang` also uses
//     on a saved report.
//
// The watchdog fires once per stall episode and re-arms when any stuck rank
// makes progress again. It must be destroyed before the World it observes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/histogram.hpp"
#include "obs/introspect.hpp"
#include "obs/recorder.hpp"

namespace lwmpi {
class World;
}

namespace lwmpi::obs {

// One stuck rank's diagnosis.
struct StuckRank {
  Rank rank = 0;
  const char* call = "(not in an MPI call)";  // blocking-call annotation
  std::uint64_t blocked_ns = 0;               // time inside that call
  std::uint64_t stalled_ns = 0;               // time since last observed progress
  RankSnapshot snap;
  // When the world has a flight recorder, the stalled rank's last 16 surface
  // calls (oldest first) as (absolute op index, record) pairs -- the "last
  // moves" leading into the hang. Empty when recording is off. On fire the
  // watchdog also flushes the trace bundle mid-run if the world has a
  // record_path, so a hung job still yields a replayable trace.
  std::vector<std::pair<std::uint64_t, RecOp>> last_moves;
};

struct HangReport {
  std::vector<StuckRank> stuck;
  int nranks = 0;  // world size, for "1 of 4 ranks stuck" context
};

// render_json's document through obs::render_hang_text (obs/text.hpp).
std::string render_text(const HangReport& r);
std::string render_json(const HangReport& r);

struct WatchdogOptions {
  std::uint64_t stall_ns = 250'000'000;  // no-progress window before firing
  std::uint64_t poll_ns = 20'000'000;    // sampling period
  // Invoked (from the watchdog thread) with each new hang diagnosis.
  std::function<void(const HangReport&)> on_hang;
  // When non-empty, each diagnosis is also written here as JSON (the format
  // `lwmpi hang` reads). Overwritten per episode.
  std::string report_path;
  // When non-empty, each diagnosis also dumps the merged causal trace (the
  // World's trace rings, globally ordered) here as JSONL -- the format
  // `lwmpi critpath` reads. Requires the world to be built with
  // BuildConfig::trace; written per episode so a hung run still yields a
  // critical-path-analyzable timeline.
  std::string causal_trace_path;
};

class Watchdog {
 public:
  explicit Watchdog(World& world, WatchdogOptions opts = {});
  ~Watchdog();  // stops and joins the sampling thread
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Number of distinct stall episodes diagnosed so far. An episode counts
  // once all of its outputs exist: the report file, the causal export, the
  // bundle flush and the on_hang callback.
  int fires() const noexcept { return fires_.load(std::memory_order_acquire); }
  // Copy of the most recent diagnosis (empty report if none yet).
  HangReport last_report() const;

 private:
  void run();

  World& world_;
  const WatchdogOptions opts_;
  std::atomic<bool> stop_{false};
  std::atomic<int> fires_{0};
  mutable std::mutex report_mu_;
  HangReport last_;
  std::thread thread_;
};

}  // namespace lwmpi::obs
