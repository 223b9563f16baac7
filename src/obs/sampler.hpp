// Continuous telemetry sampler: the time-series tier of the observability
// subsystem.
//
// Everything below this tier is either a point-in-time snapshot (pvars,
// introspect) or a post-mortem artifact (traces, hangdumps, critical paths).
// Progress pathologies, though, are *rate* phenomena -- an unexpected queue
// that grows 50 entries per interval, a credit-stall ratio that climbs as a
// receiver falls behind -- visible only as a time series. The Sampler closes
// that gap:
//
//   * A background thread (same sliced-sleep discipline as the watchdog)
//     snapshots every rank at a configurable interval: per-VCI traffic
//     counters, per-lane fabric byte counters, queue-depth levels, progress
//     counters, credit-stall time, and the latency/wait histograms (via
//     LatSnapshot::snapshot()/delta(), so percentiles are interval-local, not
//     since-boot).
//   * Each tick derives interval rates -- msgs/sec and bytes/sec per lane,
//     credit-stall ratio, unexpected/posted queue growth, progress idle
//     fraction -- into a per-rank overwrite-oldest ring of RankSamples.
//   * The sampling interval is SamplerOptions::interval_ns, fixed for the
//     Sampler's life and echoed in every sample, so two samplers on one World
//     can run at different cadences.
//   * Export: JSONL time series (export_jsonl()) and a compact JSON timeline
//     block (timeline_json()) the watchdog embeds in HangReports so a hang
//     carries its last N intervals of history. The destructor takes a final
//     sample and writes the configured JSONL file.
//
// All reads are relaxed atomics or lock-free accessors -- the sampler never
// takes an engine or channel lock, so it cannot perturb or deadlock the
// engine it observes. Like the watchdog, a Sampler must be destroyed before
// the World it references.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "obs/causal.hpp"
#include "obs/histogram.hpp"

namespace lwmpi {
class World;
class Engine;
}

namespace lwmpi::obs {

struct SamplerOptions {
  // Time between background ticks, fixed for the Sampler's life.
  std::uint64_t interval_ns = 100'000'000;
  // When non-empty, the destructor writes the full JSONL time series here.
  std::string jsonl_path;
};

// Interval rates for one (rank, vci) lane.
struct LaneSample {
  double send_per_s = 0.0;           // engine sends issued on this channel
  double deliver_per_s = 0.0;        // fabric packets delivered to this lane
  double deliver_bytes_per_s = 0.0;  // payload bytes delivered to this lane
  double inject_bytes_per_s = 0.0;   // payload bytes injected toward this lane
  std::uint64_t posted_depth = 0;    // instantaneous level at tick time
  std::uint64_t unexpected_depth = 0;
};

// One rank's derived interval: the unit of the time series.
struct RankSample {
  std::uint64_t t_ns = 0;        // lat_now_ns() at tick time
  std::uint64_t dt_ns = 0;       // measured elapsed time since previous tick
  std::uint64_t interval_ns = 0; // the sampler's configured interval (echo)
  std::uint64_t seq = 0;         // monotone tick number (shared across ranks)
  Rank rank = 0;
  std::vector<LaneSample> lanes;
  double sends_per_s = 0.0;
  double recvs_per_s = 0.0;
  std::uint64_t send_p99_ns = 0;  // interval-local p99 (delta histogram)
  std::uint64_t recv_p99_ns = 0;
  std::uint64_t posted_depth = 0;      // summed over lanes
  std::uint64_t unexpected_depth = 0;
  std::int64_t posted_growth = 0;      // depth change over the interval
  std::int64_t unexpected_growth = 0;
  double credit_stall_pct = 0.0;  // credit-stall ns as % of the interval
  double idle_pct = 0.0;          // idle progress calls / all progress calls
  // Interval wait-state counts, indexed by Wait - 1 (late_sender first).
  std::array<std::uint64_t, kNumWaitStates> wait_delta{};
};

// Render one sample as a single-line JSON object (the JSONL record shape;
// obs::sample_row in obs/text.hpp is its text form).
std::string render_json(const RankSample& s);

class Sampler {
 public:
  explicit Sampler(World& world, SamplerOptions opts = {});
  ~Sampler();  // stops the thread, takes a final sample, writes the JSONL file
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Take one sample immediately, from any thread (serialized internally
  // against the background thread). Tests and teardown paths use this.
  void sample_now();

  std::uint64_t ticks() const noexcept { return ticks_.load(std::memory_order_acquire); }
  // Samples retained per rank; older ones are overwritten.
  static constexpr std::size_t ring_depth() noexcept { return 120; }

  // Copy of one rank's ring, oldest first.
  std::vector<RankSample> history(Rank r) const;

  // The whole retained time series as JSONL: one line per (rank, interval),
  // rank-major, oldest first.
  void export_jsonl(std::ostream& os) const;

  // Compact JSON array of every rank's last `last_n` samples (merged,
  // oldest first) -- the block WatchdogOptions::sampler embeds in HangReport
  // JSON and `lwmpi hang --timeline` prints.
  std::string timeline_json(std::size_t last_n) const;

 private:
  // Cumulative baseline for one rank, subtracted to form each interval.
  struct RawRank {
    std::uint64_t t_ns = 0;
    std::vector<std::uint64_t> lane_sends;
    std::vector<std::uint64_t> lane_delivered;
    std::vector<std::uint64_t> lane_deliver_bytes;
    std::vector<std::uint64_t> lane_inject_bytes;
    std::vector<std::uint64_t> lane_posted;  // depth levels, read once per tick
    std::vector<std::uint64_t> lane_unexpected;
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t idle = 0;
    std::uint64_t swept = 0;
    std::uint64_t stall_ns = 0;
    std::uint64_t posted_depth = 0;  // sums of the lane levels
    std::uint64_t unexpected_depth = 0;
    std::array<std::uint64_t, kNumWaitStates> waits{};
    LatSnapshot send_lat;  // cumulative SendEager+SendRdv fold
    LatSnapshot recv_lat;  // cumulative RecvEager+RecvRdv fold
  };

  void run();
  void collect(Engine& e, RawRank* out) const;  // lock-free cumulative read
  void tick();                                  // one sample of every rank

  World& world_;
  const SamplerOptions opts_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> ticks_{0};
  mutable std::mutex mu_;  // serializes ticks and guards raw_/rings_
  std::uint64_t seq_ = 0;  // under mu_
  std::vector<RawRank> raw_;
  std::vector<std::deque<RankSample>> rings_;  // per rank, overwrite-oldest
  std::thread thread_;
};

}  // namespace lwmpi::obs
