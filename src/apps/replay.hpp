// Trace-driven workload replay (the read side of obs/recorder.hpp).
//
// A recorded `.lwtrace` bundle is re-executed as a first-class workload: each
// live rank walks its recorded op stream and re-issues every operation
// through the normal public Engine API, optionally reproducing the recorded
// inter-op compute gaps by calibrated spinning. Fidelity is validated by
// diffing the replayed pvar totals against the totals the recorder froze
// into the trace header.
//
// Replay semantics and limits:
//  - Ops are mapped onto kCommWorld. Communicator construction is not
//    recorded, so comm-split workloads replay with world-rank peers and the
//    recorded tags; matching stays correct as long as tags disambiguate.
//  - Blocking calls are decomposed into their nonblocking forms plus a
//    deadline-bounded completion loop, so a truncated trace (ring overwrote
//    the start of the run, or the watchdog flushed mid-hang) degrades into
//    skip/timeout counts instead of a wedged replay.
//  - Collectives rebuild (count, datatype) from the recorded byte volume and
//    the builtin element size stashed in the tag field. On an incomplete
//    bundle collectives are skipped outright: a collective whose record fell
//    off any one ring would deadlock every other rank.
//  - RMA, the v-collectives, and isend_all_opts are skip-counted: their
//    argument vectors / window geometry are not in the trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "obs/recorder.hpp"

namespace lwmpi::apps {

// One rank's slice of a bundle, exactly as read from disk.
struct TraceRank {
  obs::LwtraceHeader header;
  std::vector<obs::DiskRec> records;
  // File ended before `header.nrecords` full records (killed writer, partial
  // copy). The complete prefix is kept.
  bool truncated = false;
  // Absolute op index of records[0] in the recording rank's stream. Nonzero
  // when the ring wrapped; link distances are absolute-index deltas.
  std::uint64_t base_index() const noexcept {
    return header.total_ops - header.nrecords;
  }
};

struct TraceBundle {
  int nranks = 0;
  int nvcis = 1;
  std::uint64_t eager_threshold = 0;
  std::uint32_t sample_shift = 0;
  std::vector<TraceRank> ranks;
  // Provenance from the `<prefix>.json` sidecar (empty when absent).
  std::string netmod;
  std::string device;

  // Every rank captured its whole run (no ring wrap, no truncation) -- the
  // precondition for the exact fidelity diff and for replaying collectives.
  bool complete() const noexcept;
};

// The most ranks a bundle may name. Each replayed rank is a thread, and a
// missing rank file loads as an empty slice, so rank 0's header alone would
// otherwise size both. The committed bundles have 4 and 8 ranks.
inline constexpr int kMaxTraceRanks = 1024;

// Load `<prefix>.rank<r>.lwtrace` for every rank named by rank 0's header,
// plus the sidecar when present. Returns false (with a message in *err) when
// no usable trace exists or the headers are not one bundle's: rank 0 names
// no ranks, more than kMaxTraceRanks, or an nvcis outside 1..kMaxVcis, or a
// rank file names another rank, nranks or nvcis. Per-rank truncation, a
// missing rank file, and an nrecords beyond the bytes present are tolerated
// and flagged.
bool load_trace(const std::string& prefix, TraceBundle* out, std::string* err);

struct ReplayOptions {
  // Multiplier on recorded inter-op compute gaps. 0 disables pacing (max
  // throughput); 1.0 re-creates the recorded rhythm; 0.1 runs it 10x faster.
  double timescale = 0.0;
  std::string netmod;  // empty = sidecar's netmod, falling back to "mailbox"
  DeviceKind device = DeviceKind::Ch4;
  // Bounded-completion deadline per op. A replay of a complete trace never
  // hits it; a truncated trace abandons the op and keeps going.
  std::uint64_t stall_timeout_ns = 10'000'000'000ull;
  // Pvar names to read from the replay world before teardown (obs/pvar.hpp).
  // Names ending in _count are summed across ranks; percentile/max names
  // report the worst rank. Unknown names read as 0.
  std::vector<std::string> capture_pvars;
};

struct ReplayResult {
  bool ok = false;                // replay executed (trace loaded, world ran)
  bool fidelity_checked = false;  // bundle was complete -> totals were diffed
  bool fidelity_ok = false;       // engine-level totals matched exactly
  bool fabric_checked = false;    // same netmod -> fabric totals also diffed
  bool fabric_ok = false;
  std::uint64_t replayed = 0;  // ops re-issued
  std::uint64_t skipped = 0;   // unsupported or unsafe-on-incomplete ops
  std::uint64_t timeouts = 0;  // bounded completions abandoned
  std::uint64_t wall_ns = 0;
  std::string netmod;  // netmod the replay actually ran on
  std::vector<std::string> diffs;          // human-readable mismatches
  std::vector<obs::RecTotals> recorded;    // per rank, from trace headers
  std::vector<obs::RecTotals> measured;    // per rank, from the replay world
  // Aggregated readings for ReplayOptions::capture_pvars, in request order.
  std::vector<std::pair<std::string, std::uint64_t>> pvars;
};

ReplayResult run_replay(const TraceBundle& bundle, const ReplayOptions& opts = {});

}  // namespace lwmpi::apps
