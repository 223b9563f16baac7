// Cross-rank causal tracing: wait-state classification and the critical-path
// analyzer -- the fourth tier of the observability subsystem.
//
// The first three tiers (counters, latency histograms, per-rank lifecycle
// traces) are all *local*: they can say a message was slow, but not whose
// delay made it slow. This tier answers the cross-rank question:
//
//   * Every packet carries a small causal header stamped at the Fabric
//     injection boundary (net/fabric.hpp): the origin's send timestamp
//     (obs::lat_now_ns), a per-rank Lamport logical clock, and -- on the rdma
//     backend -- the nanoseconds the injection stalled waiting for an
//     eager-ring credit. Both netmod backends carry it because the stamp
//     lives in the facade, not the transport.
//   * Clock merge rule: inject ticks the origin's clock and stamps the packet
//     (L := ++clock[src]); poll merges at the receiver
//     (clock[dst] := max(clock[dst], L + 1)). Any event recorded after a
//     delivery therefore carries a logical clock strictly greater than every
//     event that happened-before the send, so a single globally-ordered
//     timeline can be stitched from a World's trace rings.
//   * At every match site the receiver decomposes the message's wait interval
//     (first-ready to match) into components and classifies it by the
//     dominant one:
//       late-sender      the send was stamped after the receive was posted
//       late-receiver    the receive was posted after the send was stamped
//       credit-stalled   the injection busy-waited for an eager-ring credit
//       progress-starved residual: both sides were ready, the packet sat
//                        undelivered (nobody polled / wire time)
//     A fifth state, reg-cache-miss, is recorded at the zero-copy rendezvous
//     registration sites when register_memory pays the pin cost. Each state
//     feeds a per-VCI log2 histogram exported through the pvar registry
//     (wait_*_count / wait_*_p99_ns / wait_*_max_ns).
//   * analyze() walks the merged event graph backwards from the last event,
//     at each step following the binding constraint (the latest of
//     "previous event on this rank" and, for deliveries, "the matching
//     inject on the peer"), and reports the end-to-end critical path as a
//     Table-1-style cost breakdown: per-category totals, top-k edges, and
//     per-rank slack. `lwmpi critpath` is the CLI over this analysis.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace lwmpi::obs {

// Wait-state taxonomy. None means "not classified" (unsampled message or a
// wait too ambiguous to attribute); the five real states are the ones the
// pvar registry exports.
enum class Wait : std::uint8_t {
  None = 0,
  LateSender,
  LateReceiver,
  ProgressStarved,
  CreditStalled,
  RegCacheMiss,
};
inline constexpr std::size_t kNumWaitStates = 5;  // excluding None

const char* to_string(Wait w) noexcept;
std::optional<Wait> wait_from_string(std::string_view s) noexcept;  // nullopt: unknown

// Decomposition of one matched message's wait interval. All inputs come from
// the same obs::lat_now_ns() clock: `posted_ns` from the posted receive,
// `send_ns`/`stall_ns` from the packet's causal header, `now_ns` at the match
// site. Returns the dominant component's state and writes the full interval
// (match minus first-ready side) to *wait_ns.
Wait classify_wait(std::uint64_t posted_ns, std::uint64_t send_ns, std::uint64_t stall_ns,
                   std::uint64_t now_ns, std::uint64_t* wait_ns) noexcept;

// Per-VCI wait-state histogram block: one log2 latency histogram per state.
// Same writer discipline as VciLatency (recorded under the channel lock);
// readers merge across channels through the pvar registry.
struct alignas(64) WaitBlock {
  std::array<LatencyHist, kNumWaitStates> hist{};
  bool enabled = true;

  void record(Wait w, std::uint64_t ns) noexcept {
    if (!enabled || w == Wait::None) return;
    hist[static_cast<std::size_t>(w) - 1].record(ns);
  }
  const LatencyHist& of(Wait w) const noexcept {
    return hist[static_cast<std::size_t>(w) - 1];
  }
};

namespace causal {

// One edge of the extracted critical path, chronological order.
struct PathEdge {
  std::uint64_t from_ts = 0;  // ts_ns of the predecessor event
  std::uint64_t to_ts = 0;    // ts_ns of the successor event
  std::uint64_t dur_ns = 0;
  std::uint64_t seq = 0;        // message chain the edge belongs to (0 = none)
  std::int32_t rank = -1;       // owning rank; -1 for cross-rank (wire) edges
  const char* category = "app";
};

struct RankSlack {
  std::int32_t rank = 0;
  std::uint64_t on_path_ns = 0;  // critical-path time attributed to this rank
  std::uint64_t slack_ns = 0;    // span - on_path_ns
};

struct CategoryCost {
  const char* category = "app";
  std::uint64_t total_ns = 0;
  std::uint64_t edges = 0;
};

struct Analysis {
  std::uint64_t span_ns = 0;  // first event to last event
  std::size_t events = 0;
  std::size_t messages = 0;                // distinct nonzero seqs
  std::vector<PathEdge> path;              // chronological
  std::vector<CategoryCost> by_category;   // sorted by total_ns, descending
  std::vector<RankSlack> ranks;            // sorted by rank
};

// Stitch `events` (from World::trace_events, any order) into the merged
// timeline and extract the end-to-end critical path. Events with lclock 0
// (pre-causal traces) fall back to timestamp order.
Analysis analyze(std::span<const trace::Event> events);

// Paper-Table-1-style report over an analysis: category breakdown, top-k
// edges by cost, per-rank slack.
std::string render_text(const Analysis& a, std::size_t top_k = 10);
std::string render_json(const Analysis& a, std::size_t top_k = 10);

// Merged-timeline persistence: one JSON object per line per event, ordered by
// (lclock, ts). This is the format World teardown / the watchdog write and
// `lwmpi critpath` reads back.
void export_jsonl(std::ostream& os, std::span<const trace::Event> events);
// Strict reader of that format (obs/json.hpp). A complete line that does not
// parse, lacks a field, or names an unknown kind or wait state fails the
// whole read, with the record number in *err. Only an unterminated final
// line -- a writer killed mid-append -- is dropped.
bool parse_jsonl(std::istream& is, std::vector<trace::Event>* out, std::string* err);

}  // namespace causal
}  // namespace lwmpi::obs
