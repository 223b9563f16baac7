// Live queue introspection: MPIR-debugger-style snapshots of a rank's
// communication state.
//
// MPICH exposes its posted/unexpected queues to debuggers through the MPIR
// message-queue interface; the paper's operability argument (and the tool
// interfaces MPI_T standardizes in MPI-3.1 section 14) is that a runtime you
// cannot look inside cannot be diagnosed. This header is lwmpi's equivalent:
// Engine::snapshot() walks every VCI's posted-receive queue, unexpected
// queue, software send queue, and RMA epoch state under the channel locks and
// returns a plain-data picture -- per entry: communicator, tag, source, size,
// and age. The watchdog (obs/watchdog.hpp) embeds these snapshots in its hang
// diagnosis; `lwmpi hang` prints a saved one.
//
// Snapshots are diagnostic, not transactional: each VCI is captured
// atomically (under its lock), but the rank keeps running between channels,
// so cross-VCI state may be skewed by in-flight traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lwmpi {
class Engine;
}

namespace lwmpi::obs {

// One posted-receive or unexpected-message entry.
struct QueueEntrySnap {
  std::uint32_t ctx = 0;        // matcher context id
  Comm comm = kCommNull;        // reverse-mapped communicator (kCommNull if freed)
  Rank src = kAnySource;        // posted: requested source (may be kAnySource)
                                // unexpected: sender's comm rank
  Tag tag = kAnyTag;            // may be kAnyTag for posted entries
  std::uint64_t bytes = 0;      // posted: receive capacity; unexpected: payload
  std::uint64_t age_ns = 0;     // time since post/arrival (0 if unstamped)
  bool arrival_order = false;   // _NOMATCH entry (context-only matching)
};

// One orig-device software send-queue entry.
struct SendQueueSnap {
  Rank dst_world = 0;
  Tag tag = 0;
  std::uint64_t bytes = 0;
  std::uint64_t age_ns = 0;
};

// One channel's queues.
struct VciSnapshot {
  int vci = 0;
  std::vector<QueueEntrySnap> posted;
  std::vector<QueueEntrySnap> unexpected;
  std::vector<SendQueueSnap> send_queue;
};

// One RMA window's synchronization state.
struct WinSnapshot {
  std::uint32_t win_id = 0;
  const char* epoch = "none";       // none/fence/lock/lock_all/pscw
  std::uint64_t outstanding_acks = 0;
  std::size_t pending_lock_ops = 0; // ops deferred until a lock grant
};

// The oldest incomplete request on the rank -- the first thing to look at in
// a hang report.
struct PendingReqSnap {
  bool valid = false;
  const char* kind = "none";  // send_eager/send_rdv/recv/recv_rdv
  Comm comm = kCommNull;
  Rank peer = kProcNull;      // sends: destination world rank; recvs: posted source
  Tag tag = 0;
  std::uint64_t bytes = 0;
  std::uint64_t age_ns = 0;
};

// rdma-backend credit and registration-cache state. `valid` is false on
// backends without the mechanism (mailbox), and the renderers skip the block,
// so snapshots stay backend-agnostic.
struct RdmaLaneSnap {
  int vci = 0;
  std::uint64_t credits_free = 0;   // unconsumed eager-ring slots
  std::uint64_t ring_depth = 0;     // configured ring capacity
  std::uint64_t occupancy_hwm = 0;  // lifetime occupancy high-water mark
};

struct RdmaSnapshot {
  bool valid = false;
  std::vector<RdmaLaneSnap> lanes;
  std::uint64_t reg_cache_size = 0;  // current LRU entries
  std::uint64_t reg_hits = 0;
  std::uint64_t reg_misses = 0;
  std::uint64_t reg_evictions = 0;
  std::uint64_t ring_stalls = 0;    // injections that waited for a credit
  std::uint64_t ring_stall_ns = 0;  // total ns spent in those waits
};

// Everything Engine::snapshot() captures for one rank.
struct RankSnapshot {
  Rank rank = 0;
  std::size_t live_requests = 0;
  const char* blocking_call = nullptr;  // nullptr when not in a blocking MPI call
  std::uint64_t blocked_ns = 0;         // age of the blocking call (0 if none)
  std::string phase;                    // profiler's current phase ("" = prof off)
  PendingReqSnap oldest;
  std::vector<VciSnapshot> vcis;
  std::vector<WinSnapshot> windows;
  RdmaSnapshot rdma;
};

// Human-readable multi-line dump ("rank 1: blocked in Wait for 1.20s ..."):
// render_json's object through obs::render_snapshot_text (obs/text.hpp).
std::string render_text(const RankSnapshot& s);

// JSON object (no trailing newline), same shape stats_report uses.
std::string render_json(const RankSnapshot& s);

}  // namespace lwmpi::obs
