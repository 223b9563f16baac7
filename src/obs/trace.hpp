// Opt-in message-lifecycle tracing: the third tier of the observability
// subsystem.
//
// When a World is built with BuildConfig::trace, the engine records one fixed-
// size event per lifecycle step of each message -- post, match, inject,
// deliver, complete -- keyed by a sequence id (World::next_trace_seq) carried
// in the packet header so the origin- and target-side halves of one message
// chain back together. Events land in the obs::Ring of the channel whose lock
// the recording thread holds (core/vci.hpp). A full ring overwrites its
// oldest events rather than blocking or allocating, so tracing never perturbs
// the progress engine it is observing. World::trace_events() merges a World's
// rings.
//
// export_chrome_json() renders collected events as a Chrome about:tracing /
// Perfetto-loadable timeline: one instant event per lifecycle step (pid =
// rank, tid = vci) plus an async begin/end pair per message id spanning
// post -> complete across ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>

namespace lwmpi::obs::trace {

enum class Ev : std::uint8_t {
  SendPost = 0,  // origin: send issued (eager buffered or RTS built)
  RecvPost,      // target: receive posted to the matcher
  Match,         // target: message paired with a posted receive
  Inject,        // origin: packet handed to the fabric
  Deliver,       // target: packet surfaced by the fabric poll
  Complete,      // either side: request observable-complete
  ZcopyWrite,    // origin: one-sided rdma_write landed the rendezvous payload
};

const char* to_string(Ev e) noexcept;
std::optional<Ev> ev_from_string(std::string_view s) noexcept;  // nullopt: unknown

// Lifecycle stage, the tie-break for events with equal timestamps in both the
// Perfetto export and the causal merge: post precedes complete within one
// message.
constexpr int stage_order(Ev e) noexcept {
  switch (e) {
    case Ev::SendPost:
    case Ev::RecvPost: return 0;
    case Ev::Inject: return 1;
    case Ev::Deliver: return 2;
    case Ev::ZcopyWrite: return 2;
    case Ev::Match: return 3;
    case Ev::Complete: return 4;
  }
  return 5;
}

struct Event {
  std::uint64_t ts_ns = 0;   // rt::now_ns() at record time
  std::uint64_t seq = 0;     // message id; 0 = not message-associated
  std::uint64_t bytes = 0;   // payload size
  std::uint64_t lclock = 0;  // recording rank's Lamport clock (net::Fabric)
  std::uint64_t wait_ns = 0; // Match events: classified wait interval
  std::int32_t rank = -1;    // recording rank
  std::int32_t peer = -1;    // the other side (dst for sends, src for recvs)
  std::int32_t tag = 0;
  std::uint8_t vci = 0;
  std::uint8_t wait = 0;     // Match events: obs::Wait classification (causal.hpp)
  Ev kind = Ev::SendPost;
};

// Capacity of each channel's event ring.
inline constexpr std::size_t kRingCapacity = 1 << 16;

// Write `events` as a Chrome about:tracing / Perfetto JSON document. Events
// are sorted by timestamp (ties broken by lifecycle order), timestamps are
// rebased to the earliest event, and each nonzero seq gets an async
// begin/end pair spanning its first and last event plus a flow-event chain
// (ph s/t/f) from each Inject to its Deliver, so cross-rank hops --
// RTS -> CTS -> RdvDone and the zcopy landing -- render as arrows across the
// per-rank (pid) tracks in Perfetto.
void export_chrome_json(std::ostream& os, std::span<const Event> events);

}  // namespace lwmpi::obs::trace
