// Opt-in message-lifecycle tracing: the third tier of the observability
// subsystem.
//
// When a World is built with BuildConfig::trace, the engine records one fixed-
// size event per lifecycle step of each message -- post, match, inject,
// deliver, complete -- keyed by a sequence id carried in the packet header so
// the origin- and target-side halves of one message chain back together.
// Recording is a store into a per-thread lock-free SPSC ring (producer = the
// recording thread, consumer = the exporter); a full ring overwrites its
// oldest events rather than blocking or allocating, so tracing never perturbs
// the progress engine it is observing.
//
// export_chrome_json() renders collected events as a Chrome about:tracing /
// Perfetto-loadable timeline: one instant event per lifecycle step (pid =
// rank, tid = vci) plus an async begin/end pair per message id spanning
// post -> complete across ranks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

namespace lwmpi::obs::trace {

enum class Ev : std::uint8_t {
  SendPost = 0,  // origin: send issued (eager buffered or RTS built)
  RecvPost,      // target: receive posted to the matcher
  Match,         // target: message paired with a posted receive
  Inject,        // origin: packet handed to the fabric
  Deliver,       // target: packet surfaced by the fabric poll
  Complete,      // either side: request observable-complete
  ZcopyWrite,    // origin: one-sided rdma_write landed the rendezvous payload
  Alert,         // telemetry sampler: an SLO rule fired (obs/sampler.hpp);
                 // seq = 0 (not message-associated), tag = rule index,
                 // bytes = observed value, wait_ns = threshold
};

const char* to_string(Ev e) noexcept;
std::optional<Ev> ev_from_string(std::string_view s) noexcept;  // nullopt: unknown

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

// Fixed-capacity overwrite-oldest SPSC event ring. push() is wait-free for
// the single producing thread; collect()/clear() belong to one consumer and
// are only well-defined while the producer is quiescent (the exporters run
// after World::run joins its rank threads).
class Ring {
 public:
  explicit Ring(std::size_t min_capacity);

  void push(const Event& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & mask_] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }
  // Events recorded over the ring's lifetime, including overwritten ones.
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const noexcept {
    const std::uint64_t h = recorded();
    return h > capacity() ? h - capacity() : 0;
  }

  // Surviving events, oldest first.
  std::vector<Event> collect() const;
  void clear() noexcept { head_.store(0, std::memory_order_release); }

 private:
  const std::uint64_t mask_;
  std::vector<Event> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

// Default capacity of the lazily-created per-thread rings.
inline constexpr std::size_t kDefaultRingCapacity = 1 << 16;

// Record into this thread's ring (created and registered on first use).
// Callers gate on BuildConfig::trace; this function itself never blocks.
void record(const Event& e) noexcept;

// Exporter side: snapshot every registered ring (all threads, oldest-first
// within a thread), total overwritten-event count, and global reset. Only
// well-defined while recording threads are quiescent.
std::vector<Event> collect_all();
std::uint64_t dropped_all();
void reset_all();

// Allocate a fresh message sequence id, unique across ranks for the process.
std::uint64_t next_seq() noexcept;

// Write `events` as a Chrome about:tracing / Perfetto JSON document. Events
// are sorted by timestamp (ties broken by lifecycle order), timestamps are
// rebased to the earliest event, and each nonzero seq gets an async
// begin/end pair spanning its first and last event plus a flow-event chain
// (ph s/t/f) from each Inject to its Deliver, so cross-rank hops --
// RTS -> CTS -> RdvDone and the zcopy landing -- render as arrows across the
// per-rank (pid) tracks in Perfetto.
void export_chrome_json(std::ostream& os, std::span<const Event> events);

}  // namespace lwmpi::obs::trace
