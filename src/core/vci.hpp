// Virtual communication interface (VCI): one independent channel of the
// per-rank communication engine.
//
// The paper's central finding is that MPI overhead concentrates in shared
// fast-path state; MPICH's follow-on VCI work removes the sharing by giving
// each channel its own matching engine, send queue, and lock, selected per
// communicator. We mirror that design: an Engine owns BuildConfig::vcis()
// of these, communicators map to one at creation, and progress() sweeps them
// as a poll set. Traffic on different VCIs never touches the same mutex,
// match list, request pool, or fabric lane.
//
// Locking discipline:
//   * Every state field of a Vci (matcher, send_queue, and all request-slot
//     contents other than the completion flags) is guarded by `mu`.
//   * `mu` is recursive so the device path may be entered both from a gated
//     MPI entry point (lock already held) and from internal callers
//     (collectives, persistent starts) that lock on demand.
//   * progress() acquires via try_lock: a contended lane is being progressed
//     by its holder already, so skipping it is both safe and what makes the
//     sweep non-blocking.
//   * Request completion crosses threads without the lock: `complete` is an
//     atomic released by the progress side and acquired by wait/test.
//   * The per-message statistics (`sends_issued`, `busy_instr`, `contended`)
//     have one writer at a time: the thread holding `mu`, or the owner of an
//     all-opts channel, which takes no lock. They are bumped with a relaxed
//     load+store (obs::add_single_writer) instead of a locked
//     read-modify-write, and readers on other threads sum them across
//     channels. An all-opts sender racing another thread on the same channel
//     can lose a tick, as the counter blocks can; it never tears a value.
//   * The trace ring (`trace`) follows the same single-writer rule: events
//     are pushed by the thread holding `mu`, or by the owner of an all-opts
//     channel, so tracing needs no lock or atomic read-modify-write of its
//     own. An all-opts sender racing another thread on its channel can
//     clobber a trace event the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/stable_table.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "match/match.hpp"
#include "obs/causal.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "runtime/packet.hpp"

namespace lwmpi {

namespace obs {
struct VciSnapshot;  // obs/introspect.hpp
}

// Request handle payload layout: [ vci:3 | slot:25 ] inside the 28 handle
// payload bits.
inline constexpr std::uint32_t kRequestVciShift = 25;
inline constexpr std::uint32_t kRequestIdxMask = (1u << kRequestVciShift) - 1;

inline constexpr Request make_request_handle(std::uint32_t vci, std::uint32_t idx) {
  return make_handle(HandleKind::Request, (vci << kRequestVciShift) | idx);
}
inline constexpr std::uint32_t request_vci(Request r) {
  return handle_payload(r) >> kRequestVciShift;
}
inline constexpr std::uint32_t request_idx(Request r) {
  return handle_payload(r) & kRequestIdxMask;
}

// Per-operation request state. Lives in a VCI's pool; storage is stable (the
// pool never moves slots), so pointers remain valid across pool growth.
struct RequestSlot {
  enum class Kind : std::uint8_t {
    None,
    SendEager,
    SendRdv,
    Recv,
    PersistentSend,
    PersistentRecv,
  };
  // Written once, by alloc_request before `active` is published, so wait and
  // test read it without the channel lock.
  Kind kind = Kind::None;
  // Cross-thread lifecycle flags. `active` publishes allocation (release) and
  // gates handle lookups (acquire); `complete` publishes the status fields
  // written by the progress side to the waiting side.
  std::atomic<bool> active{false};
  std::atomic<bool> complete{false};
  Err op_error = Err::Success;
  Status status;
  // send state (rendezvous)
  const void* sbuf = nullptr;
  int scount = 0;
  Datatype sdt = kDatatypeNull;
  Rank dst_world = 0;
  Comm comm = kCommNull;  // for _NOREQ accounting on rdv completion
  bool noreq = false;
  // recv state
  void* rbuf = nullptr;
  int rcount = 0;
  Datatype rdt = kDatatypeNull;
  std::uint64_t bytes_expected = 0;
  std::uint64_t bytes_received = 0;
  std::vector<std::byte> stage;  // rendezvous staging for noncontiguous recv
  bool stage_used = false;
  // A Recv matched to a rendezvous RTS (start_rendezvous_recv). Written and
  // read only under the channel lock.
  bool rdv_recv = false;
  // persistent-request state: bound arguments + the in-flight inner request
  Rank bound_peer = kProcNull;
  Tag bound_tag = 0;
  Request inner = kRequestNull;
  // obs::lat_now_ns() at issue/post time (0 when stamping is off): the start
  // edge for the message-lifetime histograms and the age source for the
  // introspection/watchdog tier.
  std::uint64_t post_ts = 0;

  // Reset a recycled slot to its freshly-constructed state (the atomics are
  // managed by alloc/release, not here).
  void reset() {
    kind = Kind::None;
    complete.store(false, std::memory_order_relaxed);
    op_error = Err::Success;
    status = Status{};
    sbuf = nullptr;
    scount = 0;
    sdt = kDatatypeNull;
    dst_world = 0;
    comm = kCommNull;
    noreq = false;
    rbuf = nullptr;
    rcount = 0;
    rdt = kDatatypeNull;
    bytes_expected = 0;
    bytes_received = 0;
    stage.clear();
    stage_used = false;
    rdv_recv = false;
    bound_peer = kProcNull;
    bound_tag = 0;
    inner = kRequestNull;
    post_ts = 0;
  }
};

// Orig-device software send queue entry.
struct QueuedSend {
  rt::Packet* pkt = nullptr;
  Rank dst_world = 0;
  std::uint64_t enq_ts = 0;  // obs::lat_now_ns() at enqueue (0 = unstamped)
};

// Per-VCI request pool: stable slot storage plus a spinlocked free list. The
// spinlock (not the VCI mutex) guards the free list so wait/test can release
// a completed request without serializing against the channel.
struct RequestPool {
  common::StableTable<RequestSlot> slots;
  std::vector<std::uint32_t> free_list;
  std::atomic_flag free_lock = ATOMIC_FLAG_INIT;

  void lock() noexcept {
    while (free_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() noexcept { free_lock.clear(std::memory_order_release); }

  // Slots allocated and not yet released. A slot joins the free list only
  // after emplace() has counted it, so the difference never underflows.
  std::size_t live() noexcept {
    lock();
    const std::size_t n = slots.size() - free_list.size();
    unlock();
    return n;
  }
};

struct Vci {
  // `trace_capacity` is 0 in an untraced world: the ring then holds nothing.
  explicit Vci(std::size_t trace_capacity) : trace(trace_capacity) {}

  // Guards matcher, send_queue, and request-slot bodies on this channel.
  mutable std::recursive_mutex mu;
  match::MatchEngine matcher;
  std::deque<QueuedSend> send_queue;  // orig device
  // Lock-free mirror of send_queue.size(): lets the progress sweep skip an
  // idle channel (no queued sends, no pending fabric traffic) without taking
  // `mu`. Written under the lock, read without it; a stale read only delays
  // the drain by one sweep.
  std::atomic<std::uint32_t> send_q_depth{0};
  RequestPool pool;
  // Simulated-clock accounting: modeled instructions executed on this channel
  // (software path lengths + contention penalties). The VCI scaling benchmark
  // derives its aggregate message rate from the busiest lane's total, the
  // same way the paper converts Table-1 instruction counts into rates.
  std::atomic<std::uint64_t> busy_instr{0};
  // Sends issued on this channel; Engine::sends_issued() sums the channels.
  std::atomic<std::uint64_t> sends_issued{0};
  // Diagnostics: how often the gate missed its uncontended fast path.
  std::atomic<std::uint64_t> contended{0};
  // Always-on observability counters for this channel, exposed through the
  // MPI_T-style pvar registry (obs/pvar.hpp). The block is cache-line padded
  // so two channels' counters never false-share.
  obs::VciCounters counters;
  // Message-lifetime latency histograms for this channel, one per
  // instrumented path (obs/histogram.hpp). Recorded under `mu` (single
  // writer); merged across channels by the pvar/report readers.
  obs::VciLatency lat;
  // Wait-state histograms for this channel, one log2 histogram per causal
  // classification (obs/causal.hpp). Same writer discipline as `lat`.
  obs::WaitBlock waits;

  // Lifecycle-trace events recorded on this channel (obs/trace.hpp); same
  // writer discipline as `lat`. Last, because only traced worlds touch it.
  obs::Ring<obs::trace::Event> trace;

  // Introspection hook (obs/introspect.cpp): copy this channel's posted,
  // unexpected, and send-queue contents into `out`, with entry ages relative
  // to `now` (an obs::lat_now_ns() value). Caller must hold `mu`.
  void snapshot_into(obs::VciSnapshot& out, std::uint64_t now) const;
};

// Per-operation thread gate, scoped to one VCI. Replaces the engine-global
// recursive mutex: operations on different VCIs proceed concurrently. The
// base charge (kThreadGatePt2pt / kThreadGateRma) models the uncontended
// runtime thread-safety check and is paid whenever thread_safety is built in,
// exactly as before; the *contended* surcharge is paid only when try_lock
// misses, so the cost meter charges the slow acquisition only on contended
// VCIs. The channel statistics record the surcharge once the lock is held,
// which keeps them single-writer.
class VciGate {
 public:
  VciGate(Vci* v, bool enabled, std::uint32_t charge) : v_(v), on_(enabled) {
    if (!on_) return;
    cost::charge(cost::Category::ThreadGate, charge);
    if (v_ == nullptr) return;  // invalid handle: checks below will reject
    if (!v_->mu.try_lock()) {
      cost::charge(cost::Category::ThreadGate, cost::kThreadGateContended);
      v_->mu.lock();
      obs::add_single_writer(v_->contended, 1);
      v_->counters.inc(obs::VciCtr::GateContended);
      obs::add_single_writer(v_->busy_instr, cost::kThreadGateContended);
    }
  }
  ~VciGate() {
    if (on_ && v_ != nullptr) v_->mu.unlock();
  }
  VciGate(const VciGate&) = delete;
  VciGate& operator=(const VciGate&) = delete;

 private:
  Vci* v_;
  bool on_;
};

}  // namespace lwmpi
