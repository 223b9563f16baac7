// Always-on runtime counters: the storage tier of the observability subsystem.
//
// Two cache-line-padded atomic counter blocks exist per rank: one per VCI
// (channel-scoped traffic statistics) and one per engine (whole-rank progress
// statistics). Fast-path updates are a predictable branch on a plain bool
// plus one relaxed fetch_add -- cheap enough to leave compiled in and enabled
// by default (BuildConfig::counters); bench_obs_overhead asserts the cost
// stays within 3% of a counters-off build on the 1-byte ping-pong path.
//
// The name/description/class metadata lives in obs/pvar.hpp, which exposes
// these counters through an MPI_T-style (MPI-3.1 section 14) tool interface.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace lwmpi::obs {

// Add `n` to a counter that has one writer at a time: a relaxed load+store, a
// third of the cost of a locked fetch_add. Readers on other threads see an
// untorn value. Every per-message statistic uses it: the blocks below, the
// per-channel send statistics (core/vci.hpp) and the blackhole drop counts
// (net/netmod.hpp).
inline void add_single_writer(std::atomic<std::uint64_t>& a, std::uint64_t n) noexcept {
  a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Channel-scoped counters, one block per VCI.
enum class VciCtr : std::uint8_t {
  SendEager = 0,     // eager-path sends issued
  SendRdv,           // rendezvous-path sends issued (RTS sent)
  SendNoreq,         // _NOREQ sends issued (counter-completed, no request)
  SendQueued,        // orig device: packets staged in the software send queue
  RecvPosted,        // receives posted to the matcher
  PostedDepth,       // current posted-receive queue depth (level)
  PostedHwm,         // posted-receive queue high-water mark
  UnexpectedDepth,   // current unexpected-queue depth (level)
  UnexpectedHwm,     // unexpected-queue high-water mark
  PostedMatch,       // arriving packets that matched a posted receive
  PostedMiss,        // arriving packets that went to the unexpected queue
  GateContended,     // VciGate acquisitions that missed the try_lock fast path
  RmaOp,             // RMA data operations issued on this channel
  RmaFlush,          // RMA flush/fence synchronizations on this channel
  kCount,
};
inline constexpr std::size_t kNumVciCtrs = static_cast<std::size_t>(VciCtr::kCount);

// Whole-rank counters, one block per engine.
enum class EngCtr : std::uint8_t {
  ProgressIdle = 0,  // progress() calls resolved by the lock-free idle path
  ProgressSwept,     // progress() calls that swept the VCI poll set
  kCount,
};
inline constexpr std::size_t kNumEngCtrs = static_cast<std::size_t>(EngCtr::kCount);

// A padded block of relaxed atomic counters. alignas(64) keeps two channels'
// blocks off each other's cache lines; within a block only the owning
// channel's operations write, so interior sharing is self-sharing.
//
// Updates are relaxed load+store pairs, not fetch_add: nearly every hook site
// runs under the owning channel's lock (or on the single progress thread), so
// there is one writer at a time and the store is exact -- at a third of the
// cost of a locked RMW, which is what keeps the hooks inside the 3% overhead
// budget bench_obs_overhead enforces. The few sites that tick without a lock
// (the progress idle fast path, the all-opts send path) may lose a tick
// under a concurrent writer; values are never torn and readers never race.
template <typename Enum, std::size_t N>
struct alignas(64) CounterBlock {
  std::array<std::atomic<std::uint64_t>, N> c{};
  // Set once at engine construction, read on every update. Not atomic: it is
  // written before the world's rank threads start and never changes after.
  bool enabled = true;

  void inc(Enum e, std::uint64_t n = 1) noexcept {
    if (enabled) add_single_writer(c[static_cast<std::size_t>(e)], n);
  }
  // Saturates at zero: a level counter whose inc lost a tick to the documented
  // lock-free race (see the block comment above) must not wrap a later dec to
  // ~2^64 -- a floor of 0 is the honest reading for "briefly miscounted".
  void dec(Enum e, std::uint64_t n = 1) noexcept {
    if (!enabled) return;
    auto& a = c[static_cast<std::size_t>(e)];
    const std::uint64_t cur = a.load(std::memory_order_relaxed);
    a.store(cur >= n ? cur - n : 0, std::memory_order_relaxed);
  }
  std::uint64_t get(Enum e) const noexcept {
    return c[static_cast<std::size_t>(e)].load(std::memory_order_relaxed);
  }
  // Raise a high-water counter to at least `depth`. Called under the owning
  // channel's lock (single writer), so load+store needs no CAS loop.
  void high_water(Enum e, std::uint64_t depth) noexcept {
    if (!enabled) return;
    auto& hwm = c[static_cast<std::size_t>(e)];
    if (depth > hwm.load(std::memory_order_relaxed)) {
      hwm.store(depth, std::memory_order_relaxed);
    }
  }
  void reset() noexcept {
    for (auto& a : c) a.store(0, std::memory_order_relaxed);
  }
};

using VciCounters = CounterBlock<VciCtr, kNumVciCtrs>;
using EngineCounters = CounterBlock<EngCtr, kNumEngCtrs>;

}  // namespace lwmpi::obs
