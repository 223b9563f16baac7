// Message-lifetime latency histograms: the distribution tier of the
// observability subsystem.
//
// Counters (obs/counters.hpp) say how many messages took each path; they say
// nothing about where a message spends its *time*. This header adds
// log2-bucketed latency histograms stamped at the protocol's lifecycle edges
// (post -> match -> complete) so the runtime can report p50/p99/max per
// (device, path) -- through the pvar registry, World::stats_report, and
// bench::JsonResult.
//
// Design constraints, in order:
//   1. The record path must fit inside the same 3% budget bench_obs_overhead
//      enforces for counters. A log2 bucket index is one bit-scan; the bucket
//      update is a relaxed load+store (single writer under the channel lock,
//      same discipline as CounterBlock); there is no count/sum pair on the
//      hot path -- totals are derived by summing buckets at read time.
//   2. Timestamps must be cheap. clock_gettime is ~20-25ns per call and the
//      instrumented paths take up to four stamps per message; on x86_64 we
//      read the TSC directly (~7ns) and convert with a factor calibrated once
//      per process against the steady clock. Other targets fall back to the
//      steady clock.
//   3. Readers never stop the writer. Buckets are atomics; a reader folds a
//      racy-but-untorn snapshot, which is exactly the MPI_T pvar contract.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"
#include "runtime/backoff.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace lwmpi::obs {

// Fast monotonic nanosecond clock for latency stamping. Absolute epoch is
// meaningless; only differences between two lat_now_ns() values are used.
// Never returns 0, so 0 can serve as the "no timestamp" sentinel in slots.
//
// The tsc->ns factor is calibrated once per process against the steady clock
// by spinning about 1 ms (thread-safe via the magic-static guard). World's
// constructor calls lat_calibrate() so the spin lands in setup, never inside
// the first timed message. The spin's length is published for the
// lat_calibration_ns pvar once it has run, so reading the pvar never spins
// (it reads 0 before calibration and on targets without a TSC).
inline std::atomic<std::uint64_t> lat_calibration_spin_ns{0};
#if defined(__x86_64__) || defined(_M_X64)
inline double lat_calibrate() noexcept {
  static const double kNsPerTick = [] {
    const std::uint64_t t0 = rt::now_ns();
    const std::uint64_t c0 = __rdtsc();
    while (rt::now_ns() - t0 < 1'000'000) {
    }
    const std::uint64_t t1 = rt::now_ns();
    const std::uint64_t c1 = __rdtsc();
    lat_calibration_spin_ns.store(t1 - t0, std::memory_order_relaxed);
    return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
  }();
  return kNsPerTick;
}
inline std::uint64_t lat_now_ns() noexcept {
  const auto ns = static_cast<std::uint64_t>(static_cast<double>(__rdtsc()) * lat_calibrate());
  return ns | 1;  // never 0
}
#else
inline double lat_calibrate() noexcept { return 1.0; }
inline std::uint64_t lat_now_ns() noexcept { return rt::now_ns() | 1; }
#endif

// Instrumented lifecycle paths. Send/Recv x Eager/Rdv measure the full
// request lifetime (post to completion); UnexpectedWait measures how long an
// eager/RTS packet sat on the unexpected queue before a matching receive was
// posted; SendQueueWait measures orig-device software send-queue residency.
enum class LatPath : std::uint8_t {
  SendEager = 0,
  SendRdv,
  RecvEager,
  RecvRdv,
  UnexpectedWait,
  SendQueueWait,
  kCount,
};
inline constexpr std::size_t kNumLatPaths = static_cast<std::size_t>(LatPath::kCount);

constexpr std::string_view to_string(LatPath p) noexcept {
  switch (p) {
    case LatPath::SendEager: return "send_eager";
    case LatPath::SendRdv: return "send_rdv";
    case LatPath::RecvEager: return "recv_eager";
    case LatPath::RecvRdv: return "recv_rdv";
    case LatPath::UnexpectedWait: return "unexpected_wait";
    case LatPath::SendQueueWait: return "send_queue_wait";
    default: return "?";
  }
}

// 48 log2 buckets cover [0, 2^47) ns -- about 39 hours, far beyond any
// message lifetime; larger values clamp into the top bucket.
inline constexpr int kLatBuckets = 48;

// One latency distribution. Bucket i counts samples whose nanosecond value
// has bit-width i, i.e. lies in [2^(i-1), 2^i - 1] (bucket 0/1 share the
// smallest values via the |1 below). Single writer under the owning channel's
// lock; readers fold racy-but-untorn relaxed loads.
struct LatencyHist {
  std::array<std::atomic<std::uint64_t>, kLatBuckets> bucket{};
  std::atomic<std::uint64_t> max_ns{0};

  static constexpr int bucket_of(std::uint64_t ns) noexcept {
    const int b = std::bit_width(ns | 1);
    return b < kLatBuckets ? b : kLatBuckets - 1;
  }

  void record(std::uint64_t ns) noexcept {
    auto& b = bucket[static_cast<std::size_t>(bucket_of(ns))];
    b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    if (ns > max_ns.load(std::memory_order_relaxed)) {
      max_ns.store(ns, std::memory_order_relaxed);
    }
  }
};

// Reader-side fold of one or more LatencyHists (e.g. the same path across
// every VCI of an engine). Plain integers: built on demand, never shared.
struct LatSnapshot {
  std::array<std::uint64_t, kLatBuckets> bucket{};
  std::uint64_t max_ns = 0;
  std::uint64_t count = 0;

  void merge(const LatencyHist& h) noexcept {
    for (int i = 0; i < kLatBuckets; ++i) {
      const std::uint64_t n = h.bucket[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
      bucket[static_cast<std::size_t>(i)] += n;
      count += n;
    }
    const std::uint64_t m = h.max_ns.load(std::memory_order_relaxed);
    if (m > max_ns) max_ns = m;
  }

  // Percentile as the *upper bound* of the bucket holding the q-quantile
  // sample, clamped by the observed max -- a conservative estimate whose
  // error is bounded by the log2 bucket width. Returns 0 on an empty
  // distribution.
  std::uint64_t percentile(double q) const noexcept {
    if (count == 0) return 0;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (target < 1) target = 1;
    if (target > count) target = count;
    std::uint64_t cum = 0;
    for (int i = 0; i < kLatBuckets; ++i) {
      cum += bucket[static_cast<std::size_t>(i)];
      if (cum >= target) {
        const std::uint64_t upper =
            i >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
        return upper < max_ns ? upper : max_ns;
      }
    }
    return max_ns;
  }
};

// Per-VCI latency block: one histogram per instrumented path. `enabled`
// follows BuildConfig::counters and `sample_mask` follows
// BuildConfig::lat_sample_shift; both, and the per-peer ordinal arrays, are
// set once at engine construction before the world's rank threads start
// (same contract as CounterBlock::enabled).
//
// The arm_*() calls are the sampling gate, called once per message at its
// post site: they decide whether this message gets TSC-stamped at all.
// Un-sampled messages carry a 0 timestamp and every downstream record site
// already skips those, so the per-message cost in the common case is one
// branch and one ordinal bump -- the stamps themselves (~20ns each where the
// TSC is virtualized) are only paid by 1 in 2^lat_sample_shift messages.
//
// Sampling is per (channel, peer) stream: a send counts in `sends_to[dst]`,
// an explicit-source receive in `posts_from[src]` (both world ranks). A
// stream whose receives are posted in send order is therefore sampled at the
// same messages on both ends, so a sampled receive meets a send-stamped
// packet and the wait-state tier can classify it. Wildcard-source posts, the
// orig send-queue stamp and any rank outside the world use the channel tick.
struct alignas(64) VciLatency {
  std::array<LatencyHist, kNumLatPaths> hist{};
  bool enabled = true;
  std::uint32_t sample_mask = 63;  // stamp 1 in (mask + 1) messages
  std::uint32_t sample_tick = 0;   // channel tick; single writer under the lock
  // Per-peer stream ordinals, indexed by world rank, in storage the Engine
  // allocates once. One writer (the channel-lock holder, or the owner of an
  // all-opts channel), bumped with a relaxed load+store; nobody else reads.
  std::uint32_t peers = 0;
  std::atomic<std::uint32_t>* sends_to = nullptr;
  std::atomic<std::uint32_t>* posts_from = nullptr;

  bool arm() noexcept {
    if (!enabled) return false;
    return (sample_tick++ & sample_mask) == 0;
  }
  bool arm_send(Rank dst_world) noexcept { return arm_stream(sends_to, dst_world); }
  bool arm_post(Rank src_world) noexcept { return arm_stream(posts_from, src_world); }

  void record(LatPath p, std::uint64_t ns) noexcept {
    if (!enabled) return;
    hist[static_cast<std::size_t>(p)].record(ns);
  }
  const LatencyHist& of(LatPath p) const noexcept {
    return hist[static_cast<std::size_t>(p)];
  }

 private:
  bool arm_stream(std::atomic<std::uint32_t>* ord, Rank peer) noexcept {
    if (!enabled) return false;
    if (static_cast<std::uint32_t>(peer) >= peers) return arm();
    std::atomic<std::uint32_t>& o = ord[peer];
    const std::uint32_t n = o.load(std::memory_order_relaxed);
    o.store(n + 1, std::memory_order_relaxed);
    return (n & sample_mask) == 0;
  }
};

}  // namespace lwmpi::obs
