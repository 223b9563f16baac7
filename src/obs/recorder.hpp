// Flight recorder: a durable, DXT-style per-rank record of every surface
// call (observability tier 4).
//
// The trace tier (obs/trace.hpp) records *message lifecycle* events for the
// causal analyzer; this tier records the *application's own call stream* --
// one compact 16-byte record per MPI surface call, held in a per-rank
// overwrite-oldest obs::Ring and flushed to a per-rank binary `.lwtrace` file
// (plus one JSON provenance sidecar) at World teardown or when the watchdog
// fires (postmortem flight-recorder mode). The format is deliberately
// replayable: src/apps/replay.cpp re-issues the recorded ops through the
// normal public API, so the record carries exactly what the surface call
// needs to be reconstructed (kind, peer/root, tag/element-size, vci, packed
// bytes, request linkage) and nothing the replay can recompute.
//
// Cost discipline (the <2% bench_obs_overhead gate, like every other tier):
//   * The hot path is clock-free. A RecOp is a 16-byte store into an
//     L2-resident ring plus a release head bump; no TSC, no atomics beyond
//     the head. Timing (start ns, duration, inter-op compute gap) follows the
//     histogram tier's sampling discipline: 1 in 2^sample_shift ops (the ring
//     head is the sampling clock; op 0 is always sampled) pays two
//     obs::lat_now_ns() stamps and lands in a side "anchor" ring, merged into
//     the records at flush. Shift 0 stamps everything -- that is how the
//     shipped bench/traces bundles are recorded, where fidelity matters and
//     overhead does not.
//   * Outermost-wins: blocking wrappers and collectives re-enter the
//     instrumented surface (send -> isend_impl + wait_impl, testall ->
//     waitall, probe -> iprobe ...); the SurfaceScope at the end of this
//     file, which feeds the profiler too, keeps one thread-local depth guard
//     for both tiers, so one user call produces exactly one record.
//
// Writer discipline: one RankRec belongs to one rank, and under World::run
// exactly one thread issues that rank's calls, so ring/anchor writes are
// single-writer. The watchdog may read mid-run (ops().last()); it snapshots
// under the released head and tolerates a racing in-place overwrite exactly
// like the trace rings' mid-run collect -- a hung rank is not pushing.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/vci.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/ring.hpp"

namespace lwmpi {
class Engine;
}

namespace lwmpi::obs {

// Op kinds are obs::Callsite values (one per surface entry point) plus two
// auxiliary follower kinds the replay needs that are not callsites of their
// own: the recv half of a sendrecv, and the per-request items that follow a
// Waitall/Testall/Startall header record.
inline constexpr std::uint8_t kRecKindSendrecvRecv = 200;
inline constexpr std::uint8_t kRecKindWaitItem = 201;

std::string_view rec_kind_name(std::uint8_t kind) noexcept;

// One recorded surface call. 16 bytes, stored raw in the ring.
//   peer  -- pt2pt peer comm-rank (kProcNull/kAnySource pass through);
//            collective ROOT for rooted collectives, 0 otherwise.
//   tag   -- pt2pt tag; for collectives the builtin ELEMENT SIZE of the
//            datatype (0 for derived types -> replay falls back to bytes of
//            kChar), so replay reconstructs count = bytes / elem_size and
//            internal algorithm selection (element splits, Rabenseifner)
//            behaves identically.
//   bytes -- packed payload bytes of this rank's contribution (per-block for
//            alltoall, per-rank block for scatter/gather-style ops).
//   link  -- backward distance in ops from this record to the record that
//            issued the request this op completes/starts (wait -> isend,
//            start -> send_init, WaitItem -> isend/irecv). 0 = no link;
//            saturates at 0xFFFF when the issuer scrolled too far back.
struct RecOp {
  std::int32_t peer = 0;
  std::int32_t tag = 0;
  std::uint32_t bytes = 0;
  std::uint16_t link = 0;
  std::uint8_t vci = 0;
  std::uint8_t kind = 0;
};
static_assert(sizeof(RecOp) == 16);

// Sampled timing sidecar: op_index identifies the ring record the stamp
// belongs to. gap_ns is the compute gap since the previous *sampled* op
// ended -- the replay's pacing input. Anchors live in their own small
// overwrite-oldest ring so long flight-recorder runs stay bounded.
struct RecAnchor {
  std::uint64_t op_index = 0;
  std::uint64_t t0_ns = 0;
  std::uint32_t gap_ns = 0;
  std::uint32_t dur_ns = 0;
};

// The exactly-reproducible pvar totals a recording carries for fidelity
// checking, summed over a rank's VCIs (obs/counters.hpp + fabric counters).
// matches/misses individually depend on arrival timing; their SUM equals
// recvs_posted-wildcards and is the exact invariant replay asserts.
struct RecTotals {
  std::uint64_t sends_eager = 0;
  std::uint64_t sends_rdv = 0;
  std::uint64_t recvs_posted = 0;
  std::uint64_t matches = 0;
  std::uint64_t misses = 0;
  std::uint64_t injected = 0;
  std::uint64_t injected_bytes = 0;
};
inline constexpr std::size_t kNumRecTotals = 7;

// Read the fidelity totals for one rank from its live counters (pvar
// backing stores; requires a counters-enabled build for nonzero values).
RecTotals read_rec_totals(Engine& e);

// Per-rank recorder state: the op ring, the anchor ring, and the
// request-slot -> op-index link map.
class RankRec {
 public:
  // Both rings hold at least 64 entries, rounded up to powers of two.
  RankRec(std::size_t ring_depth, int sample_shift);

  // --- hot path (called via SurfaceScope) -----------------------------------
  // Everything here is inline and branch-light: the overhead gate budget is
  // single-digit nanoseconds per surface call.
  // Append one record; returns its op index. The record is packed into two
  // 64-bit words in registers so the ring write is two stores, not five
  // field-sized ones.
  [[gnu::always_inline]] inline std::uint64_t push(const RecOp& op) noexcept {
    const std::uint64_t lo = static_cast<std::uint32_t>(op.peer) |
                             (static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.tag))
                              << 32);
    const std::uint64_t hi = op.bytes | (static_cast<std::uint64_t>(op.link) << 32) |
                             (static_cast<std::uint64_t>(op.vci) << 48) |
                             (static_cast<std::uint64_t>(op.kind) << 56);
    const std::uint64_t words[2] = {lo, hi};
    return ops_.push(std::bit_cast<RecOp>(words));
  }
  // Append an anchor for `op_index` with timing [t0, now); updates the
  // last-end stamp the next gap is measured from. Out-of-line: runs for
  // 1 in 2^sample_shift ops only.
  void stamp(std::uint64_t op_index, std::uint64_t t0) noexcept;
  // Remember that request `req` was issued by op `op_index` (O(1): indexed by
  // the request handle's (slot, vci) bits; slot reuse overwrites naturally).
  // The table is flat -- one bounds check, one load level -- because the
  // bind/resolve pair sits on the latency-critical wait path.
  [[gnu::always_inline]] inline void bind(Request req, std::uint64_t op_index) noexcept {
    const std::uint32_t idx = link_slot(req);
    if (idx >= links_.size()) [[unlikely]] bind_grow(links_, idx);
    links_[idx] = op_index + 1;
  }
  // The op index that issued `req`, or ~0ull when unknown.
  [[gnu::always_inline]] inline std::uint64_t issuer_of(Request req) const noexcept {
    const std::uint32_t idx = link_slot(req);
    if (idx >= links_.size()) return ~0ull;
    const std::uint64_t v = links_[idx];
    return v == 0 ? ~0ull : v - 1;
  }
  // Backward-distance encoding for RecOp::link relative to the *next* op.
  std::uint16_t link_to(Request req) const noexcept {
    const std::uint64_t issuer = issuer_of(req);
    if (issuer == ~0ull) return 0;
    const std::uint64_t dist = ops_.recorded() - issuer;
    return dist > 0xFFFF ? 0xFFFF : static_cast<std::uint16_t>(dist);
  }

  bool sampled(std::uint64_t op_index) const noexcept {
    return (op_index & sample_mask_) == 0;
  }

  // --- read side -------------------------------------------------------------
  // The op ring's push index is the op index; anchors name theirs. Both are
  // read mid-run by the watchdog (tolerant-racy, see header comment) and at
  // flush.
  const Ring<RecOp>& ops() const noexcept { return ops_; }
  const Ring<RecAnchor>& anchors() const noexcept { return anchors_; }
  int sample_shift() const noexcept { return sample_shift_; }

  // Flush statistics (rec_* pvars).
  std::uint64_t flushed_bytes() const noexcept {
    return flushed_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t flush_ns() const noexcept {
    return flush_ns_.load(std::memory_order_relaxed);
  }
  void note_flush(std::uint64_t bytes, std::uint64_t ns) noexcept {
    flushed_bytes_.store(flushed_bytes() + bytes, std::memory_order_relaxed);
    flush_ns_.store(flush_ns() + ns, std::memory_order_relaxed);
  }

 private:
  // Cold-path growth for bind()'s link table (recorder.cpp).
  static void bind_grow(std::vector<std::uint64_t>& m, std::uint32_t slot);

  // Hot members first so one cache line serves the whole push/bind path:
  // push reads ops_ (slots, mask, head); the sampling gate reads
  // sample_mask_; bind/issuer_of start at links_.
  Ring<RecOp> ops_;
  std::uint64_t sample_mask_;
  // links_[(slot << 3) | vci] = op_index + 1 (0 = unbound). Request slots are
  // dense small integers per VCI and vci fits 3 bits (kMaxVcis == 8), so the
  // flat table stays compact; grows on demand.
  static std::uint32_t link_slot(Request req) noexcept {
    return (request_idx(req) << 3) | request_vci(req);
  }
  std::vector<std::uint64_t> links_;

  const int sample_shift_;
  Ring<RecAnchor> anchors_;
  std::uint64_t last_end_ns_ = 0;  // owning thread only
  std::atomic<std::uint64_t> flushed_bytes_{0};
  std::atomic<std::uint64_t> flush_ns_{0};
};

// --- on-disk format ----------------------------------------------------------
// `<prefix>.rank<r>.lwtrace`: one 128-byte header + nrecords x 32-byte
// DiskRec, little-endian host byte order (the replay runs on the recording
// machine's architecture; the JSON sidecar is the portable view).
inline constexpr std::uint32_t kLwtraceMagic = 0x5254574C;  // "LWTR"
inline constexpr std::uint32_t kLwtraceVersion = 1;

struct LwtraceHeader {
  std::uint32_t magic = kLwtraceMagic;
  std::uint32_t version = kLwtraceVersion;
  std::uint32_t rank = 0;
  std::uint32_t nranks = 0;
  std::uint32_t nvcis = 0;
  std::uint32_t sample_shift = 0;
  std::uint64_t eager_threshold = 0;
  std::uint64_t total_ops = 0;  // ops pushed; > nrecords when the ring wrapped
  std::uint64_t nrecords = 0;   // records that follow
  std::uint64_t base_ns = 0;    // t0 of the earliest surviving anchor (0 = none)
  std::uint64_t totals[kNumRecTotals] = {};  // RecTotals, field order
  std::uint8_t reserved[16] = {};
};
static_assert(sizeof(LwtraceHeader) == 128);

// One record on disk: the ring record plus its merged anchor timing (zeros
// when the op was not sampled).
struct DiskRec {
  std::uint64_t t0_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t gap_ns = 0;
  std::int32_t peer = 0;
  std::int32_t tag = 0;
  std::uint32_t bytes = 0;
  std::uint16_t link = 0;
  std::uint8_t vci = 0;
  std::uint8_t kind = 0;
};
static_assert(sizeof(DiskRec) == 32);

// The per-World recorder: owns one RankRec per rank and the flush path.
class Recorder {
 public:
  Recorder(int nranks, int nvcis, std::size_t ring_depth, int sample_shift);

  int nranks() const noexcept { return nranks_; }
  RankRec& rank(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }
  const RankRec& rank(int r) const { return *ranks_.at(static_cast<std::size_t>(r)); }

  // Recorded into every header so the replay can rebuild a World whose
  // eager/rendezvous split matches the recording.
  void set_eager_threshold(std::uint64_t t) noexcept { eager_threshold_ = t; }

  // Write `<prefix>.rank<r>.lwtrace` for every rank plus the `<prefix>.json`
  // sidecar. `totals` holds one RecTotals per rank (the fidelity ground
  // truth, also embedded in each binary header); `provenance_json` is a
  // ready-made JSON object fragment ({"netmod":...}) spliced into the
  // sidecar. Idempotent: a second flush rewrites the same files (the
  // watchdog may flush mid-run, teardown flushes again). Returns false if
  // any file failed to open.
  bool flush(const std::string& prefix, const std::vector<RecTotals>& totals,
             const std::string& provenance_json);

 private:
  const int nranks_;
  const int nvcis_;
  std::uint64_t eager_threshold_ = 0;
  std::vector<std::unique_ptr<RankRec>> ranks_;
};

// --- surface hook ------------------------------------------------------------

// The arguments of one surface call that the attached tiers need. The
// profiler keys its cell on (callsite, vci) and adds `bytes`; a record
// carries every field (RecOp; bytes saturate at 2^32-1). `link` is the
// request the call completes or starts, read at entry because completion
// nulls the handle.
struct Surface {
  int vci = 0;
  std::uint64_t bytes = 0;
  std::int32_t peer = 0;
  std::int32_t tag = 0;
  Request link = kRequestNull;
};

// SurfaceScope constructor tag: profile the call at entry and leave its
// records to the call site (record()/record_list()/aux()). For calls that are
// replayable only once they complete something (test, iprobe, waitany ...)
// and calls whose records differ from the profiled Surface (sendrecv's two
// halves, waitall's request list).
struct DeferRecord {};
inline constexpr DeferRecord kDeferRecord{};

// The hook every top-level MPI entry point opens once. It feeds the aggregate
// profiler's RankProf cells and this recorder's RankRec ring.
//
// Outermost-wins (see header comment): one thread-local depth counter,
// maintained only while a tier is attached, arbitrates for both tiers, so a
// nested scope neither counts nor records. Depth is a call-stack property,
// so thread_local is correct even with several user threads driving one
// engine.
//
// Cost: with neither tier attached the scope is one predictable branch and
// its Surface callable never runs -- no comm lookup, no datatype walk. A
// nested scope bumps the depth and skips the callable too. The outermost
// scope evaluates it once, then pays per attached tier, all at entry:
//   * profiler: one cell bump; counts and bytes are exact on every call. A
//     cell's first 2^kProfSampleShift calls, then 1 in 2^kProfSampleShift,
//     are armed for the out-of-line prof_arm/prof_finish TSC and cost-meter
//     path. The cell's own count is the sampling clock (the bump reads it
//     anyway).
//   * recorder: one 16-byte ring store; 1 in 2^sample_shift ops (the ring
//     head is the clock) is armed for a TSC stamp pair into the anchor ring.
// Armed calls park their stamps in thread-local slots, so across the call the
// scope holds only its state byte and the record's ring position, and the
// common exit is a depth decrement plus one test. The branch hints lay the
// attached outermost path out straight-line, because that is the path the
// overhead gates measure; the detached path stays one predictable branch at
// entry and one at exit. The ctors and dtor are force-inlined and keep the
// sampled work out of line: with it inline, gcc judges them too big to inline
// and emits real calls on every MPI call, which alone blows the <2% per-tier
// overhead budget (bench_obs_overhead).
class SurfaceScope {
 public:
  // Profile the call and push its record now. `args` is a callable returning
  // the call's Surface.
  template <class F>
  [[gnu::always_inline]] inline SurfaceScope(RankProf* p, RankRec* r, Callsite site,
                                             F&& args) noexcept {
    if (enter(p, r)) open(p, r, site, args(), /*record_now=*/true);
  }
  // Profile the call now; records come only from the call site (DeferRecord).
  template <class F>
  [[gnu::always_inline]] inline SurfaceScope(RankProf* p, RankRec* r, DeferRecord,
                                             Callsite site, F&& args) noexcept {
    if (enter(p, r)) open(p, r, site, args(), /*record_now=*/false);
  }

  [[gnu::always_inline]] inline ~SurfaceScope() {
    if (state_ == kIdle) [[unlikely]] return;
    --depth();
    if (state_ != kEntered) [[unlikely]] finish_sampled(state_);
  }
  SurfaceScope(const SurfaceScope&) = delete;
  SurfaceScope& operator=(const SurfaceScope&) = delete;

  // True when this is the outermost scope and a recorder is attached.
  bool recording() const noexcept { return rec_ != nullptr; }

  // Push the call's record and arm its sampling. Pushed at exit, the stamp
  // covers only the tail of the call, which is fine: exit-recorded ops
  // (test/iprobe hits) are sub-microsecond and their timing is informational.
  [[gnu::always_inline]] inline void record(Callsite site, const Surface& s) noexcept {
    if (rec_ == nullptr) return;
    op_index_ = push(rec_, static_cast<std::uint8_t>(site), s);
    if (rec_->sampled(op_index_)) [[unlikely]] {
      rec_arm(rec_, op_index_);
      state_ |= kRecArmed;
    }
  }
  // A call over a request list (waitall/testall/startall): a header carrying
  // the list length, then one WaitItem follower per live request, pushed
  // while the handles still resolve to their issuers.
  void record_list(Callsite site, std::span<const Request> reqs) noexcept {
    if (rec_ == nullptr) return;
    record(site, {0, reqs.size()});
    for (const Request r : reqs) {
      if (r != kRequestNull) aux(kRecKindWaitItem, {0, 0, 0, 0, r});
    }
  }
  // Follower record sharing this scope's suppression (sendrecv's recv half,
  // request-list items). Followers are never sampled separately; the header
  // op's anchor covers the whole call.
  void aux(std::uint8_t kind, const Surface& s) noexcept {
    if (rec_ != nullptr) push(rec_, kind, s);
  }
  // Associate the request this call produced (isend/irecv/*_init) with its
  // record: later waits resolve their `link` through it.
  [[gnu::always_inline]] inline void bind_req(const Request* req) noexcept {
    if (rec_ == nullptr || req == nullptr || handle_kind(*req) != HandleKind::Request) return;
    rec_->bind(*req, op_index_);
  }

 private:
  // state_ bits: a depth level is held, and which tiers armed a sampled stamp.
  enum : std::uint8_t { kIdle = 0, kEntered = 1, kProfArmed = 2, kRecArmed = 4 };

  static int& depth() noexcept {
    thread_local int d = 0;
    return d;
  }
  // Claims a depth level when any tier is attached; true for the outermost
  // scope.
  [[gnu::always_inline]] inline bool enter(RankProf* p, RankRec* r) noexcept {
    if (p == nullptr && r == nullptr) [[unlikely]] return false;
    state_ = kEntered;
    if (depth()++ != 0) [[unlikely]] return false;
    return true;
  }
  [[gnu::always_inline]] inline void open(RankProf* p, RankRec* r, Callsite site,
                                          const Surface& s, bool record_now) noexcept {
    if (p != nullptr) {
      // CallCell::bump, with the count loaded once for the sampling test too.
      CallCell& cell = p->cur_cell(site, s.vci);
      const std::uint64_t n = cell.count.load(std::memory_order_relaxed);
      constexpr std::uint64_t kMask = (std::uint64_t{1} << kProfSampleShift) - 1;
      if (n <= kMask || (n & kMask) == 0) [[unlikely]] {
        prof_arm(&cell, n);
        state_ |= kProfArmed;
      }
      cell.count.store(n + 1, std::memory_order_relaxed);
      cell.bytes.store(cell.bytes.load(std::memory_order_relaxed) + s.bytes,
                       std::memory_order_relaxed);
    }
    rec_ = r;
    if (record_now) record(site, s);
  }
  // Inline: most entry points link no request, so the link branch folds away
  // and the append is the 16-byte ring store plus the head bump.
  [[gnu::always_inline]] static inline std::uint64_t push(RankRec* r, std::uint8_t kind,
                                                          const Surface& s) noexcept {
    RecOp op;
    op.peer = s.peer;
    op.tag = s.tag;
    op.bytes = s.bytes > 0xFFFFFFFFu ? 0xFFFFFFFFu : static_cast<std::uint32_t>(s.bytes);
    op.vci = static_cast<std::uint8_t>(s.vci);
    op.kind = kind;
    if (handle_kind(s.link) == HandleKind::Request) op.link = r->link_to(s.link);
    return r->push(op);
  }
  // Cold sampled paths (recorder.cpp): rec_arm takes the record's start stamp
  // into a thread-local slot; finish_sampled completes whichever tiers armed.
  static void rec_arm(RankRec* r, std::uint64_t op_index) noexcept;
  static void finish_sampled(std::uint8_t state) noexcept;

  std::uint8_t state_ = kIdle;
  // Set only for the outermost scope with a recorder attached.
  RankRec* rec_ = nullptr;
  std::uint64_t op_index_ = 0;  // ring position of this call's record
};

}  // namespace lwmpi::obs
