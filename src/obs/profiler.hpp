// Aggregate profiler: phase regions, per-callsite statistics, and the
// rank x rank communication matrix (observability tier 3f).
//
// The pvar counters (obs/counters.hpp) and the cost meter (cost/meter.hpp)
// answer *how much* the stack spends; this tier answers *where*: which MPI
// call sites, which application phases, and which rank pairs consume the
// budget -- the question every fig7/fig8-style application study starts with.
// The design follows mpiP's aggregate model rather than a trace: fixed-size
// accumulators keyed by (phase, callsite, vci) on the call side and
// (src, dst, message class) on the wire side, merged into one report at
// World teardown.
//
//   * Phase regions are MPI_Pcontrol-style: World::phase_push/pop (all ranks)
//     or Engine::phase_push/pop (one rank) bracket application phases; every
//     statistic below is bucketed under the innermost open phase. Phase 0,
//     "main", is conceptually always at the bottom of the stack, so a pop on an
//     empty stack cannot crash -- it counts a warning and stays on phase 0.
//   * Per-callsite statistics: the obs::SurfaceScope (obs/recorder.hpp) that
//     each top-level MPI entry point opens accumulates count, bytes, elapsed
//     wall time, and -- when a cost::Meter is armed -- the Table-1
//     instruction-group deltas of the call. Nested entries (send -> isend +
//     wait, testall -> waitall, ...) are handled by its outermost-wins
//     thread-local depth guard, so one user call is counted exactly once.
//     Counts and bytes are exact on every call; the *timed* fields
//     (time_ns, instr) are sampled: a TSC stamp costs ~15-25ns where the TSC
//     is virtualized, which would dwarf the hook itself on a hot cell. A
//     cell's first 2^kProfSampleShift calls are each stamped, so a cell with
//     fewer calls reports exact totals; after that 1 in 2^kProfSampleShift is,
//     and its elapsed/instr deltas are weighted by the 2^kProfSampleShift
//     calls it stands for -- an unbiased estimate whose error the <2%
//     overhead gate (bench_obs_overhead) trades for staying invisible on a
//     sub-microsecond call path.
//   * The communication matrix is stamped in the net::Fabric facade at the
//     injection boundary, exactly like the causal header, so both netmods are
//     covered without transport changes. Packet traffic splits into eager /
//     rendezvous / control classes by PacketKind; zero-copy rdma_write bytes
//     are a fourth class stamped separately (they never transit a packet).
//     Because the facade stamps where the backends count injected_bytes, the
//     invariant  sum(matrix packet bytes) == sum(fabric injected_bytes)
//     holds exactly on every backend (blackhole worlds drop at this boundary
//     and are not stamped, mirroring the backends' own byte counters).
//
// Writer discipline: cells use the CounterBlock convention -- relaxed
// load+store from the owning rank's thread (SurfaceScope sits outside the VCI
// gate, so two user threads hammering one engine can lose increments, never
// corrupt). Matrix cells are exact although every rank injects concurrently:
// each (thread, src) pair writes its own row with relaxed load+store
// (CommMatrix below), and exactness is what the invariant test checks.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "cost/meter.hpp"
#include "obs/histogram.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::obs {

// One id per instrumented top-level MPI entry point. The aggregate model
// keys on the *operation*, not the program counter: the reproduction's
// "applications" are in-tree SPMD functors, so the op id is the stable,
// meaningful callsite identity (mpiP would add stack depth here).
enum class Callsite : std::uint8_t {
  Isend = 0,
  Irecv,
  Send,
  Recv,
  Sendrecv,
  Wait,
  Test,
  Waitall,
  Waitany,
  Testany,
  Testall,
  Iprobe,
  Probe,
  Cancel,
  // Section-3 proposed extensions
  IsendGlobal,
  IsendNpn,
  IsendNoreq,
  CommWaitall,
  IsendNomatch,
  IrecvNomatch,
  IsendAllOpts,
  // persistent requests
  SendInit,
  RecvInit,
  Start,
  Startall,
  // collectives
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Allgather,
  Scatter,
  Alltoall,
  Scan,
  Gatherv,
  Allgatherv,
  Scatterv,
  ReduceScatterBlock,
  // one-sided
  Put,
  Get,
  Accumulate,
  GetAccumulate,
  PutVa,
  WinFence,
  WinLock,
  WinUnlock,
  WinFlush,
  WinPost,
  WinStart,
  WinComplete,
  WinWait,
  kCount,
};
inline constexpr std::size_t kNumCallsites = static_cast<std::size_t>(Callsite::kCount);

std::string_view to_string(Callsite s) noexcept;

// Wire-side traffic classes for the communication matrix.
enum class MsgClass : std::uint8_t {
  Eager = 0,  // pt2pt/AM eager payload packets
  Rdv,        // rendezvous control + staged data (Rts/Cts/RdvData/RdvDone)
  Ctrl,       // RMA active messages, sync messages, runtime barriers
  Zcopy,      // zero-copy rdma_write bytes (no packet; stamped separately)
  kCount,
};
inline constexpr std::size_t kNumMsgClasses = static_cast<std::size_t>(MsgClass::kCount);

std::string_view to_string(MsgClass c) noexcept;

constexpr MsgClass msg_class_of(rt::PacketKind k) noexcept {
  switch (k) {
    case rt::PacketKind::Eager: return MsgClass::Eager;
    case rt::PacketKind::Rts:
    case rt::PacketKind::Cts:
    case rt::PacketKind::RdvData:
    case rt::PacketKind::RdvDone: return MsgClass::Rdv;
    default: return MsgClass::Ctrl;
  }
}

// Phase table bounds. 32 named phases is generous for an aggregate profile
// (mpiP defaults to far fewer); overflowing names fall back to phase 0 so the
// hot path never allocates unboundedly.
inline constexpr int kMaxPhases = 32;
inline constexpr int kMaxPhaseDepth = 16;

// Time-sampling gate: a cell's first 2^kProfSampleShift outermost calls, then
// 1 in 2^kProfSampleShift (the cell's own count is the sampling clock -- no
// extra TLS state), pay the two TSC stamps (and the meter snapshot when
// armed). Each stamp's elapsed and instruction deltas are weighted by the
// number of calls it stands for -- 1 while every call is stamped, then
// 2^kProfSampleShift -- so accumulated totals stay unbiased. Counts and bytes
// are never sampled.
inline constexpr int kProfSampleShift = 10;

// One (phase, callsite, vci) accumulator. Relaxed load+store (see header
// comment); readers tolerate torn *sets* of fields, never torn values.
struct CallCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> time_ns{0};
  // Table-1 instruction groups metered across the call (0 when no meter was
  // armed on the calling thread).
  std::array<std::atomic<std::uint64_t>, cost::kNumGroups> instr{};

  void add(std::uint64_t b, std::uint64_t ns) noexcept {
    bump(b);
    time_ns.store(time_ns.load(std::memory_order_relaxed) + ns, std::memory_order_relaxed);
  }
  // Un-stamped calls record count and bytes only; no wasted +0 on time_ns.
  void bump(std::uint64_t b) noexcept {
    count.store(count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    bytes.store(bytes.load(std::memory_order_relaxed) + b, std::memory_order_relaxed);
  }
};

// The rank x rank communication matrix: (src, dst, class) -> {count, bytes}.
//
// Stamped on the fabric inject path, so the write side must be near-free: a
// fetch_add pair per packet costs ~10ns on this class of machine, which alone
// busts the <2% profiler-overhead gate. Instead each (thread, src) pair gets
// a private row of (dst x class) cells -- stamps from different threads never
// share a cell, so plain relaxed load+store suffices and totals stay exact.
// Readers (report/artifact/pvars; all cold paths) sum the per-thread rows
// under the registry mutex.
class CommMatrix {
 public:
  explicit CommMatrix(int nranks);

  void stamp(Rank src, Rank dst, MsgClass cls, std::uint64_t bytes) noexcept {
    if (src < 0 || src >= n_ || dst < 0 || dst >= n_) return;
    Cell* row = tl_row(src);
    Cell& c = row[static_cast<std::size_t>(dst) * kNumMsgClasses +
                  static_cast<std::size_t>(cls)];
    c.count.store(c.count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    c.bytes.store(c.bytes.load(std::memory_order_relaxed) + bytes,
                  std::memory_order_relaxed);
  }

  int nranks() const noexcept { return n_; }
  std::uint64_t count(Rank src, Rank dst, MsgClass cls) const noexcept;
  std::uint64_t bytes(Rank src, Rank dst, MsgClass cls) const noexcept;
  // Sums over one endpoint, all classes except Zcopy unless included.
  std::uint64_t tx_bytes(Rank src, bool include_zcopy = false) const noexcept;
  std::uint64_t rx_bytes(Rank dst, bool include_zcopy = false) const noexcept;
  std::uint64_t tx_msgs(Rank src) const noexcept;  // packet classes only
  std::uint64_t rx_msgs(Rank dst) const noexcept;
  // Total packet-class bytes over the whole matrix (the fabric invariant LHS).
  std::uint64_t total_packet_bytes() const noexcept;
  std::uint64_t total_zcopy_bytes() const noexcept;

 private:
  struct Cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  struct RowEntry {
    std::thread::id tid;
    Rank src = -1;
    std::unique_ptr<Cell[]> row;  // n_ * kNumMsgClasses cells
  };
  // One-entry TLS cache over the (thread, src) -> row registry. Keyed by the
  // matrix instance id so a stale cache from a previous (destroyed) matrix
  // can never alias into this one.
  struct RowCache {
    std::uint64_t id = 0;
    Rank src = -1;
    Cell* row = nullptr;
  };
  Cell* tl_row(Rank src) noexcept {
    thread_local RowCache rc;
    if (rc.id != id_ || rc.src != src) [[unlikely]] return lookup_row(rc, src);
    return rc.row;
  }
  // Cold path: find or allocate this thread's row for `src` (registry mutex).
  Cell* lookup_row(RowCache& rc, Rank src) noexcept;
  // Sum of `f(cell)` over every row with matching src (all rows when src < 0)
  // at (dst, cls); dst < 0 or cls < 0 sum over that axis too.
  std::uint64_t sum(Rank src, Rank dst, int cls, bool counts) const noexcept;

  const int n_;
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<RowEntry> rows_;
};

class Profiler;

// Per-rank profile state: the phase stack plus lazily-allocated per-phase
// (callsite x vci) accumulator slabs (~tens of KB per *used* phase, nothing
// for phases a rank never enters).
class RankProf {
 public:
  RankProf(Profiler& owner, int nvcis);
  ~RankProf();
  RankProf(const RankProf&) = delete;
  RankProf& operator=(const RankProf&) = delete;

  Profiler& owner() noexcept { return owner_; }

  // --- phase regions ---------------------------------------------------------
  void phase_push(std::string_view name);
  void phase_push(int phase_id) noexcept;
  // Pop on an empty stack is a misuse, not a crash: stays on phase 0 and
  // bumps the warning counter (surfaced as the prof_pop_warnings pvar).
  void phase_pop() noexcept;
  int cur_phase() const noexcept { return cur_phase_.load(std::memory_order_relaxed); }
  int phase_depth() const noexcept { return depth_.load(std::memory_order_relaxed); }
  std::uint64_t pop_warnings() const noexcept {
    return pop_warnings_.load(std::memory_order_relaxed);
  }

  // --- accumulation (SurfaceScope) ------------------------------------------
  // The cell for (phase, site, vci); allocates the phase slab on first touch.
  // Inlined so the slab-hit path is a clamp, one acquire load, and an index.
  CallCell& cell(int phase, Callsite site, int vci) noexcept {
    if (phase < 0 || phase >= kMaxPhases) phase = 0;
    if (vci < 0 || vci >= nvcis_) vci = 0;
    CallCell* slab = slabs_[static_cast<std::size_t>(phase)].load(std::memory_order_acquire);
    if (slab == nullptr) [[unlikely]] slab = alloc_slab(phase);
    return slab[static_cast<std::size_t>(site) * static_cast<std::size_t>(nvcis_) +
                static_cast<std::size_t>(vci)];
  }
  // The cell for (current phase, site, vci). The constructor and every phase
  // transition pre-allocate the active phase's slab and publish it in
  // cur_slab_, so this is one load and an index -- no phase lookup, no
  // bounds clamp, no allocation branch (the SurfaceScope hot path).
  CallCell& cur_cell(Callsite site, int vci) noexcept {
    if (vci < 0 || vci >= nvcis_) [[unlikely]] vci = 0;
    return cur_slab_.load(std::memory_order_acquire)
        [static_cast<std::size_t>(site) * static_cast<std::size_t>(nvcis_) +
         static_cast<std::size_t>(vci)];
  }

  // --- read side -------------------------------------------------------------
  // Null when the rank never recorded under `phase`.
  const CallCell* peek(int phase, Callsite site, int vci) const noexcept;
  std::uint64_t site_count(int phase, Callsite site) const noexcept;  // summed over vcis
  std::uint64_t site_bytes(int phase, Callsite site) const noexcept;
  std::uint64_t phase_time_ns(int phase) const noexcept;  // summed over sites/vcis
  int nvcis() const noexcept { return nvcis_; }

 private:
  using Slab = CallCell[];

  // Cold path of cell(): race-safe first-touch slab publication.
  CallCell* alloc_slab(int phase) noexcept;
  // Ensure `phase`'s slab exists and point cur_slab_ at it (phase changes).
  void publish_cur_slab(int phase) noexcept;

  Profiler& owner_;
  const int nvcis_;
  // Lazily-published per-phase slabs of kNumCallsites * nvcis_ cells.
  std::array<std::atomic<CallCell*>, kMaxPhases> slabs_{};
  // Slab of the phase currently on top of the stack; never null (phase 0's
  // slab is allocated in the constructor, transitions pre-allocate theirs).
  std::atomic<CallCell*> cur_slab_{nullptr};
  // Phase stack: pushes/pops are rare (phase boundaries), so a mutex is fine;
  // the hot path only reads cur_phase_.
  mutable std::mutex stack_mu_;
  std::vector<int> stack_;
  std::atomic<int> cur_phase_{0};
  std::atomic<int> depth_{0};
  std::atomic<std::uint64_t> pop_warnings_{0};
};

// The per-World aggregate profiler: owns one RankProf per rank, the shared
// communication matrix, and the phase-name intern table.
class Profiler {
 public:
  Profiler(int nranks, int nvcis);

  int nranks() const noexcept { return nranks_; }
  int nvcis() const noexcept { return nvcis_; }
  RankProf& rank(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }
  const RankProf& rank(int r) const { return *ranks_.at(static_cast<std::size_t>(r)); }
  CommMatrix& matrix() noexcept { return matrix_; }
  const CommMatrix& matrix() const noexcept { return matrix_; }

  // Phase-name interning: stable small ids, shared across ranks so the merged
  // report lines up. Returns 0 (the default phase) once kMaxPhases names
  // exist; the overflow count is reported so truncation is never silent.
  int intern_phase(std::string_view name);
  int num_phases() const;
  std::string phase_name(int id) const;
  std::uint64_t phase_overflows() const noexcept {
    return phase_overflows_.load(std::memory_order_relaxed);
  }

  // --- fabric hooks (net::Fabric facade) -------------------------------------
  void on_inject(Rank src, Rank dst, rt::PacketKind kind, std::size_t bytes) noexcept {
    matrix_.stamp(src, dst, msg_class_of(kind), bytes);
  }
  void on_rdma_write(Rank src, Rank dst, std::size_t bytes) noexcept {
    matrix_.stamp(src, dst, MsgClass::Zcopy, bytes);
  }

  // --- reporting -------------------------------------------------------------
  // The versioned profile artifact (read back by obs/profile_load.hpp, whose
  // renderer is its text form): {"lwmpi_profile":1, ranks:[...], matrix:[...]}.
  std::string artifact_json(std::string_view netmod) const;
  // Write artifact_json to `path` (World teardown; no-op on open failure).
  void write_artifact(const std::string& path, std::string_view netmod) const;

 private:
  const int nranks_;
  const int nvcis_;
  std::vector<std::unique_ptr<RankProf>> ranks_;
  CommMatrix matrix_;
  mutable std::mutex phase_mu_;
  std::vector<std::string> phases_;
  std::atomic<std::uint64_t> phase_overflows_{0};
};

// The stamped path of a profiled surface call (obs::SurfaceScope,
// obs/recorder.hpp), out of line because it is cold on a hot cell. The scope
// has already counted the call in `cell`, which held `count` calls before
// it; prof_arm takes the TSC stamp and, when a cost::Meter is armed on this
// thread, its baseline, and prof_finish adds the elapsed time and Table-1
// instruction-group deltas to that cell, weighted by the calls the stamp
// stands for (1 below 2^kProfSampleShift calls, 2^kProfSampleShift after).
// The armed state lives in a thread-local slot (only the outermost call on a
// thread is ever armed), so the scope carries nothing of it across the call.
void prof_arm(CallCell* cell, std::uint64_t count) noexcept;
void prof_finish() noexcept;

}  // namespace lwmpi::obs
