// lwmpi::Engine -- the per-rank MPI-3.1-subset instance.
//
// One Engine exists per simulated MPI process (rank). The public methods are
// the MPI API surface; internally an engine owns its communicator table,
// datatype engine, window table, and a set of virtual communication
// interfaces (VCIs). Each VCI bundles an independent matching engine,
// request pool, orig-device send queue, fabric mailbox lane, and lock;
// communicators are mapped to a VCI at creation and all traffic they
// generate stays on that channel. progress() is a poll set over the VCIs.
//
// Two devices implement the data movement, selected per World:
//   * DeviceKind::Ch4  -- the paper's lightweight flow-through device,
//     including every Section-3 proposed extension (_GLOBAL, _VIRTUAL_ADDR,
//     predefined comm handles, _NPN, _NOREQ + COMM_WAITALL, _NOMATCH,
//     _ALL_OPTS).
//   * DeviceKind::Orig -- a CH3-style layered baseline: every operation
//     allocates a request and transits a software send queue, and RMA is
//     implemented as active messages deferred to synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "comm/rankmap.hpp"
#include "common/stable_table.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/vci.hpp"
#include "datatype/datatype.hpp"
#include "match/match.hpp"
#include "net/fabric.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "runtime/backoff.hpp"
#include "runtime/packet.hpp"

namespace lwmpi {

class World;

namespace obs {
struct RankSnapshot;  // obs/introspect.hpp
class BlockScope;     // below
class RankRec;        // obs/recorder.hpp
}

namespace rma {

// Shared (cross-rank) window state: the simulated registered-memory view the
// "NIC" can address directly. The direct-access path through this structure
// is the in-process analog of RDMA.
struct WindowGlobal {
  struct Peer {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
    int disp_unit = 1;
  };
  std::uint32_t id = 0;
  int nranks = 0;
  std::vector<Peer> peers;                                  // by comm rank
  std::vector<Rank> world_ranks;                            // by comm rank
  std::vector<std::unique_ptr<std::shared_mutex>> rma_locks;  // passive-target (ch4)
  std::vector<std::unique_ptr<std::mutex>> acc_locks;         // accumulate atomicity
};

}  // namespace rma

class Engine {
 public:
  Engine(World& world, Rank world_rank);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- identity -------------------------------------------------------------
  Rank world_rank() const noexcept { return self_; }
  int world_size() const noexcept;
  DeviceKind device() const noexcept { return device_; }
  const BuildConfig& config() const noexcept { return cfg_; }
  World& world() noexcept { return world_; }

  // --- point-to-point ---------------------------------------------------------
  Err isend(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
            Request* req);
  Err irecv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm, Request* req);
  Err send(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm);
  Err recv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm, Status* st);
  Err sendrecv(const void* sbuf, int scount, Datatype sdt, Rank dest, Tag stag, void* rbuf,
               int rcount, Datatype rdt, Rank src, Tag rtag, Comm comm, Status* st);
  Err wait(Request* req, Status* st);
  Err test(Request* req, bool* flag, Status* st);
  Err waitall(std::span<Request> reqs, std::span<Status> sts);
  // Completes exactly one request; *index receives its position (kUndefined
  // if every entry is null). Null entries are skipped, as in MPI.
  Err waitany(std::span<Request> reqs, int* index, Status* st);
  Err testany(std::span<Request> reqs, int* index, bool* flag, Status* st);
  Err testall(std::span<Request> reqs, bool* flag, std::span<Status> sts);
  Err iprobe(Rank src, Tag tag, Comm comm, bool* flag, Status* st);
  Err probe(Rank src, Tag tag, Comm comm, Status* st);
  Err cancel(Request* req);

  // --- persistent requests ---------------------------------------------------
  // Bind the argument list once; `start` then re-issues the operation without
  // re-validating or re-binding (MPI_SEND_INIT / MPI_RECV_INIT / MPI_START).
  // A persistent request completes via wait/test like any other but stays
  // allocated (inactive) until freed with request_free.
  Err send_init(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                Request* req);
  Err recv_init(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                Request* req);
  Err start(Request* req);
  Err startall(std::span<Request> reqs);
  Err request_free(Request* req);

  // --- Section 3 proposed extensions (ch4 device) -----------------------------
  // 3.1: destination given as a *world* (MPI_COMM_WORLD) rank.
  Err isend_global(const void* buf, int count, Datatype dt, Rank world_dest, Tag tag,
                   Comm comm, Request* req);
  // 3.4: destination guaranteed not MPI_PROC_NULL.
  Err isend_npn(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                Request* req);
  // 3.5: no request returned; completed in bulk by comm_waitall.
  Err isend_noreq(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm);
  Err comm_waitall(Comm comm);
  // 3.6: no source/tag match bits; arrival-order delivery within the comm.
  Err isend_nomatch(const void* buf, int count, Datatype dt, Rank dest, Comm comm,
                    Request* req);
  Err irecv_nomatch(void* buf, int count, Datatype dt, Comm comm, Request* req);
  // 3.7: all proposals combined. `comm` must be a predefined handle
  // (kComm1..kComm4) populated via comm_dup_predefined; dest is a world rank.
  Err isend_all_opts(const void* buf, int count, Datatype dt, Rank world_dest, Comm comm);

  // --- collectives -------------------------------------------------------------
  Err barrier(Comm comm);
  Err bcast(void* buf, int count, Datatype dt, Rank root, Comm comm);
  Err reduce(const void* sbuf, void* rbuf, int count, Datatype dt, ReduceOp op, Rank root,
             Comm comm);
  Err allreduce(const void* sbuf, void* rbuf, int count, Datatype dt, ReduceOp op, Comm comm);
  Err gather(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount, Datatype rdt,
             Rank root, Comm comm);
  Err allgather(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                Datatype rdt, Comm comm);
  Err scatter(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount, Datatype rdt,
              Rank root, Comm comm);
  Err alltoall(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount, Datatype rdt,
               Comm comm);
  Err scan(const void* sbuf, void* rbuf, int count, Datatype dt, ReduceOp op, Comm comm);
  // Variable-count collectives: recvcounts/displs are in elements of the
  // receive datatype, indexed by comm rank (significant at the root for
  // gatherv, everywhere for allgatherv).
  Err gatherv(const void* sbuf, int scount, Datatype sdt, void* rbuf,
              std::span<const int> rcounts, std::span<const int> displs, Datatype rdt,
              Rank root, Comm comm);
  Err allgatherv(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                 std::span<const int> rcounts, std::span<const int> displs, Datatype rdt,
                 Comm comm);
  Err scatterv(const void* sbuf, std::span<const int> scounts, std::span<const int> displs,
               Datatype sdt, void* rbuf, int rcount, Datatype rdt, Rank root, Comm comm);
  // Reduce then scatter equal blocks of `count` elements to each rank.
  Err reduce_scatter_block(const void* sbuf, void* rbuf, int count, Datatype dt,
                           ReduceOp op, Comm comm);

  // --- communicator / group management ----------------------------------------
  int rank(Comm comm) const;
  int size(Comm comm) const;
  bool comm_valid(Comm comm) const noexcept;
  Err comm_dup(Comm comm, Comm* newcomm);
  Err comm_split(Comm comm, int color, int key, Comm* newcomm);
  Err comm_free(Comm* comm);
  // Section 3.3 proposal: populate a *predefined* communicator handle.
  Err comm_dup_predefined(Comm comm, Comm predefined);
  // --- Cartesian process topologies --------------------------------------------
  // MPI_CART_CREATE and friends: the canonical way the paper's stencil /
  // halo-exchange applications derive their neighbours (including the
  // MPI_PROC_NULL boundaries of Section 3.4).
  Err cart_create(Comm comm, std::span<const int> dims, std::span<const bool> periods,
                  bool reorder, Comm* cart);
  Err cart_coords(Comm cart, Rank rank, std::span<int> coords) const;
  Err cart_rank(Comm cart, std::span<const int> coords, Rank* rank) const;
  // Source/dest for a shift along `dim` by `disp`; non-periodic edges yield
  // kProcNull, as in MPI_CART_SHIFT.
  Err cart_shift(Comm cart, int dim, int disp, Rank* source, Rank* dest) const;
  Err cartdim_get(Comm cart, int* ndims) const;

  // --- communicator info hints ---------------------------------------------
  // Section 3.6 discusses an alternative to the _NOMATCH routines: an info
  // hint asserting the application always receives with wildcards, letting
  // the library drop source/tag match bits at the cost of an extra hint
  // lookup branch on every operation. Key: "lwmpi_arrival_order" = "true".
  Err comm_set_info(Comm comm, std::string_view key, std::string_view value);
  Err comm_get_info(Comm comm, std::string_view key, std::string* value) const;

  Err comm_group(Comm comm, Group* group);
  Err group_size(Group g, int* size) const;
  Err group_rank(Group g, int* rank) const;
  Err group_incl(Group g, std::span<const int> ranks, Group* newgroup);
  Err group_translate_ranks(Group g1, std::span<const int> ranks1, Group g2,
                            std::span<int> ranks2) const;
  Err group_free(Group* g);

  // --- datatypes ----------------------------------------------------------------
  Err type_contiguous(int count, Datatype oldtype, Datatype* newtype);
  Err type_vector(int count, int blocklength, int stride, Datatype oldtype, Datatype* newtype);
  Err type_indexed(std::span<const int> blocklengths, std::span<const int> displacements,
                   Datatype oldtype, Datatype* newtype);
  Err type_create_struct(std::span<const int> blocklengths,
                         std::span<const std::int64_t> displacements,
                         std::span<const Datatype> types, Datatype* newtype);
  Err type_create_hvector(int count, int blocklength, std::int64_t stride_bytes,
                          Datatype oldtype, Datatype* newtype);
  Err type_create_hindexed(std::span<const int> blocklengths,
                           std::span<const std::int64_t> displacements_bytes,
                           Datatype oldtype, Datatype* newtype);
  Err type_create_resized(Datatype oldtype, std::int64_t lb, std::int64_t extent,
                          Datatype* newtype);
  Err type_dup(Datatype oldtype, Datatype* newtype);
  Err type_commit(Datatype* dt);
  Err type_free(Datatype* dt);
  Err type_size(Datatype dt, std::size_t* size) const;
  Err type_get_extent(Datatype dt, std::int64_t* lb, std::int64_t* extent) const;
  dt::TypeEngine& types() noexcept { return types_; }
  const dt::TypeEngine& types() const noexcept { return types_; }

  // --- one-sided ------------------------------------------------------------------
  Err win_create(void* base, std::size_t bytes, int disp_unit, Comm comm, Win* win);
  Err win_free(Win* win);
  Err put(const void* origin, int origin_count, Datatype origin_dt, Rank target,
          std::uint64_t target_disp, int target_count, Datatype target_dt, Win win);
  Err get(void* origin, int origin_count, Datatype origin_dt, Rank target,
          std::uint64_t target_disp, int target_count, Datatype target_dt, Win win);
  Err accumulate(const void* origin, int count, Datatype dt, Rank target,
                 std::uint64_t target_disp, ReduceOp op, Win win);
  Err get_accumulate(const void* origin, int count, Datatype dt, void* result, Rank target,
                     std::uint64_t target_disp, ReduceOp op, Win win);
  // 3.2 proposal: target addressed by virtual address, valid for any window.
  Err put_va(const void* origin, int origin_count, Datatype origin_dt, Rank target,
             void* target_va, Win win);
  Err win_fence(Win win);
  Err win_lock(LockType type, Rank target, Win win);
  Err win_unlock(Rank target, Win win);
  Err win_lock_all(Win win);
  Err win_unlock_all(Win win);
  Err win_flush(Rank target, Win win);
  Err win_flush_all(Win win);
  // Generalized active-target synchronization (MPI_WIN_POST / START /
  // COMPLETE / WAIT). `group` holds comm ranks of the window's communicator.
  Err win_post(Group group, Win win);
  Err win_start(Group group, Win win);
  Err win_complete(Win win);
  Err win_wait(Win win);
  // Translate a (target, disp) pair to the target's virtual address (setup
  // path for put_va users).
  Err win_target_address(Rank target, std::uint64_t target_disp, Win win, void** addr) const;

  // --- progress ---------------------------------------------------------------------
  // Advance the communication engine: sweep the VCI poll set. Each VCI is
  // acquired with try_lock (a contended channel is already being progressed
  // by its holder); per channel we drain the orig-device send queue, poll the
  // channel's fabric lane, match/complete messages, and service RMA active
  // messages. Ch4 skips channels whose lane is provably empty without
  // touching the lock.
  void progress();

  // --- observability ----------------------------------------------------------
  // Raw counter blocks backing the MPI_T-style pvar registry (obs/pvar.hpp).
  // Tools should go through LWMPI_T_pvar_* rather than these accessors.
  const obs::VciCounters& vci_counters(int vci) const noexcept {
    return vcis_[static_cast<std::size_t>(vci)]->counters;
  }
  const obs::EngineCounters& engine_counters() const noexcept { return eng_counters_; }
  // Per-channel message-lifetime latency histograms (obs/histogram.hpp).
  const obs::VciLatency& vci_latency(int vci) const noexcept {
    return vcis_[static_cast<std::size_t>(vci)]->lat;
  }
  // Per-channel wait-state histograms (obs/causal.hpp).
  const obs::WaitBlock& vci_waits(int vci) const noexcept {
    return vcis_[static_cast<std::size_t>(vci)]->waits;
  }
  // Per-channel lifecycle-trace ring (obs/trace.hpp); holds nothing unless
  // the build traces. World::trace_events() merges them.
  const obs::Ring<obs::trace::Event>& vci_trace(int vci) const noexcept {
    return vcis_[static_cast<std::size_t>(vci)]->trace;
  }

  // --- aggregate profiler (obs/profiler.hpp) ----------------------------------
  // This rank's profile accumulators, or nullptr when WorldOptions::prof is
  // off (every hook then costs one null test).
  obs::RankProf* prof() const noexcept { return prof_; }
  // This rank's flight-recorder ring (obs/recorder.hpp), or nullptr when
  // WorldOptions::record is off. Same single-null-test discipline as prof().
  obs::RankRec* rec() const noexcept { return rec_; }
  // Pcontrol-style phase regions scoped to this rank; World::phase_push/pop
  // applies the same to every rank at once. No-ops when profiling is off
  // (a pop is then not even misuse-counted -- there is nowhere to count it).
  void phase_push(std::string_view name) {
    if (prof_ != nullptr) prof_->phase_push(name);
  }
  void phase_pop() noexcept {
    if (prof_ != nullptr) prof_->phase_pop();
  }

  // --- introspection / hang diagnosis (obs/introspect.cpp) --------------------
  // Capture this rank's queues, in-flight requests, and RMA epoch state.
  // Safe to call from another thread (the watchdog); takes each VCI's lock.
  obs::RankSnapshot snapshot() const;

  // Blocking-call annotation maintained by obs::BlockScope: the name of the
  // MPI call this rank is currently blocked in (nullptr when not blocked) and
  // the obs::lat_now_ns() stamp of when it entered.
  const char* blocking_call() const noexcept {
    return blocking_call_.load(std::memory_order_acquire);
  }
  std::uint64_t blocking_since_ns() const noexcept {
    return blocking_since_.load(std::memory_order_relaxed);
  }

  // Progress-liveness fingerprint for the watchdog's stall detector: a hash
  // of this rank's fabric traffic counts and request-lifecycle counters that
  // changes whenever the rank makes observable progress. Compared, never
  // interpreted.
  std::uint64_t activity_fingerprint() const noexcept;
  // True when the rank has reason to make progress: live requests, undrained
  // send queues, or undelivered inbound fabric traffic.
  bool has_outstanding_work() const noexcept;

  // Diagnostics for tests/benches. The totals are summed over the channels
  // on read; no per-message path writes rank-global state for them.
  std::size_t live_requests() const noexcept;     // takes each pool's spinlock
  std::size_t posted_depth() const noexcept;      // summed over all VCIs
  std::size_t unexpected_depth() const noexcept;  // summed over all VCIs
  std::size_t posted_depth(int vci) const noexcept;
  std::size_t unexpected_depth(int vci) const noexcept;
  std::uint64_t sends_issued() const noexcept;

  // --- VCI introspection ------------------------------------------------------
  int num_vcis() const noexcept { return static_cast<int>(vcis_.size()); }
  // The VCI a communicator's traffic rides on, or -1 for an invalid handle.
  int vci_of(Comm comm) const noexcept;
  // Modeled instructions executed on a channel (simulated-clock accounting).
  std::uint64_t vci_busy_instr(int vci) const noexcept;
  // Times the channel's gate missed its uncontended fast path.
  std::uint64_t vci_contended(int vci) const noexcept;

 private:
  friend class World;

  // ---- internal structures ----
  struct CartTopo {
    std::vector<int> dims;
    std::vector<std::uint8_t> periods;
  };

  struct CommObject {
    // Publishes a fully-built communicator to progress threads (release) and
    // gates handle lookups (acquire).
    std::atomic<bool> in_use{false};
    bool reserved = false;  // slot claimed but not yet built; under comm_mu_
    bool predefined_slot = false;
    std::uint32_t ctx = 0;  // pt2pt context; collectives use ctx + 1
    std::uint32_t vci = 0;  // owning channel; fixed at creation
    Rank rank = 0;          // my rank within the comm
    comm::RankMap map;
    std::atomic<std::uint32_t> noreq_outstanding{0};  // _NOREQ bulk-completion counter
    std::optional<CartTopo> cart;         // set for Cartesian communicators
    std::vector<std::pair<std::string, std::string>> info;  // info hints
    std::atomic<bool> hint_arrival_order{false};  // cached "lwmpi_arrival_order" hint
  };

  using RequestSlot = lwmpi::RequestSlot;  // defined in core/vci.hpp

  struct WindowLocal {
    std::atomic<bool> in_use{false};
    bool reserved = false;  // slot claimed but not yet built; under win_mu_
    // Copy of global->id readable without dereferencing `global`: handle_am
    // scans the whole table (including windows owned by other channels) and
    // must not race a concurrent create/free of an unrelated slot.
    std::atomic<std::uint32_t> win_id{0};
    std::shared_ptr<rma::WindowGlobal> global;
    Comm comm = kCommNull;
    std::uint32_t vci = 0;  // inherited from the creating communicator
    enum class Epoch : std::uint8_t { None, Fence, Lock, LockAll, Pscw };
    // Atomic so the introspection/watchdog thread can read the epoch while
    // the owning rank transitions it; relaxed is enough, a snapshot only
    // needs an untorn value.
    std::atomic<Epoch> epoch{Epoch::None};
    // Per-target passive lock state; written by the AM handler under the VCI
    // lock while win_lock/unlock spin on it outside, hence atomic elements.
    std::unique_ptr<std::atomic<std::uint8_t>[]> lock_held;
    int lock_targets = 0;
    std::atomic<std::uint32_t> outstanding_acks{0};  // AM ops awaiting remote completion
    // One data-movement call, as its entry point builds it (rma.cpp rma_op):
    // ch4 executes it or sends it at once, orig queues it in `pending` until
    // synchronization, and rma_am turns it into its active message.
    struct PendingOp {
      // What an entry sets comes first and what it leaves zero last: with a
      // zero gap between set fields GCC clears the whole descriptor with a
      // `rep stos`, whose startup the direct put would pay on every call.
      enum class Kind : std::uint8_t { Put, PutVa, Get, Acc, GetAcc } kind = Kind::Put;
      Rank target = 0;
      int origin_count = 0;
      Datatype origin_dt = kDatatypeNull;
      int target_count = 0;
      Datatype target_dt = kDatatypeNull;
      ReduceOp op = ReduceOp::Replace;
      std::uint64_t disp = 0;        // in the target's disp units
      const void* origin = nullptr;  // MPI's origin_addr (Get: the destination)
      void* result = nullptr;        // Get/GetAcc: where the fetched data lands
      void* target_va = nullptr;     // PutVa: the target address itself
      std::uint64_t offset = 0;      // disp in bytes, bounded by rma_offset
      std::vector<std::byte> data{};  // origin data packed by pack()

      // Pack the origin data into `data`: orig does it at the call, ch4 when
      // it sends a noncontiguous put as an active message. MPI_NO_OP ignores
      // the origin (get_accumulate may pass a null one), so it packs nothing.
      void pack(const dt::TypeEngine& types) {
        if (op == ReduceOp::NoOp) return;
        data.resize(dt::packed_size(types, origin_count, origin_dt));
        dt::pack(types, origin, origin_count, origin_dt, data.data());
      }
    };
    std::vector<PendingOp> pending;
    // Target-side passive lock manager (orig device AM path).
    bool excl_held = false;
    int shared_count = 0;
    struct LockWaiter {
      Rank origin_world = 0;
      LockType type = LockType::Shared;
    };
    std::deque<LockWaiter> lock_waiters;
    // PSCW state: monotone token counters plus the current epoch's groups.
    // The counters are bumped by the AM handler and spun on by win_start /
    // win_wait without the channel lock.
    std::atomic<std::uint32_t> pscw_posts_seen{0};      // AmPscwPost tokens received
    std::atomic<std::uint32_t> pscw_completes_seen{0};  // AmPscwComplete tokens received
    std::vector<Rank> pscw_access_group;    // targets of my access epoch
    std::vector<Rank> pscw_exposure_group;  // origins of my exposure epoch

    // Return a recycled slot to its freshly-constructed state (except
    // `in_use`, which the caller manages as the publication flag).
    void reset();
  };

  // ---- validation (the error-checking build feature) ----
  // Each check charges its modeled cost, then runs; a build without error
  // checking skips both. The collectives compose the two shared checks; the
  // pt2pt and RMA entries each go through one validator.
  Err check_count(int count) const noexcept;
  Err check_datatype(Datatype dt) const noexcept;

  // The peers a pt2pt entry accepts besides a rank of its communicator, and
  // how it checks its tag (Recv also takes MPI_ANY_TAG).
  enum class PeerRule : std::uint8_t {
    RankOrNull,       // sends: MPI_PROC_NULL too
    RankOnly,         // _NPN: the caller promises no MPI_PROC_NULL
    WorldRankOrNull,  // _GLOBAL: a rank of MPI_COMM_WORLD, or MPI_PROC_NULL
    Source,           // receives and probe: MPI_PROC_NULL or MPI_ANY_SOURCE too
    None,             // irecv_nomatch names no peer
  };
  enum class TagRule : std::uint8_t { Send, Recv, None };
  struct Pt2ptRule {
    PeerRule peer;
    TagRule tag;
    bool gated = true;  // charges the call overhead and takes the channel gate
    bool data = true;   // validates (count, buf, dt); a probe moves no data
  };
  // The pt2pt validator: comm -> peer -> tag -> count -> buffer -> datatype,
  // stopping at the first bad argument (engine.cpp).
  Err validate_pt2pt(Pt2ptRule rule, Comm comm, Rank peer, Tag tag, int count, const void* buf,
                     Datatype dt) const noexcept;
  // The MPI layer of a pt2pt entry, written once: the call-overhead charge
  // (folded away under ipo), the channel gate, held for the entry's scope,
  // then validate_pt2pt. An ungated rule skips the charge and the gate;
  // `err` names the first bad argument. Inlined, so each entry keeps its own
  // copy of the charge and gate, as when they were written out.
  struct Prologue {
    [[gnu::always_inline]] Prologue(Engine& e, Pt2ptRule rule, Comm comm, Rank peer, Tag tag,
                                    int count, const void* buf, Datatype dt)
        : gate(enter(e, rule, comm), rule.gated && e.cfg_.thread_safety,
               cost::kThreadGatePt2pt),
          err(e.cfg_.error_checking ? e.validate_pt2pt(rule, comm, peer, tag, count, buf, dt)
                                    : Err::Success) {}
    VciGate gate;
    const Err err;

   private:
    // The call-overhead charge; returns the channel the gate takes.
    [[gnu::always_inline]] static Vci* enter(Engine& e, Pt2ptRule rule, Comm comm) noexcept {
      if (!rule.gated) return nullptr;
      if (!e.cfg_.ipo) {
        cost::charge(cost::Category::CallOverhead, cost::kCallEntry + cost::kCallPmpiAliasSend);
      }
      return e.vci_for(comm);
    }
  };

  // ---- comm table ----
  CommObject* comm_obj(Comm comm) noexcept;
  const CommObject* comm_obj(Comm comm) const noexcept;
  Comm alloc_comm_slot();
  void init_world_comms();
  Err build_comm(Comm slot_handle, std::vector<Rank> world_ranks, std::uint32_t ctx);
  // Deterministic comm -> VCI mapping: the predefined handles kComm1..kComm4
  // pin to distinct channels; dynamic communicators hash their context id.
  std::uint32_t assign_vci(std::uint32_t slot_idx, std::uint32_t ctx) const noexcept;
  // The channel owning a communicator's traffic (nullptr for a bad handle).
  Vci* vci_for(Comm comm) noexcept;

  // ---- request pool (per VCI) ----
  Request alloc_request(RequestSlot::Kind kind, std::uint32_t vci);
  RequestSlot* req_slot(Request r) noexcept;
  void release_request(Request r) noexcept;
  // Completion check that sees through persistent handles to their inner
  // operation (used by waitany/testany/testall).
  bool slot_ready(const RequestSlot& s) noexcept;

  // ---- probe (engine.cpp): argument checks, then one matcher look ----
  Err probe_args(Rank src, Tag tag, Comm comm, const CommObject** c);
  bool probe_match(const CommObject& c, Rank src, Tag tag, Status* st);

  // ---- device paths (implemented in ch4_pt2pt.cpp / orig_device.cpp) ----
  struct SendParams {
    const void* buf;
    int count;
    Datatype dt;
    Rank dest;  // comm rank, or world rank for _GLOBAL paths
    Tag tag;
    Comm comm;
    bool dest_is_world = false;
    bool skip_proc_null_check = false;
    bool noreq = false;
    bool coll_plane = false;  // use the communicator's collective context
    rt::MatchMode match_mode = rt::MatchMode::Full;
  };
  Err ch4_isend(const SendParams& p, Request* req);
  Err orig_isend(const SendParams& p, Request* req);
  Err device_isend(const SendParams& p, Request* req);
  Err post_recv_common(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                       rt::MatchMode mode, bool coll_plane, Request* req);

  // Build and transmit an eager packet / rendezvous RTS for `p`; shared by
  // both devices (orig queues, ch4 injects inline). Locks the owning VCI.
  Err issue_send(const SendParams& p, const CommObject& c, Rank dst_world, Request* req);
  void inject_or_queue(Vci& v, Rank dst_world, rt::Packet* pkt);
  // The two forms of an eager message whose header is `h` and whose payload
  // is the `bytes` packed bytes of (buf, count, dt). inject_record sends an
  // untraced message of at most net::Lane::kInlineBytes straight into its
  // lane cell, with no Packet: contiguous data is read in place, and a
  // noncontiguous type packs into a stack buffer first. eager_packet builds
  // the Packet every other eager message travels in. inject_record is
  // defined (and only used) in ch4_pt2pt.cpp, and inlined so the small send
  // gains no call.
  [[gnu::always_inline]] inline void inject_record(Rank dst_world, net::Lane::Record& h,
                                                   const void* buf, int count, Datatype dt,
                                                   std::size_t bytes);
  rt::Packet* eager_packet(const net::Lane::Record& h, const void* buf, int count, Datatype dt,
                           std::size_t bytes);

  // ---- the protocol's edges: each owns its charge, counters, latency
  // record, wait classification and trace event, and is written once ----
  // The inject edge: hand `pkt` to the fabric, recording its Inject event
  // (`bytes` of the message) when the message is traced. Every packet of a
  // traced message chain leaves through here, except the all-opts send's.
  void traced_inject(Vci& v, Rank dst_world, rt::Packet* pkt, std::uint64_t bytes) {
    if (cfg_.trace && pkt->hdr.seq != 0) {
      trace_msg(v, obs::trace::Ev::Inject, pkt->hdr.seq, pkt->hdr.vci, dst_world, pkt->hdr.tag,
                bytes);
    }
    fabric_.inject(self_, dst_world, pkt);
  }
  // The match edge: posted receive `r` met its first packet (eager payload or
  // RTS), either when the receive was posted (`at_post`: the packet waited
  // unexpected) or when the packet arrived. Classifies the wait of a sampled
  // message, records the Match event and delivers.
  void deliver_match(Vci& v, const match::PostedRecv& r, rt::Packet* pkt, bool at_post);
  // The completion edge: request `r` (slot `s`) is done, with `bytes` moved,
  // and `h` is the header of the packet that finished it. Publishes the
  // status behind the completion charge and the release store of `complete`,
  // or retires a _NOREQ origin through its communicator's counter; then
  // records the latency on `path` and the Complete event (`tag` as traced).
  // Everything it needs from the slot is read before the store, because a
  // waiter may reap and recycle the slot from then on. Defined (and only
  // used) in progress.cpp, and inlined so the eager receive gains no call.
  [[gnu::always_inline]] inline void complete_request(Vci& v, Request r, RequestSlot& s,
                                                      obs::LatPath path,
                                                      const rt::PacketHeader& h, Tag tag,
                                                      std::uint64_t bytes);
  // The zero-copy registration edge: register [buf, buf + bytes) and return
  // its rkey; a registration-cache miss pays the pin cost on the message's
  // critical path and is recorded as a RegCacheMiss wait.
  std::uint64_t register_timed(Vci& v, const void* buf, std::size_t bytes);

  // ---- progress internals (progress.cpp); all run under the VCI's lock ----
  void handle_packet(Vci& v, rt::Packet* pkt);
  void handle_rdv_cts(Vci& v, rt::Packet* pkt);
  void handle_rdv_data(Vci& v, rt::Packet* pkt);
  void handle_rdv_done(Vci& v, rt::Packet* pkt);
  void handle_am(rt::Packet* pkt);
  void drain_send_queue(Vci& v);
  void complete_recv_from_eager(Vci& v, RequestSlot& slot, Request req, rt::Packet* pkt);
  void start_rendezvous_recv(Vci& v, RequestSlot& slot, Request req_handle, rt::Packet* rts);

  // Hook-free bodies of the public entry points: the blocking wrappers
  // (send/recv/sendrecv) compose these so only the user-facing call opens an
  // obs::SurfaceScope (outermost-wins would suppress the nested scopes anyway;
  // this also skips their depth-guard TLS traffic on the latency-critical
  // path).
  Err isend_impl(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                 Request* req);
  Err irecv_impl(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                 Request* req);
  Err wait_impl(Request* req, Status* st);
  // The recorder's success-gated exit record of test() lives in the public
  // wrapper, and the body in an _impl like the blocking wrappers above.
  Err test_impl(Request* req, bool* flag, Status* st);
  // The reap shared by wait and test: resolve `*req` (a persistent handle to
  // its in-flight operation), let `done(slot)` say whether that operation is
  // complete (wait blocks in it, test polls), and if so copy its status,
  // release its slot and null its handle. A null or inactive handle is
  // trivially complete with an empty status. Returns Err::Pending, having
  // reaped nothing, when `done` says no.
  template <class Done>
  Err reap(Request* req, Status* st, Done done);

  // The one blocking loop: progress until `done()` holds. It progresses
  // before the first check (a blocking call is a progress point, and the
  // orig device's queued eager send needs one), names `call` to the
  // watchdog only after that first check misses, and pauses through
  // rt::Backoff between later checks. A template on the predicate, so each
  // caller compiles to its own loop. Defined below, after obs::BlockScope.
  template <class Done>
  void block_until(const char* call, Done done);

  // ---- surface-hook arguments (obs::SurfaceScope) ----
  // Evaluated only inside a SurfaceScope's argument callable, i.e. only for
  // an outermost call with a profiler or recorder attached. That path is
  // gated too (<2% per tier in bench_obs_overhead), so the common cases stay
  // inline and arithmetic-only: the world communicator's VCI is cached at
  // init, and builtin datatype sizes come from handle bits.
  // The VCI of the communicator or window a call addresses (0 for an invalid
  // handle). Calls on a request take request_vci() of the handle instead.
  int surface_vci(std::uint32_t handle) const noexcept {
    if (handle == kCommWorld) [[likely]] return world_vci_;
    if (handle_kind(handle) == HandleKind::Win) {
      const WindowLocal* w = win_obj(handle);
      return w == nullptr ? 0 : static_cast<int>(w->vci);
    }
    const int v = vci_of(handle);
    return v < 0 ? 0 : v;
  }
  std::uint64_t surface_bytes(int count, Datatype dt) const noexcept {
    if (count <= 0) return 0;
    if (is_builtin(dt)) [[likely]] return static_cast<std::uint64_t>(count) * builtin_size(dt);
    return static_cast<std::uint64_t>(dt::packed_size(types_, count, dt));
  }
  // Builtin element size recorded in a collective's tag field so replay can
  // reconstruct (count, datatype) and hit the same algorithm splits; 0 for
  // derived types (replay falls back to a byte count of kChar).
  static std::int32_t rec_esize(Datatype dt) noexcept {
    return is_builtin(dt) ? static_cast<std::int32_t>(builtin_size(dt)) : 0;
  }

  // ---- observability internals ----
  // Record one message-lifecycle trace event into channel `v`'s ring, which
  // the caller holds (its lock, or all-opts ownership). Callers gate on
  // cfg_.trace so the disabled path costs a single predictable branch. Every
  // event snapshots the rank's Lamport clock (net::Fabric) so the causal
  // analyzer can stitch the rings into one globally-ordered timeline; Match
  // events additionally carry their wait-state classification.
  void trace_msg(Vci& v, obs::trace::Ev kind, std::uint64_t seq, std::uint8_t vci, Rank peer,
                 Tag tag, std::uint64_t bytes, obs::Wait wait = obs::Wait::None,
                 std::uint64_t wait_ns = 0) noexcept {
    v.trace.push(obs::trace::Event{.ts_ns = rt::now_ns(),
                                   .seq = seq,
                                   .bytes = bytes,
                                   .lclock = fabric_.lclock(self_),
                                   .wait_ns = wait_ns,
                                   .rank = self_,
                                   .peer = peer,
                                   .tag = tag,
                                   .vci = vci,
                                   .wait = static_cast<std::uint8_t>(wait),
                                   .kind = kind});
  }

  // ---- RMA internals (rma.cpp) ----
  WindowLocal* win_obj(Win win) noexcept;
  const WindowLocal* win_obj(Win win) const noexcept;
  using RmaOp = WindowLocal::PendingOp;
  // The one path of a data-movement call: the MPI layer (call-overhead
  // charge, the window's gate, rma_validate), then the device.
  Err rma_op(Win win, RmaOp op);
  // The RMA validator: one pass over (win, target, origin count/buf/dt,
  // target dt, op, disp) and the access epoch, by the rule of op's kind;
  // the target access touches `below` bytes before its address and `above`
  // bytes from it on (rma_op computes them from the target count and type).
  Err rma_validate(const WindowLocal* w, const RmaOp& op, std::uint64_t below,
                   std::uint64_t above) const noexcept;
  // Send `op` as its active message, the one builder for both devices.
  void rma_am(WindowLocal& w, RmaOp& op);
  // A packet of `kind` about window `win_id` on channel `vci`: the header
  // every active message carries.
  rt::Packet* am_packet(rt::PacketKind kind, std::uint8_t vci, std::uint32_t win_id) const;
  Err rma_wait_acks(WindowLocal& w, std::uint32_t until);
  Err orig_flush_pending(WindowLocal& w, Rank target /* -1 = all */);

  // ---- collective internals (coll.cpp) ----
  // Rabenseifner large-message allreduce (allreduce_large.cpp); requires
  // power-of-two size and rbuf preloaded with the local contribution.
  Err allreduce_rabenseifner(void* rbuf, int count, Datatype dt, ReduceOp op, Comm comm);
  Err coll_send(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm);
  Err coll_recv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm, Status* st);
  Err coll_isend(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                 Request* req);
  Err coll_irecv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                 Request* req);

  // ---- state ----
  World& world_;
  net::Fabric& fabric_;
  const Rank self_;
  const DeviceKind device_;
  const BuildConfig cfg_;
  const std::size_t eager_threshold_;
  // Modeled instruction totals for the configured build; feed both the
  // simulated-time spins and the per-VCI busy-instruction accounting.
  std::uint32_t send_instr_ = 0;
  std::uint32_t recv_instr_ = 0;
  // Simulated software time per operation (modeled instructions x the
  // world's ns-per-instruction knob); zero disables the spins.
  std::uint64_t sim_send_ns_ = 0;
  std::uint64_t sim_recv_ns_ = 0;
  std::uint64_t sim_put_ns_ = 0;

  dt::TypeEngine types_;
  // The VCI channels; sized once in the constructor and never resized, so
  // vcis_[i].get() is stable for the engine's lifetime.
  std::vector<std::unique_ptr<Vci>> vcis_;
  // Backing store of every channel's per-peer sampling ordinals
  // (VciLatency::sends_to / posts_from point into it); allocated once.
  std::unique_ptr<std::atomic<std::uint32_t>[]> lat_ordinals_;
  common::StableTable<CommObject> comms_;
  std::mutex comm_mu_;  // serializes comm-slot allocation / free
  std::vector<std::optional<std::vector<Rank>>> groups_;
  common::StableTable<WindowLocal> windows_;  // indexed by local win slot
  std::mutex win_mu_;   // serializes window-slot allocation
  // Whole-rank observability counters (progress-path statistics).
  obs::EngineCounters eng_counters_;
  // Blocking-call annotation (see blocking_call()). Written by obs::BlockScope
  // on this rank's thread, read by the watchdog thread.
  friend class obs::BlockScope;
  std::atomic<const char*> blocking_call_{nullptr};
  std::atomic<std::uint64_t> blocking_since_{0};
  // Aggregate-profiler accumulators for this rank (obs/profiler.hpp); null
  // when WorldOptions::prof is off. Owned by the World's Profiler.
  obs::RankProf* prof_ = nullptr;
  // Flight-recorder ring for this rank (obs/recorder.hpp); null when
  // WorldOptions::record is off. Owned by the World's Recorder.
  obs::RankRec* rec_ = nullptr;
  // VCI of kCommWorld, cached by init_world_comms so surface_vci's hot path
  // (virtually all instrumented traffic runs on the world communicator) skips
  // the comm-object lookup.
  int world_vci_ = 0;
};

namespace obs {

// RAII blocking-call-site annotation, read by the hang watchdog
// (obs/watchdog.hpp) through Engine::blocking_call(). Engine::block_until
// constructs one once its first check misses; the composite calls Barrier,
// Win_fence and Win_unlock hold an outer one, so nested waits keep the
// outermost name. The annotation costs one relaxed load when nested and one
// timestamp + two stores when outermost; a wait that is already complete
// constructs none.
class BlockScope {
 public:
  BlockScope(Engine& e, const char* call) noexcept
      : e_(e), outer_(e.blocking_call_.load(std::memory_order_relaxed) == nullptr) {
    if (outer_) {
      e_.blocking_since_.store(lat_now_ns(), std::memory_order_relaxed);
      e_.blocking_call_.store(call, std::memory_order_release);
    }
  }
  ~BlockScope() {
    if (outer_) e_.blocking_call_.store(nullptr, std::memory_order_release);
  }
  BlockScope(const BlockScope&) = delete;
  BlockScope& operator=(const BlockScope&) = delete;

 private:
  Engine& e_;
  const bool outer_;
};

}  // namespace obs

template <class Done>
void Engine::block_until(const char* call, Done done) {
  progress();
  if (done()) return;
  obs::BlockScope block(*this, call);
  rt::Backoff backoff;
  for (;;) {
    progress();
    if (done()) return;
    backoff.pause();
  }
}

}  // namespace lwmpi
