// One-sided communication.
//
// Window creation is collective. Each data-movement entry point builds one op
// descriptor (WindowLocal::PendingOp) and hands it to rma_op, which runs the
// MPI layer (call-overhead charge, the window's gate, rma_validate) and then
// one of three concrete paths:
//   1. ch4 "native" path -- contiguous data, implemented as a direct memory
//      access into the target's exposed region (the in-process analog of
//      RDMA); accumulates take the target's accumulate lock for atomicity.
//   2. ch4 active-message fallback -- noncontiguous layouts ride AM packets
//      serviced by the target's progress engine, acknowledged for flush.
//   3. orig (CH3-style) path -- *every* operation is recorded in a deferred
//      operation list and issued as active messages at synchronization,
//      which is exactly what makes MPI_PUT cost ~1342 instructions there.
// Paths 2 and 3 build their packets in one place, rma_am.
//
// VCI routing: a window inherits its creating communicator's channel. Every
// origin-side AM is stamped with the window's vci and every target-side reply
// echoes the incoming packet's vci, so a window's whole AM conversation stays
// on one lane and handle_am always runs under that channel's lock.
#include <algorithm>
#include <cstring>
#include <mutex>

#include "coll/ops.hpp"
#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "obs/recorder.hpp"
#include "runtime/backoff.hpp"
#include "runtime/world.hpp"

namespace lwmpi {

namespace {
// lock_held[] states.
constexpr std::uint8_t kLockNone = 0;
constexpr std::uint8_t kLockShared = 1;
constexpr std::uint8_t kLockExclusive = 2;
constexpr std::uint8_t kLockPendingGrant = 3;
constexpr std::uint8_t kLockPendingUnlock = 4;

// The one place a displacement becomes an address: `disp` units of the
// target's disp_unit, as a byte offset into its region with room for `bytes`
// more. Err::Disp when they do not fit, or when disp * disp_unit overflows.
Err rma_offset(const rma::WindowGlobal::Peer& peer, std::uint64_t disp, std::size_t bytes,
               std::uint64_t* off) noexcept {
  std::uint64_t o = 0;
  if (__builtin_mul_overflow(disp, static_cast<std::uint64_t>(peer.disp_unit), &o) ||
      o > peer.bytes || bytes > peer.bytes - o) {
    return Err::Disp;
  }
  *off = o;
  return Err::Success;
}
}  // namespace

// ---------------------------------------------------------------------------
// Window lifecycle
// ---------------------------------------------------------------------------

void Engine::WindowLocal::reset() {
  win_id.store(0, std::memory_order_relaxed);
  global.reset();
  comm = kCommNull;
  vci = 0;
  epoch.store(Epoch::None, std::memory_order_relaxed);
  lock_held.reset();
  lock_targets = 0;
  outstanding_acks.store(0, std::memory_order_relaxed);
  pending.clear();
  excl_held = false;
  shared_count = 0;
  lock_waiters.clear();
  pscw_posts_seen.store(0, std::memory_order_relaxed);
  pscw_completes_seen.store(0, std::memory_order_relaxed);
  pscw_access_group.clear();
  pscw_exposure_group.clear();
}

Engine::WindowLocal* Engine::win_obj(Win win) noexcept {
  if (handle_kind(win) != HandleKind::Win) return nullptr;
  WindowLocal* w = windows_.at(handle_payload(win));
  if (w == nullptr || !w->in_use.load(std::memory_order_acquire)) return nullptr;
  return w;
}

const Engine::WindowLocal* Engine::win_obj(Win win) const noexcept {
  return const_cast<Engine*>(this)->win_obj(win);
}

Err Engine::win_create(void* base, std::size_t bytes, int disp_unit, Comm comm, Win* win) {
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  if (win == nullptr || disp_unit <= 0) return Err::Arg;
  const int p = c->map.size();

  std::uint32_t id = 0;
  std::shared_ptr<rma::WindowGlobal> g;
  if (c->rank == 0) {
    id = world_.alloc_win_id();
    g = std::make_shared<rma::WindowGlobal>();
    g->id = id;
    g->nranks = p;
    g->peers.resize(static_cast<std::size_t>(p));
    g->world_ranks = c->map.to_list();
    g->rma_locks.reserve(static_cast<std::size_t>(p));
    g->acc_locks.reserve(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      g->rma_locks.push_back(std::make_unique<std::shared_mutex>());
      g->acc_locks.push_back(std::make_unique<std::mutex>());
    }
    world_.register_window(g);
  }
  if (Err e = bcast(&id, 1, kUint32, 0, comm); !ok(e)) return e;
  if (c->rank != 0) {
    g = world_.find_window(id);
    if (g == nullptr) return Err::Internal;
  }
  g->peers[static_cast<std::size_t>(c->rank)] =
      rma::WindowGlobal::Peer{static_cast<std::byte*>(base), bytes, disp_unit};

  // Reserve a slot, build it, then publish with a release store on in_use.
  // The local slot must be visible BEFORE the creation barrier completes: a
  // fast peer may exit the barrier and immediately send this window an active
  // message (e.g. a PSCW post token), which our progress engine routes by
  // window id while we are still inside the barrier.
  std::uint32_t slot = 0;
  {
    std::lock_guard<std::mutex> lk(win_mu_);
    for (; slot < windows_.size(); ++slot) {
      WindowLocal* cand = windows_.at(slot);
      if (cand != nullptr && !cand->in_use.load(std::memory_order_acquire) &&
          !cand->reserved) {
        break;
      }
    }
    if (slot == windows_.size()) slot = windows_.emplace();
    windows_.at(slot)->reserved = true;
  }
  WindowLocal& w = *windows_.at(slot);
  w.reset();
  w.global = g;
  w.comm = comm;
  w.vci = c->vci;  // the window's AM traffic rides its communicator's channel
  // Value-initialized array: all entries start at kLockNone (0).
  w.lock_held = std::make_unique<std::atomic<std::uint8_t>[]>(static_cast<std::size_t>(p));
  w.lock_targets = p;
  w.win_id.store(g->id, std::memory_order_relaxed);
  w.in_use.store(true, std::memory_order_release);

  if (Err e = barrier(comm); !ok(e)) return e;
  *win = make_handle(HandleKind::Win, slot);
  return Err::Success;
}

Err Engine::win_free(Win* win) {
  if (win == nullptr) return Err::Win;
  WindowLocal* w = win_obj(*win);
  if (w == nullptr) return Err::Win;
  if (Err e = win_flush_all(*win); !ok(e)) return e;
  if (Err e = barrier(w->comm); !ok(e)) return e;
  if (comm_obj(w->comm)->rank == 0) world_.unregister_window(w->global->id);
  {
    // Tear down under the owning channel's lock: handle_am dispatches to this
    // window only while holding the same lock, so nothing is mid-flight here.
    Vci& v = *vcis_[w->vci];
    std::lock_guard<std::recursive_mutex> lk(v.mu);
    w->in_use.store(false, std::memory_order_release);
    w->win_id.store(0, std::memory_order_relaxed);
    w->global.reset();
  }
  {
    std::lock_guard<std::mutex> lk(win_mu_);
    w->reserved = false;
  }
  *win = kWinNull;
  return Err::Success;
}

Err Engine::win_target_address(Rank target, std::uint64_t target_disp, Win win,
                               void** addr) const {
  const WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  if (target < 0 || target >= w->global->nranks) return Err::Rank;
  const auto& peer = w->global->peers[static_cast<std::size_t>(target)];
  std::uint64_t off = 0;
  if (Err e = rma_offset(peer, target_disp, 0, &off); !ok(e)) return e;
  *addr = peer.base + off;
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Data movement: each entry point builds its op; rma_op carries it
// ---------------------------------------------------------------------------

Err Engine::put(const void* origin, int origin_count, Datatype origin_dt, Rank target,
                std::uint64_t target_disp, int target_count, Datatype target_dt, Win win) {
  // RMA ops are recorded for the timeline but skip-counted by replay (window
  // geometry is not captured in the trace).
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Put, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(origin_count, origin_dt), target};
  });
  return rma_op(win, {.kind = RmaOp::Kind::Put,
                      .target = target,
                      .origin_count = origin_count,
                      .origin_dt = origin_dt,
                      .target_count = target_count,
                      .target_dt = target_dt,
                      .disp = target_disp,
                      .origin = origin});
}

Err Engine::put_va(const void* origin, int origin_count, Datatype origin_dt, Rank target,
                   void* target_va, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::PutVa, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(origin_count, origin_dt), target};
  });
  return rma_op(win, {.kind = RmaOp::Kind::PutVa,
                      .target = target,
                      .origin_count = origin_count,
                      .origin_dt = origin_dt,
                      .target_count = origin_count,
                      .target_dt = origin_dt,
                      .origin = origin,
                      .target_va = target_va});
}

Err Engine::get(void* origin, int origin_count, Datatype origin_dt, Rank target,
                std::uint64_t target_disp, int target_count, Datatype target_dt, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Get, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(origin_count, origin_dt), target};
  });
  return rma_op(win, {.kind = RmaOp::Kind::Get,
                      .target = target,
                      .origin_count = origin_count,
                      .origin_dt = origin_dt,
                      .target_count = target_count,
                      .target_dt = target_dt,
                      .disp = target_disp,
                      .origin = origin,
                      .result = origin});
}

Err Engine::accumulate(const void* origin, int count, Datatype dt_, Rank target,
                       std::uint64_t target_disp, ReduceOp op, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Accumulate, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(count, dt_), target};
  });
  return rma_op(win, {.kind = RmaOp::Kind::Acc,
                      .target = target,
                      .origin_count = count,
                      .origin_dt = dt_,
                      .target_count = count,
                      .target_dt = dt_,
                      .op = op,
                      .disp = target_disp,
                      .origin = origin});
}

Err Engine::get_accumulate(const void* origin, int count, Datatype dt_, void* result,
                           Rank target, std::uint64_t target_disp, ReduceOp op, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::GetAccumulate, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(count, dt_), target};
  });
  return rma_op(win, {.kind = RmaOp::Kind::GetAcc,
                      .target = target,
                      .origin_count = count,
                      .origin_dt = dt_,
                      .target_count = count,
                      .target_dt = dt_,
                      .op = op,
                      .disp = target_disp,
                      .origin = origin,
                      .result = result});
}

// Win, target, op (accumulates), origin count, buffer and datatype, then the
// target datatype with the displacement bound, then the access epoch. put_va
// names no target datatype or displacement, and no MPI_PROC_NULL target.
// Accumulates take basic types only (rma_op), so their origin datatype
// carries no charge here.
Err Engine::rma_validate(const WindowLocal* w, const RmaOp& op,
                         std::size_t target_bytes) const noexcept {
  cost::charge(cost::Category::ErrCheck, cost::kErrWinHandle);
  if (w == nullptr) return Err::Win;
  const bool acc = op.kind == RmaOp::Kind::Acc || op.kind == RmaOp::Kind::GetAcc;
  const bool null_ok = op.kind != RmaOp::Kind::PutVa;
  cost::charge(cost::Category::ErrCheck, cost::kErrRankRange + (acc ? cost::kErrOpValid : 0));
  if (!(null_ok && op.target == kProcNull) && (op.target < 0 || op.target >= w->global->nranks)) {
    return Err::Rank;
  }
  if (acc && !coll::op_defined(op.op, op.origin_dt)) return Err::Op;
  if (Err e = check_count(op.origin_count); !ok(e)) return e;
  cost::charge(cost::Category::ErrCheck, cost::kErrBuffer);
  if (op.origin == nullptr && op.origin_count != 0) return Err::Buffer;
  if (!acc) {
    if (Err e = check_datatype(op.origin_dt); !ok(e)) return e;
  }
  if (op.target == kProcNull) return Err::Success;
  if (op.kind != RmaOp::Kind::PutVa) {
    cost::charge(cost::Category::ErrCheck, cost::kErrDispRange);
    if (!types_.committed_or_builtin(op.target_dt)) return Err::Datatype;
    std::uint64_t off = 0;
    const auto& peer = w->global->peers[static_cast<std::size_t>(op.target)];
    if (Err e = rma_offset(peer, op.disp, target_bytes, &off); !ok(e)) return e;
  }
  // Fence, lock_all and PSCW epochs cover every target; a lock covers its own.
  const WindowLocal::Epoch ep = w->epoch.load(std::memory_order_relaxed);
  if (ep == WindowLocal::Epoch::Fence || ep == WindowLocal::Epoch::LockAll ||
      ep == WindowLocal::Epoch::Pscw) {
    return Err::Success;
  }
  const std::uint8_t h =
      w->lock_held[static_cast<std::size_t>(op.target)].load(std::memory_order_acquire);
  return h == kLockShared || h == kLockExclusive ? Err::Success : Err::RmaSync;
}

Err Engine::rma_op(Win win, RmaOp op) {
  const bool acc = op.kind == RmaOp::Kind::Acc || op.kind == RmaOp::Kind::GetAcc;
  // get_accumulate is outside the model: it charges its gate and checks only.
  const bool modeled = op.kind != RmaOp::Kind::GetAcc;
  if (modeled && !cfg_.ipo) {
    cost::charge(cost::Category::CallOverhead, cost::kCallEntry + cost::kCallPmpiAliasRma);
  }
  WindowLocal* w = win_obj(win);
  VciGate gate(w == nullptr ? nullptr : vcis_[w->vci].get(), cfg_.thread_safety,
               cost::kThreadGateRma);
  if (acc && !is_builtin(op.origin_dt)) return Err::Datatype;  // in every build
  const std::size_t tbytes = dt::packed_size(types_, op.target_count, op.target_dt);
  if (cfg_.error_checking) {
    if (Err e = rma_validate(w, op, tbytes); !ok(e)) return e;
  }
  if (w == nullptr) return Err::Win;
  if (op.kind == RmaOp::Kind::PutVa && device_ != DeviceKind::Ch4) return Err::NotSupported;
  if (modeled && op.kind != RmaOp::Kind::PutVa) {
    cost::charge(cost::Category::MandProcNull, cost::kMandProcNull);
  }
  if (op.target == kProcNull) return Err::Success;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaOp);
  if (op.kind == RmaOp::Kind::Put) rt::spin_for_ns(sim_put_ns_);  // simulated-CPU mode
  const auto& peer = w->global->peers[static_cast<std::size_t>(op.target)];
  if (op.kind != RmaOp::Kind::PutVa) {
    if (Err e = rma_offset(peer, op.disp, tbytes, &op.offset); !ok(e)) return e;
  }

  if (device_ == DeviceKind::Orig) {
    // CH3-style: analyze, record, defer. A put's layered path is charged
    // here, and every op is issued as an active message at synchronization.
    if (op.kind == RmaOp::Kind::Put) {
      cost::charge(cost::Category::OrigLayering,
                   cost::kOrigPutLayerCalls + cost::kOrigPutGenericChecks +
                       cost::kOrigPutAmBuild + cost::kOrigPutOpQueue +
                       cost::kOrigPutPt2ptIssue);
      cost::charge(cost::Category::MandObject, cost::kMandObjectDeref);
      comm_obj(w->comm)->map.to_world(op.target);  // translation still happens
    }
    if (op.kind != RmaOp::Kind::Get) op.pack(types_);
    w->pending.push_back(std::move(op));
    return Err::Success;
  }

  // ch4: window object access + netmod selection.
  if (modeled) {
    cost::charge(cost::Category::MandObject, cost::kMandObjectDeref);
    if (op.kind == RmaOp::Kind::Put && !cfg_.ipo) {
      cost::charge(cost::Category::Redundant, cost::kRedundantWinAttrs);
      cost::charge(cost::Category::Redundant, cost::kRedundantDatatypeResolve);
      cost::charge(cost::Category::Redundant, cost::kRedundantGenericCompletion);
    }
    comm_obj(w->comm)->map.to_world(op.target);  // network address translation
    if (!acc) cost::charge(cost::Category::MandLocality, cost::kMandLocalitySelect);
    cost::charge(cost::Category::MandRequest, cost::kMandRmaOpTracking);
  }
  if (op.kind != RmaOp::Kind::PutVa &&
      !(types_.is_contiguous(op.origin_dt) && types_.is_contiguous(op.target_dt))) {
    rma_am(*w, op);
    return Err::Success;
  }
  // Direct access. put_va's proposal saves the offset -> virtual address
  // translation (Section 3.2).
  if (modeled) {
    if (op.kind != RmaOp::Kind::PutVa) cost::charge(cost::Category::MandVa, cost::kMandVaTranslate);
    cost::charge(cost::Category::MandInject, cost::kMandInjectResidualRma);
  }
  fabric_.charge_injection(self_, w->global->world_ranks[static_cast<std::size_t>(op.target)]);
  std::byte* at = op.kind == RmaOp::Kind::PutVa ? static_cast<std::byte*>(op.target_va)
                                                : peer.base + op.offset;
  const std::size_t n = std::min(dt::packed_size(types_, op.origin_count, op.origin_dt), tbytes);
  switch (op.kind) {
    case RmaOp::Kind::Put: std::memcpy(at, op.origin, n); return Err::Success;
    case RmaOp::Kind::PutVa:
      dt::pack(types_, op.origin, op.origin_count, op.origin_dt, at);
      return Err::Success;
    case RmaOp::Kind::Get: std::memcpy(op.result, at, n); return Err::Success;
    case RmaOp::Kind::Acc:
    case RmaOp::Kind::GetAcc: break;
  }
  std::lock_guard<std::mutex> lk(*w->global->acc_locks[static_cast<std::size_t>(op.target)]);
  if (op.kind == RmaOp::Kind::GetAcc) std::memcpy(op.result, at, n);  // fetch the old value
  return coll::apply_op(op.op, op.origin_dt, at, op.origin,
                        static_cast<std::size_t>(op.origin_count));
}

rt::Packet* Engine::am_packet(rt::PacketKind kind, std::uint8_t vci, std::uint32_t win_id) const {
  rt::Packet* pkt = rt::PacketPool::alloc();
  pkt->hdr.kind = kind;
  pkt->hdr.vci = vci;
  pkt->hdr.src_world = self_;
  pkt->hdr.win_id = win_id;
  return pkt;
}

void Engine::rma_am(WindowLocal& w, RmaOp& op) {
  rt::PacketKind kind = rt::PacketKind::AmPut;
  if (op.kind == RmaOp::Kind::Get) kind = rt::PacketKind::AmGetReq;
  if (op.kind == RmaOp::Kind::Acc) kind = rt::PacketKind::AmAcc;
  if (op.kind == RmaOp::Kind::GetAcc) kind = rt::PacketKind::AmGetAccReq;
  rt::Packet* pkt = am_packet(kind, static_cast<std::uint8_t>(w.vci), w.global->id);
  pkt->hdr.offset = op.offset;
  pkt->hdr.dt_count = static_cast<std::uint32_t>(op.target_count);
  pkt->hdr.op = static_cast<std::uint16_t>(op.op);
  // A derived target type travels as its flattened layout, ahead of any data.
  pkt->hdr.dt = is_builtin(op.target_dt) ? op.target_dt : kDatatypeNull;
  if (pkt->hdr.dt == kDatatypeNull) pkt->payload = dt::serialize_info(*types_.info(op.target_dt));
  if (op.kind != RmaOp::Kind::Get) {
    if (op.data.empty()) op.pack(types_);  // ch4 packs here, orig at the call
    pkt->hdr.total_bytes = op.data.size();
    if (pkt->payload.empty()) {
      pkt->payload = std::move(op.data);
    } else {
      pkt->payload.insert(pkt->payload.end(), op.data.begin(), op.data.end());
    }
  }
  if (op.kind == RmaOp::Kind::Get || op.kind == RmaOp::Kind::GetAcc) {
    // The reply lands through a request slot (handle_am, AmGetReply).
    const Request r = alloc_request(RequestSlot::Kind::Recv, w.vci);
    RequestSlot* slot = req_slot(r);
    slot->rbuf = op.result;
    slot->rcount = op.origin_count;
    slot->rdt = op.origin_dt;
    pkt->hdr.origin_req = r;
  }
  w.outstanding_acks.fetch_add(1, std::memory_order_release);
  fabric_.inject(self_, w.global->world_ranks[static_cast<std::size_t>(op.target)], pkt);
}

// ---------------------------------------------------------------------------
// Synchronization
// ---------------------------------------------------------------------------

Err Engine::rma_wait_acks(WindowLocal& w, std::uint32_t until) {
  if (fabric_.profile().blackhole) {
    // Infinitely-fast-network methodology: every issued operation is treated
    // as instantaneously remote-complete (nothing was transmitted).
    w.outstanding_acks.store(0, std::memory_order_relaxed);
    return Err::Success;
  }
  // An outer Win_fence/Win_unlock scope keeps its name over "Win_flush".
  block_until("Win_flush",
              [&] { return w.outstanding_acks.load(std::memory_order_acquire) <= until; });
  return Err::Success;
}

Err Engine::orig_flush_pending(WindowLocal& w, Rank target) {
  if (device_ != DeviceKind::Orig) return Err::Success;
  // The deferred-op list is guarded by the window's channel lock (the data
  // movement entry points append under their VciGate). Recursive, so taking
  // it again under an already-gated caller is fine.
  Vci& v = *vcis_[w.vci];
  std::lock_guard<std::recursive_mutex> lk(v.mu);
  std::vector<WindowLocal::PendingOp> keep;
  for (WindowLocal::PendingOp& op : w.pending) {
    if (target >= 0 && op.target != target) {
      keep.push_back(std::move(op));
    } else {
      rma_am(w, op);
    }
  }
  w.pending = std::move(keep);
  return Err::Success;
}

Err Engine::win_fence(Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinFence,
                       [&] { return obs::Surface{surface_vci(win)}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  obs::BlockScope block(*this, "Win_fence");
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaFlush);
  if (Err e = orig_flush_pending(*w, -1); !ok(e)) return e;
  if (Err e = rma_wait_acks(*w, 0); !ok(e)) return e;
  if (Err e = barrier(w->comm); !ok(e)) return e;
  w->epoch.store(WindowLocal::Epoch::Fence, std::memory_order_relaxed);
  return Err::Success;
}

Err Engine::win_flush(Rank target, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinFlush,
                       [&] { return obs::Surface{surface_vci(win), 0, target}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaFlush);
  if (Err e = orig_flush_pending(*w, target); !ok(e)) return e;
  // Per-target ack tracking is aggregate here; waiting for zero is a
  // (correct) over-approximation of flushing one target.
  return rma_wait_acks(*w, 0);
}

Err Engine::win_flush_all(Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinFlush,
                       [&] { return obs::Surface{surface_vci(win), 0, -1}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaFlush);
  if (Err e = orig_flush_pending(*w, -1); !ok(e)) return e;
  return rma_wait_acks(*w, 0);
}

Err Engine::win_lock(LockType type, Rank target, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinLock, [&] {
    return obs::Surface{surface_vci(win), 0, target, static_cast<int>(type)};
  });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  if (target < 0 || target >= w->global->nranks) return Err::Rank;
  std::atomic<std::uint8_t>& held = w->lock_held[static_cast<std::size_t>(target)];
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRankRange);
    if (type != LockType::Exclusive && type != LockType::Shared) return Err::LockType;
    if (held.load(std::memory_order_acquire) != kLockNone) return Err::RmaSync;
  }
  if (device_ == DeviceKind::Ch4) {
    // Direct path: take the target's lock like the NIC would.
    auto& mtx = *w->global->rma_locks[static_cast<std::size_t>(target)];
    block_until("Win_lock", [&] {
      return type == LockType::Exclusive ? mtx.try_lock() : mtx.try_lock_shared();
    });
    held.store(type == LockType::Exclusive ? kLockExclusive : kLockShared,
               std::memory_order_release);
    return Err::Success;
  }

  // Orig: lock request AM; wait for the grant (recorded by the AM handler).
  held.store(kLockPendingGrant, std::memory_order_release);
  rt::Packet* pkt =
      am_packet(rt::PacketKind::AmLockReq, static_cast<std::uint8_t>(w->vci), w->global->id);
  pkt->hdr.lock_type = static_cast<std::uint32_t>(type);
  fabric_.inject(self_, w->global->world_ranks[static_cast<std::size_t>(target)], pkt);
  block_until("Win_lock",
              [&] { return held.load(std::memory_order_acquire) != kLockPendingGrant; });
  return Err::Success;
}

Err Engine::win_unlock(Rank target, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinUnlock,
                       [&] { return obs::Surface{surface_vci(win), 0, target}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  if (target < 0 || target >= w->global->nranks) return Err::Rank;
  std::atomic<std::uint8_t>& state = w->lock_held[static_cast<std::size_t>(target)];
  const std::uint8_t held = state.load(std::memory_order_acquire);
  if (held != kLockShared && held != kLockExclusive) return Err::RmaSync;
  obs::BlockScope block(*this, "Win_unlock");

  // Complete all operations to the target before releasing.
  if (Err e = orig_flush_pending(*w, target); !ok(e)) return e;
  if (Err e = rma_wait_acks(*w, 0); !ok(e)) return e;

  if (device_ == DeviceKind::Ch4) {
    auto& mtx = *w->global->rma_locks[static_cast<std::size_t>(target)];
    if (held == kLockExclusive) {
      mtx.unlock();
    } else {
      mtx.unlock_shared();
    }
    state.store(kLockNone, std::memory_order_release);
    return Err::Success;
  }

  state.store(kLockPendingUnlock, std::memory_order_release);
  rt::Packet* pkt =
      am_packet(rt::PacketKind::AmUnlock, static_cast<std::uint8_t>(w->vci), w->global->id);
  pkt->hdr.lock_type =
      static_cast<std::uint32_t>(held == kLockExclusive ? LockType::Exclusive : LockType::Shared);
  fabric_.inject(self_, w->global->world_ranks[static_cast<std::size_t>(target)], pkt);
  block_until("Win_unlock",
              [&] { return state.load(std::memory_order_acquire) != kLockPendingUnlock; });
  return Err::Success;
}

Err Engine::win_lock_all(Win win) {
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  for (int t = 0; t < w->global->nranks; ++t) {
    if (Err e = win_lock(LockType::Shared, static_cast<Rank>(t), win); !ok(e)) return e;
  }
  w->epoch.store(WindowLocal::Epoch::LockAll, std::memory_order_relaxed);
  return Err::Success;
}

Err Engine::win_unlock_all(Win win) {
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  w->epoch.store(WindowLocal::Epoch::None, std::memory_order_relaxed);
  for (int t = 0; t < w->global->nranks; ++t) {
    if (Err e = win_unlock(static_cast<Rank>(t), win); !ok(e)) return e;
  }
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Generalized active-target synchronization (PSCW)
// ---------------------------------------------------------------------------
//
// win_post sends a post token to every origin in the exposure group;
// win_start blocks until a token from each target has arrived; win_complete
// flushes the epoch's operations and sends completion tokens; win_wait blocks
// until every origin's completion token has arrived. Tokens are counted
// monotonically so an early-arriving token (before the matching start/wait
// call) is never lost.

namespace {
std::vector<Rank> group_world_ranks(Engine& eng, Group g) {
  int n = 0;
  if (eng.group_size(g, &n) != Err::Success) return {};
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  // Translate through a world group to world ranks.
  Group world = kGroupNull;
  if (eng.comm_group(kCommWorld, &world) != Err::Success) return {};
  std::vector<int> out(static_cast<std::size_t>(n));
  const Err e = eng.group_translate_ranks(g, idx, world, out);
  eng.group_free(&world);
  if (e != Err::Success) return {};
  std::vector<Rank> ranks(out.begin(), out.end());
  return ranks;
}
}  // namespace

Err Engine::win_post(Group group, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinPost,
                       [&] { return obs::Surface{surface_vci(win)}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  const std::vector<Rank> origins = group_world_ranks(*this, group);
  if (origins.empty()) {
    int n = 0;
    if (group_size(group, &n) != Err::Success) return Err::Group;
    if (n != 0) return Err::Group;
  }
  w->pscw_exposure_group = origins;
  for (Rank origin : origins) {
    fabric_.inject(self_, origin,
                   am_packet(rt::PacketKind::AmPscwPost, static_cast<std::uint8_t>(w->vci),
                             w->global->id));
  }
  return Err::Success;
}

Err Engine::win_start(Group group, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinStart,
                       [&] { return obs::Surface{surface_vci(win)}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  const std::vector<Rank> targets = group_world_ranks(*this, group);
  w->pscw_access_group = targets;
  // Wait for a post token from every target.
  const auto need = static_cast<std::uint32_t>(targets.size());
  block_until("Win_start",
              [&] { return w->pscw_posts_seen.load(std::memory_order_acquire) >= need; });
  w->pscw_posts_seen.fetch_sub(need, std::memory_order_relaxed);
  w->epoch.store(WindowLocal::Epoch::Pscw, std::memory_order_relaxed);
  return Err::Success;
}

Err Engine::win_complete(Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinComplete,
                       [&] { return obs::Surface{surface_vci(win)}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  if (w->epoch.load(std::memory_order_relaxed) != WindowLocal::Epoch::Pscw) {
    return Err::RmaSync;
  }
  if (Err e = orig_flush_pending(*w, -1); !ok(e)) return e;
  if (Err e = rma_wait_acks(*w, 0); !ok(e)) return e;
  for (Rank target : w->pscw_access_group) {
    fabric_.inject(self_, target,
                   am_packet(rt::PacketKind::AmPscwComplete, static_cast<std::uint8_t>(w->vci),
                             w->global->id));
  }
  w->pscw_access_group.clear();
  w->epoch.store(WindowLocal::Epoch::None, std::memory_order_relaxed);
  return Err::Success;
}

Err Engine::win_wait(Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinWait,
                       [&] { return obs::Surface{surface_vci(win)}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  const auto expected = static_cast<std::uint32_t>(w->pscw_exposure_group.size());
  block_until("Win_wait", [&] {
    return w->pscw_completes_seen.load(std::memory_order_acquire) >= expected;
  });
  w->pscw_completes_seen.fetch_sub(expected, std::memory_order_relaxed);
  w->pscw_exposure_group.clear();
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Target-side active-message servicing
// ---------------------------------------------------------------------------

void Engine::handle_am(rt::Packet* pkt) {
  // Locate the local window attached to this global id. The scan reads only
  // the per-slot atomics (in_use, win_id) so it can safely walk windows owned
  // by other channels; once matched, the window's own channel lock -- which
  // the caller holds, because AM traffic for a window always arrives on that
  // window's lane -- serializes us against win_free.
  WindowLocal* w = nullptr;
  for (std::uint32_t i = 0; i < windows_.size(); ++i) {
    WindowLocal* cand = windows_.at(i);
    if (cand != nullptr && cand->in_use.load(std::memory_order_acquire) &&
        cand->win_id.load(std::memory_order_relaxed) == pkt->hdr.win_id) {
      w = cand;
      break;
    }
  }
  if (w == nullptr) {
    rt::PacketPool::free(pkt);
    return;
  }
  const auto my_rank_in_win = [&]() -> std::size_t {
    const auto& wr = w->global->world_ranks;
    for (std::size_t i = 0; i < wr.size(); ++i) {
      if (wr[i] == self_) return i;
    }
    return 0;
  };
  const std::size_t me = my_rank_in_win();
  std::byte* base = w->global->peers[me].base;
  // A target-side reply stays on the request's channel and names its request.
  const auto reply = [&](rt::PacketKind kind) {
    rt::Packet* r = am_packet(kind, pkt->hdr.vci, pkt->hdr.win_id);
    r->hdr.origin_req = pkt->hdr.origin_req;
    return r;
  };

  switch (pkt->hdr.kind) {
    case rt::PacketKind::AmPut: {
      std::span<const std::byte> body = pkt->payload;
      if (pkt->hdr.dt != kDatatypeNull) {
        dt::unpack(types_, body.data(), pkt->hdr.total_bytes, base + pkt->hdr.offset,
                   static_cast<int>(pkt->hdr.dt_count), pkt->hdr.dt);
      } else if (auto parsed = dt::deserialize_info(body)) {
        dt::unpack_info(parsed->first, body.data() + parsed->second, pkt->hdr.total_bytes,
                        base + pkt->hdr.offset, static_cast<int>(pkt->hdr.dt_count));
      }
      fabric_.inject(self_, pkt->hdr.src_world, reply(rt::PacketKind::AmAck));
      break;
    }
    case rt::PacketKind::AmAcc: {
      std::lock_guard<std::mutex> lk(*w->global->acc_locks[me]);
      coll::apply_op(static_cast<ReduceOp>(pkt->hdr.op), pkt->hdr.dt, base + pkt->hdr.offset,
                     pkt->payload.data(), pkt->hdr.dt_count);
      fabric_.inject(self_, pkt->hdr.src_world, reply(rt::PacketKind::AmAck));
      break;
    }
    case rt::PacketKind::AmGetReq: {
      rt::Packet* data = reply(rt::PacketKind::AmGetReply);
      if (pkt->hdr.dt != kDatatypeNull) {
        data->payload.resize(
            dt::packed_size(types_, static_cast<int>(pkt->hdr.dt_count), pkt->hdr.dt));
        dt::pack(types_, base + pkt->hdr.offset, static_cast<int>(pkt->hdr.dt_count),
                 pkt->hdr.dt, data->payload.data());
      } else if (auto parsed = dt::deserialize_info(pkt->payload)) {
        data->payload.resize(parsed->first.size * pkt->hdr.dt_count);
        dt::pack_info(parsed->first, base + pkt->hdr.offset,
                      static_cast<int>(pkt->hdr.dt_count), data->payload.data());
      }
      fabric_.inject(self_, pkt->hdr.src_world, data);
      break;
    }
    case rt::PacketKind::AmGetAccReq: {
      rt::Packet* old = reply(rt::PacketKind::AmGetAccReply);
      {
        std::lock_guard<std::mutex> lk(*w->global->acc_locks[me]);
        old->payload.resize(pkt->payload.size());
        std::memcpy(old->payload.data(), base + pkt->hdr.offset, pkt->payload.size());
        coll::apply_op(static_cast<ReduceOp>(pkt->hdr.op), pkt->hdr.dt, base + pkt->hdr.offset,
                       pkt->payload.data(), pkt->hdr.dt_count);
      }
      fabric_.inject(self_, pkt->hdr.src_world, old);
      break;
    }
    case rt::PacketKind::AmGetReply:
    case rt::PacketKind::AmGetAccReply: {
      if (RequestSlot* slot = req_slot(pkt->hdr.origin_req)) {
        dt::unpack(types_, pkt->payload.data(), pkt->payload.size(), slot->rbuf, slot->rcount,
                   slot->rdt);
        release_request(pkt->hdr.origin_req);
      }
      if (w->outstanding_acks.load(std::memory_order_relaxed) > 0) {
        w->outstanding_acks.fetch_sub(1, std::memory_order_release);
      }
      break;
    }
    case rt::PacketKind::AmAck: {
      if (w->outstanding_acks.load(std::memory_order_relaxed) > 0) {
        w->outstanding_acks.fetch_sub(1, std::memory_order_release);
      }
      break;
    }
    case rt::PacketKind::AmLockReq: {
      const auto type = static_cast<LockType>(pkt->hdr.lock_type);
      const bool grantable =
          type == LockType::Exclusive ? (!w->excl_held && w->shared_count == 0) : !w->excl_held;
      if (grantable) {
        if (type == LockType::Exclusive) {
          w->excl_held = true;
        } else {
          w->shared_count += 1;
        }
        rt::Packet* grant = reply(rt::PacketKind::AmLockGrant);
        grant->hdr.lock_type = pkt->hdr.lock_type;
        fabric_.inject(self_, pkt->hdr.src_world, grant);
      } else {
        w->lock_waiters.push_back(WindowLocal::LockWaiter{pkt->hdr.src_world, type});
      }
      break;
    }
    case rt::PacketKind::AmLockGrant: {
      // Mark the grant against the target (the grant's sender).
      const auto& wr = w->global->world_ranks;
      for (std::size_t i = 0; i < wr.size(); ++i) {
        if (wr[i] == pkt->hdr.src_world) {
          w->lock_held[i].store(
              static_cast<LockType>(pkt->hdr.lock_type) == LockType::Exclusive
                  ? kLockExclusive
                  : kLockShared,
              std::memory_order_release);
          break;
        }
      }
      break;
    }
    case rt::PacketKind::AmUnlock: {
      if (static_cast<LockType>(pkt->hdr.lock_type) == LockType::Exclusive) {
        w->excl_held = false;
      } else if (w->shared_count > 0) {
        w->shared_count -= 1;
      }
      // Grant as many queued waiters as the new state allows. Waiters' grants
      // stay on the same channel as the unlock that released them (one window
      // -> one lane, so the vcis coincide).
      while (!w->lock_waiters.empty()) {
        const WindowLocal::LockWaiter next = w->lock_waiters.front();
        const bool grantable = next.type == LockType::Exclusive
                                   ? (!w->excl_held && w->shared_count == 0)
                                   : !w->excl_held;
        if (!grantable) break;
        w->lock_waiters.pop_front();
        if (next.type == LockType::Exclusive) {
          w->excl_held = true;
        } else {
          w->shared_count += 1;
        }
        rt::Packet* grant = reply(rt::PacketKind::AmLockGrant);
        grant->hdr.lock_type = static_cast<std::uint32_t>(next.type);
        fabric_.inject(self_, next.origin_world, grant);
      }
      fabric_.inject(self_, pkt->hdr.src_world, reply(rt::PacketKind::AmUnlockAck));
      break;
    }
    case rt::PacketKind::AmPscwPost: {
      w->pscw_posts_seen.fetch_add(1, std::memory_order_release);
      break;
    }
    case rt::PacketKind::AmPscwComplete: {
      w->pscw_completes_seen.fetch_add(1, std::memory_order_release);
      break;
    }
    case rt::PacketKind::AmUnlockAck: {
      const auto& wr = w->global->world_ranks;
      for (std::size_t i = 0; i < wr.size(); ++i) {
        if (wr[i] == pkt->hdr.src_world) {
          w->lock_held[i].store(kLockNone, std::memory_order_release);
          break;
        }
      }
      break;
    }
    default:
      break;
  }
  rt::PacketPool::free(pkt);
}

}  // namespace lwmpi
