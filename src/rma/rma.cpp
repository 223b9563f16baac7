// One-sided communication.
//
// Window creation is collective. Data movement has three concrete paths:
//   1. ch4 "native" path -- contiguous data, implemented as a direct memory
//      access into the target's exposed region (the in-process analog of
//      RDMA); accumulates take the target's accumulate lock for atomicity.
//   2. ch4 active-message fallback -- noncontiguous layouts ride AM packets
//      serviced by the target's progress engine, acknowledged for flush.
//   3. orig (CH3-style) path -- *every* operation is recorded in a deferred
//      operation list and issued as active messages at synchronization,
//      which is exactly what makes MPI_PUT cost ~1342 instructions there.
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
  const std::uint64_t off = target_disp * static_cast<std::uint64_t>(peer.disp_unit);
  if (off > peer.bytes) return Err::Disp;
  *addr = peer.base + off;
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Epoch checking
// ---------------------------------------------------------------------------

Err Engine::rma_check_epoch(const WindowLocal& w, Rank target) const noexcept {
  const WindowLocal::Epoch ep = w.epoch.load(std::memory_order_relaxed);
  if (ep == WindowLocal::Epoch::Fence || ep == WindowLocal::Epoch::LockAll ||
      ep == WindowLocal::Epoch::Pscw) {
    return Err::Success;
  }
  if (target >= 0 && target < w.lock_targets) {
    const std::uint8_t h = w.lock_held[static_cast<std::size_t>(target)].load(
        std::memory_order_acquire);
    if (h == kLockShared || h == kLockExclusive) return Err::Success;
  }
  return Err::RmaSync;
}

// ---------------------------------------------------------------------------
// Data movement entry points
// ---------------------------------------------------------------------------

Err Engine::put(const void* origin, int origin_count, Datatype origin_dt, Rank target,
                std::uint64_t target_disp, int target_count, Datatype target_dt, Win win) {
  // RMA ops are recorded for the timeline but skip-counted by replay (window
  // geometry is not captured in the trace).
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Put, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(origin_count, origin_dt), target};
  });
  if (!cfg_.ipo) {
    cost::charge(cost::Category::CallOverhead, cost::kCallEntry + cost::kCallPmpiAliasRma);
  }
  WindowLocal* w = win_obj(win);
  VciGate gate(w == nullptr ? nullptr : vcis_[w->vci].get(), cfg_.thread_safety,
               cost::kThreadGateRma);
  if (cfg_.error_checking) {
    if (Err e = check_win(win); !ok(e)) return e;
    cost::charge(cost::Category::ErrCheck, cost::kErrRankRange);
    if (target != kProcNull && (target < 0 || target >= w->global->nranks)) return Err::Rank;
    if (Err e = check_count(origin_count); !ok(e)) return e;
    if (Err e = check_buffer(origin, origin_count); !ok(e)) return e;
    if (Err e = check_datatype(origin_dt); !ok(e)) return e;
    if (target != kProcNull) {
      // Target datatype and displacement bounds validate together.
      cost::charge(cost::Category::ErrCheck, cost::kErrDispRange);
      if (!types_.committed_or_builtin(target_dt)) return Err::Datatype;
      const auto& peer = w->global->peers[static_cast<std::size_t>(target)];
      const std::uint64_t need = target_disp * static_cast<std::uint64_t>(peer.disp_unit) +
                                 dt::packed_size(types_, target_count, target_dt);
      if (need > peer.bytes) return Err::Disp;
      if (Err e = rma_check_epoch(*w, target); !ok(e)) return e;
    }
  }
  if (w == nullptr) return Err::Win;

  cost::charge(cost::Category::MandProcNull, cost::kMandProcNull);
  if (target == kProcNull) return Err::Success;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaOp);
  rt::spin_for_ns(sim_put_ns_);  // simulated-CPU mode

  if (device_ == DeviceKind::Orig) {
    // CH3-style: analyze, record, defer. The layered path is charged here and
    // the operation is issued as an active message at synchronization.
    cost::charge(cost::Category::OrigLayering, cost::kOrigPutLayerCalls);
    cost::charge(cost::Category::OrigLayering, cost::kOrigPutGenericChecks);
    cost::charge(cost::Category::MandObject, cost::kMandObjectDeref);
    comm_obj(w->comm)->map.to_world(target);  // translation still happens
    cost::charge(cost::Category::OrigLayering, cost::kOrigPutAmBuild);
    WindowLocal::PendingOp op;
    op.kind = WindowLocal::PendingOp::Kind::Put;
    op.target = target;
    op.disp = target_disp;
    op.target_count = target_count;
    op.target_dt = target_dt;
    op.data.resize(dt::packed_size(types_, origin_count, origin_dt));
    dt::pack(types_, origin, origin_count, origin_dt, op.data.data());
    cost::charge(cost::Category::OrigLayering, cost::kOrigPutOpQueue);
    cost::charge(cost::Category::OrigLayering, cost::kOrigPutPt2ptIssue);
    w->pending.push_back(std::move(op));
    return Err::Success;
  }

  // ch4: window object access + netmod selection.
  cost::charge(cost::Category::MandObject, cost::kMandObjectDeref);
  if (!cfg_.ipo) {
    cost::charge(cost::Category::Redundant, cost::kRedundantWinAttrs);
    cost::charge(cost::Category::Redundant, cost::kRedundantDatatypeResolve);
    cost::charge(cost::Category::Redundant, cost::kRedundantGenericCompletion);
  }
  comm_obj(w->comm)->map.to_world(target);  // network address translation
  cost::charge(cost::Category::MandLocality, cost::kMandLocalitySelect);
  cost::charge(cost::Category::MandRequest, cost::kMandRmaOpTracking);

  if (types_.is_contiguous(origin_dt) && types_.is_contiguous(target_dt)) {
    return rma_direct_put(*w, origin, origin_count, origin_dt, target, target_disp,
                          target_count, target_dt);
  }
  return rma_am_put(*w, win, origin, origin_count, origin_dt, target, target_disp,
                    target_count, target_dt);
}

Err Engine::rma_direct_put(WindowLocal& w, const void* origin, int ocount, Datatype odt,
                           Rank target, std::uint64_t target_disp, int tcount, Datatype tdt) {
  const auto& peer = w.global->peers[static_cast<std::size_t>(target)];
  // Offset -> virtual address translation (Section 3.2).
  cost::charge(cost::Category::MandVa, cost::kMandVaTranslate);
  std::byte* dst = peer.base + target_disp * static_cast<std::uint64_t>(peer.disp_unit);
  const std::size_t obytes = dt::packed_size(types_, ocount, odt);
  const std::size_t tbytes = dt::packed_size(types_, tcount, tdt);
  const std::size_t n = std::min(obytes, tbytes);
  cost::charge(cost::Category::MandInject, cost::kMandInjectResidualRma);
  const Rank dst_world = w.global->world_ranks[static_cast<std::size_t>(target)];
  fabric_.charge_injection(self_, dst_world);  // descriptor cost, no packet
  std::memcpy(dst, origin, n);
  return Err::Success;
}

Err Engine::rma_am_put(WindowLocal& w, Win /*win*/, const void* origin, int ocount,
                       Datatype odt, Rank target, std::uint64_t target_disp, int tcount,
                       Datatype tdt) {
  const auto& peer = w.global->peers[static_cast<std::size_t>(target)];
  rt::Packet* pkt = rt::PacketPool::alloc();
  pkt->hdr.kind = rt::PacketKind::AmPut;
  pkt->hdr.vci = static_cast<std::uint8_t>(w.vci);
  pkt->hdr.src_world = self_;
  pkt->hdr.win_id = w.global->id;
  pkt->hdr.offset = target_disp * static_cast<std::uint64_t>(peer.disp_unit);
  pkt->hdr.dt_count = static_cast<std::uint32_t>(tcount);

  const std::size_t data_bytes = dt::packed_size(types_, ocount, odt);
  if (is_builtin(tdt)) {
    pkt->hdr.dt = tdt;
    pkt->payload.resize(data_bytes);
    dt::pack(types_, origin, ocount, odt, pkt->payload.data());
  } else {
    // Ship the flattened target layout ahead of the data.
    pkt->hdr.dt = kDatatypeNull;
    const std::vector<std::byte> blob = dt::serialize_info(*types_.info(tdt));
    pkt->payload.resize(blob.size() + data_bytes);
    std::memcpy(pkt->payload.data(), blob.data(), blob.size());
    dt::pack(types_, origin, ocount, odt, pkt->payload.data() + blob.size());
  }
  pkt->hdr.total_bytes = data_bytes;

  w.outstanding_acks.fetch_add(1, std::memory_order_release);
  const Rank dst_world = w.global->world_ranks[static_cast<std::size_t>(target)];
  fabric_.inject(self_, dst_world, pkt);
  return Err::Success;
}

Err Engine::put_va(const void* origin, int origin_count, Datatype origin_dt, Rank target,
                   void* target_va, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::PutVa, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(origin_count, origin_dt), target};
  });
  if (!cfg_.ipo) {
    cost::charge(cost::Category::CallOverhead, cost::kCallEntry + cost::kCallPmpiAliasRma);
  }
  WindowLocal* w = win_obj(win);
  VciGate gate(w == nullptr ? nullptr : vcis_[w->vci].get(), cfg_.thread_safety,
               cost::kThreadGateRma);
  if (cfg_.error_checking) {
    if (Err e = check_win(win); !ok(e)) return e;
    cost::charge(cost::Category::ErrCheck, cost::kErrRankRange);
    if (target < 0 || target >= w->global->nranks) return Err::Rank;
    if (Err e = check_count(origin_count); !ok(e)) return e;
    if (Err e = check_buffer(origin, origin_count); !ok(e)) return e;
    if (Err e = check_datatype(origin_dt); !ok(e)) return e;
    if (Err e = rma_check_epoch(*w, target); !ok(e)) return e;
  }
  if (w == nullptr) return Err::Win;
  if (device_ != DeviceKind::Ch4) return Err::NotSupported;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaOp);

  // The proposal's payoff: no window-kind check, no offset->VA translation.
  cost::charge(cost::Category::MandObject, cost::kMandObjectDeref);
  comm_obj(w->comm)->map.to_world(target);
  cost::charge(cost::Category::MandLocality, cost::kMandLocalitySelect);
  cost::charge(cost::Category::MandRequest, cost::kMandRmaOpTracking);
  cost::charge(cost::Category::MandInject, cost::kMandInjectResidualRma);
  const Rank dst_world = w->global->world_ranks[static_cast<std::size_t>(target)];
  fabric_.charge_injection(self_, dst_world);
  const std::size_t n = dt::packed_size(types_, origin_count, origin_dt);
  if (types_.is_contiguous(origin_dt)) {
    std::memcpy(target_va, origin, n);
  } else {
    std::vector<std::byte> tmp(n);
    dt::pack(types_, origin, origin_count, origin_dt, tmp.data());
    std::memcpy(target_va, tmp.data(), n);
  }
  return Err::Success;
}

Err Engine::get(void* origin, int origin_count, Datatype origin_dt, Rank target,
                std::uint64_t target_disp, int target_count, Datatype target_dt, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Get, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(origin_count, origin_dt), target};
  });
  if (!cfg_.ipo) {
    cost::charge(cost::Category::CallOverhead, cost::kCallEntry + cost::kCallPmpiAliasRma);
  }
  WindowLocal* w = win_obj(win);
  VciGate gate(w == nullptr ? nullptr : vcis_[w->vci].get(), cfg_.thread_safety,
               cost::kThreadGateRma);
  if (cfg_.error_checking) {
    if (Err e = check_win(win); !ok(e)) return e;
    cost::charge(cost::Category::ErrCheck, cost::kErrRankRange);
    if (target != kProcNull && (target < 0 || target >= w->global->nranks)) return Err::Rank;
    if (Err e = check_count(origin_count); !ok(e)) return e;
    if (Err e = check_buffer(origin, origin_count); !ok(e)) return e;
    if (Err e = check_datatype(origin_dt); !ok(e)) return e;
    if (target != kProcNull) {
      cost::charge(cost::Category::ErrCheck, cost::kErrDispRange);
      if (!types_.committed_or_builtin(target_dt)) return Err::Datatype;
      if (Err e = rma_check_epoch(*w, target); !ok(e)) return e;
    }
  }
  if (w == nullptr) return Err::Win;
  cost::charge(cost::Category::MandProcNull, cost::kMandProcNull);
  if (target == kProcNull) return Err::Success;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaOp);

  if (device_ == DeviceKind::Orig) {
    WindowLocal::PendingOp op;
    op.kind = WindowLocal::PendingOp::Kind::Get;
    op.target = target;
    op.disp = target_disp;
    op.target_count = target_count;
    op.target_dt = target_dt;
    op.result = origin;
    op.result_count = origin_count;
    op.result_dt = origin_dt;
    w->pending.push_back(std::move(op));
    return Err::Success;
  }

  cost::charge(cost::Category::MandObject, cost::kMandObjectDeref);
  comm_obj(w->comm)->map.to_world(target);
  cost::charge(cost::Category::MandLocality, cost::kMandLocalitySelect);
  cost::charge(cost::Category::MandRequest, cost::kMandRmaOpTracking);

  const auto& peer = w->global->peers[static_cast<std::size_t>(target)];
  if (types_.is_contiguous(origin_dt) && types_.is_contiguous(target_dt)) {
    cost::charge(cost::Category::MandVa, cost::kMandVaTranslate);
    cost::charge(cost::Category::MandInject, cost::kMandInjectResidualRma);
    const Rank dst_world = w->global->world_ranks[static_cast<std::size_t>(target)];
    fabric_.charge_injection(self_, dst_world);
    const std::byte* src =
        peer.base + target_disp * static_cast<std::uint64_t>(peer.disp_unit);
    const std::size_t n = std::min(dt::packed_size(types_, origin_count, origin_dt),
                                   dt::packed_size(types_, target_count, target_dt));
    std::memcpy(origin, src, n);
    return Err::Success;
  }

  // AM fallback: request the target to pack and reply.
  Request r = alloc_request(RequestSlot::Kind::Recv, w->vci);
  RequestSlot* slot = req_slot(r);
  slot->rbuf = origin;
  slot->rcount = origin_count;
  slot->rdt = origin_dt;

  rt::Packet* pkt = rt::PacketPool::alloc();
  pkt->hdr.kind = rt::PacketKind::AmGetReq;
  pkt->hdr.vci = static_cast<std::uint8_t>(w->vci);
  pkt->hdr.src_world = self_;
  pkt->hdr.win_id = w->global->id;
  pkt->hdr.offset = target_disp * static_cast<std::uint64_t>(peer.disp_unit);
  pkt->hdr.origin_req = r;
  pkt->hdr.dt_count = static_cast<std::uint32_t>(target_count);
  if (is_builtin(target_dt)) {
    pkt->hdr.dt = target_dt;
  } else {
    pkt->hdr.dt = kDatatypeNull;
    pkt->payload = dt::serialize_info(*types_.info(target_dt));
  }
  w->outstanding_acks.fetch_add(1, std::memory_order_release);
  const Rank dst_world = w->global->world_ranks[static_cast<std::size_t>(target)];
  fabric_.inject(self_, dst_world, pkt);
  return Err::Success;
}

Err Engine::accumulate(const void* origin, int count, Datatype dt_, Rank target,
                       std::uint64_t target_disp, ReduceOp op, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Accumulate, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(count, dt_), target};
  });
  if (!cfg_.ipo) {
    cost::charge(cost::Category::CallOverhead, cost::kCallEntry + cost::kCallPmpiAliasRma);
  }
  WindowLocal* w = win_obj(win);
  VciGate gate(w == nullptr ? nullptr : vcis_[w->vci].get(), cfg_.thread_safety,
               cost::kThreadGateRma);
  if (w == nullptr) return Err::Win;
  if (cfg_.error_checking) {
    if (Err e = check_win(win); !ok(e)) return e;
    cost::charge(cost::Category::ErrCheck,
                 cost::kErrRankRange + cost::kErrOpValid);
    if (target != kProcNull && (target < 0 || target >= w->global->nranks)) return Err::Rank;
    if (!coll::op_defined(op, dt_)) return Err::Op;
    if (Err e = check_count(count); !ok(e)) return e;
    if (Err e = check_buffer(origin, count); !ok(e)) return e;
    if (target != kProcNull) {
      if (Err e = rma_check_epoch(*w, target); !ok(e)) return e;
    }
  }
  if (!is_builtin(dt_)) return Err::Datatype;  // predefined ops, basic types
  cost::charge(cost::Category::MandProcNull, cost::kMandProcNull);
  if (target == kProcNull) return Err::Success;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaOp);

  if (device_ == DeviceKind::Orig) {
    WindowLocal::PendingOp pop;
    pop.kind = WindowLocal::PendingOp::Kind::Acc;
    pop.target = target;
    pop.disp = target_disp;
    pop.target_count = count;
    pop.target_dt = dt_;
    pop.op = op;
    pop.data.resize(static_cast<std::size_t>(count) * builtin_size(dt_));
    dt::pack(types_, origin, count, dt_, pop.data.data());
    w->pending.push_back(std::move(pop));
    return Err::Success;
  }

  cost::charge(cost::Category::MandObject, cost::kMandObjectDeref);
  comm_obj(w->comm)->map.to_world(target);
  cost::charge(cost::Category::MandVa, cost::kMandVaTranslate);
  cost::charge(cost::Category::MandRequest, cost::kMandRmaOpTracking);
  cost::charge(cost::Category::MandInject, cost::kMandInjectResidualRma);

  const auto& peer = w->global->peers[static_cast<std::size_t>(target)];
  std::byte* dst = peer.base + target_disp * static_cast<std::uint64_t>(peer.disp_unit);
  const Rank dst_world = w->global->world_ranks[static_cast<std::size_t>(target)];
  fabric_.charge_injection(self_, dst_world);
  std::lock_guard<std::mutex> lk(*w->global->acc_locks[static_cast<std::size_t>(target)]);
  return coll::apply_op(op, dt_, dst, origin, static_cast<std::size_t>(count));
}

Err Engine::get_accumulate(const void* origin, int count, Datatype dt_, void* result,
                           Rank target, std::uint64_t target_disp, ReduceOp op, Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::GetAccumulate, [&] {
    return obs::Surface{surface_vci(win), surface_bytes(count, dt_), target};
  });
  WindowLocal* w = win_obj(win);
  VciGate gate(w == nullptr ? nullptr : vcis_[w->vci].get(), cfg_.thread_safety,
               cost::kThreadGateRma);
  if (w == nullptr) return Err::Win;
  if (!is_builtin(dt_)) return Err::Datatype;
  if (cfg_.error_checking) {
    if (target != kProcNull && (target < 0 || target >= w->global->nranks)) return Err::Rank;
    if (!coll::op_defined(op, dt_)) return Err::Op;
    if (target != kProcNull) {
      if (Err e = rma_check_epoch(*w, target); !ok(e)) return e;
    }
  }
  if (target == kProcNull) return Err::Success;
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaOp);
  const std::size_t bytes = static_cast<std::size_t>(count) * builtin_size(dt_);

  if (device_ == DeviceKind::Orig) {
    WindowLocal::PendingOp pop;
    pop.kind = WindowLocal::PendingOp::Kind::GetAcc;
    pop.target = target;
    pop.disp = target_disp;
    pop.target_count = count;
    pop.target_dt = dt_;
    pop.op = op;
    pop.result = result;
    pop.result_count = count;
    pop.result_dt = dt_;
    pop.data.resize(bytes);
    dt::pack(types_, origin, count, dt_, pop.data.data());
    w->pending.push_back(std::move(pop));
    return Err::Success;
  }

  const auto& peer = w->global->peers[static_cast<std::size_t>(target)];
  std::byte* dst = peer.base + target_disp * static_cast<std::uint64_t>(peer.disp_unit);
  const Rank dst_world = w->global->world_ranks[static_cast<std::size_t>(target)];
  fabric_.charge_injection(self_, dst_world);
  std::lock_guard<std::mutex> lk(*w->global->acc_locks[static_cast<std::size_t>(target)]);
  std::memcpy(result, dst, bytes);  // fetch old value
  if (op == ReduceOp::NoOp) return Err::Success;
  return coll::apply_op(op, dt_, dst, origin, static_cast<std::size_t>(count));
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

Err Engine::orig_flush_pending(WindowLocal& w, Win win, Rank target) {
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
      continue;
    }
    const auto& peer = w.global->peers[static_cast<std::size_t>(op.target)];
    const Rank dst_world = w.global->world_ranks[static_cast<std::size_t>(op.target)];
    rt::Packet* pkt = rt::PacketPool::alloc();
    pkt->hdr.vci = static_cast<std::uint8_t>(w.vci);
    pkt->hdr.src_world = self_;
    pkt->hdr.win_id = w.global->id;
    pkt->hdr.offset = op.disp * static_cast<std::uint64_t>(peer.disp_unit);
    pkt->hdr.dt_count = static_cast<std::uint32_t>(op.target_count);
    pkt->hdr.op = static_cast<std::uint16_t>(op.op);
    switch (op.kind) {
      case WindowLocal::PendingOp::Kind::Put: {
        pkt->hdr.kind = rt::PacketKind::AmPut;
        pkt->hdr.total_bytes = op.data.size();
        if (is_builtin(op.target_dt)) {
          pkt->hdr.dt = op.target_dt;
          pkt->payload = std::move(op.data);
        } else {
          pkt->hdr.dt = kDatatypeNull;
          const std::vector<std::byte> blob = dt::serialize_info(*types_.info(op.target_dt));
          pkt->payload.resize(blob.size() + op.data.size());
          std::memcpy(pkt->payload.data(), blob.data(), blob.size());
          std::memcpy(pkt->payload.data() + blob.size(), op.data.data(), op.data.size());
        }
        break;
      }
      case WindowLocal::PendingOp::Kind::Acc: {
        pkt->hdr.kind = rt::PacketKind::AmAcc;
        pkt->hdr.dt = op.target_dt;
        pkt->payload = std::move(op.data);
        pkt->hdr.total_bytes = pkt->payload.size();
        break;
      }
      case WindowLocal::PendingOp::Kind::Get: {
        pkt->hdr.kind = rt::PacketKind::AmGetReq;
        Request r = alloc_request(RequestSlot::Kind::Recv, w.vci);
        RequestSlot* slot = req_slot(r);
        slot->rbuf = op.result;
        slot->rcount = op.result_count;
        slot->rdt = op.result_dt;
        pkt->hdr.origin_req = r;
        if (is_builtin(op.target_dt)) {
          pkt->hdr.dt = op.target_dt;
        } else {
          pkt->hdr.dt = kDatatypeNull;
          pkt->payload = dt::serialize_info(*types_.info(op.target_dt));
        }
        break;
      }
      case WindowLocal::PendingOp::Kind::GetAcc: {
        pkt->hdr.kind = rt::PacketKind::AmGetAccReq;
        Request r = alloc_request(RequestSlot::Kind::Recv, w.vci);
        RequestSlot* slot = req_slot(r);
        slot->rbuf = op.result;
        slot->rcount = op.result_count;
        slot->rdt = op.result_dt;
        pkt->hdr.origin_req = r;
        pkt->hdr.dt = op.target_dt;
        pkt->payload = std::move(op.data);
        break;
      }
    }
    w.outstanding_acks.fetch_add(1, std::memory_order_release);
    fabric_.inject(self_, dst_world, pkt);
  }
  w.pending = std::move(keep);
  (void)win;
  return Err::Success;
}

Err Engine::win_fence(Win win) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::WinFence,
                       [&] { return obs::Surface{surface_vci(win)}; });
  WindowLocal* w = win_obj(win);
  if (w == nullptr) return Err::Win;
  obs::BlockScope block(*this, "Win_fence");
  vcis_[w->vci]->counters.inc(obs::VciCtr::RmaFlush);
  if (Err e = orig_flush_pending(*w, win, -1); !ok(e)) return e;
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
  if (Err e = orig_flush_pending(*w, win, target); !ok(e)) return e;
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
  if (Err e = orig_flush_pending(*w, win, -1); !ok(e)) return e;
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
  rt::Packet* pkt = rt::PacketPool::alloc();
  pkt->hdr.kind = rt::PacketKind::AmLockReq;
  pkt->hdr.vci = static_cast<std::uint8_t>(w->vci);
  pkt->hdr.src_world = self_;
  pkt->hdr.win_id = w->global->id;
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
  if (Err e = orig_flush_pending(*w, win, target); !ok(e)) return e;
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
  rt::Packet* pkt = rt::PacketPool::alloc();
  pkt->hdr.kind = rt::PacketKind::AmUnlock;
  pkt->hdr.vci = static_cast<std::uint8_t>(w->vci);
  pkt->hdr.src_world = self_;
  pkt->hdr.win_id = w->global->id;
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
    rt::Packet* pkt = rt::PacketPool::alloc();
    pkt->hdr.kind = rt::PacketKind::AmPscwPost;
    pkt->hdr.vci = static_cast<std::uint8_t>(w->vci);
    pkt->hdr.src_world = self_;
    pkt->hdr.win_id = w->global->id;
    fabric_.inject(self_, origin, pkt);
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
  if (Err e = orig_flush_pending(*w, win, -1); !ok(e)) return e;
  if (Err e = rma_wait_acks(*w, 0); !ok(e)) return e;
  for (Rank target : w->pscw_access_group) {
    rt::Packet* pkt = rt::PacketPool::alloc();
    pkt->hdr.kind = rt::PacketKind::AmPscwComplete;
    pkt->hdr.vci = static_cast<std::uint8_t>(w->vci);
    pkt->hdr.src_world = self_;
    pkt->hdr.win_id = w->global->id;
    fabric_.inject(self_, target, pkt);
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

void Engine::send_am_ack(Rank origin_world, std::uint32_t origin_req, std::uint32_t win_id,
                         std::uint8_t vci) {
  rt::Packet* ack = rt::PacketPool::alloc();
  ack->hdr.kind = rt::PacketKind::AmAck;
  ack->hdr.vci = vci;  // stay on the originating operation's channel
  ack->hdr.src_world = self_;
  ack->hdr.win_id = win_id;
  ack->hdr.origin_req = origin_req;
  fabric_.inject(self_, origin_world, ack);
}

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
      send_am_ack(pkt->hdr.src_world, pkt->hdr.origin_req, pkt->hdr.win_id, pkt->hdr.vci);
      break;
    }
    case rt::PacketKind::AmAcc: {
      std::lock_guard<std::mutex> lk(*w->global->acc_locks[me]);
      coll::apply_op(static_cast<ReduceOp>(pkt->hdr.op), pkt->hdr.dt, base + pkt->hdr.offset,
                     pkt->payload.data(), pkt->hdr.dt_count);
      send_am_ack(pkt->hdr.src_world, pkt->hdr.origin_req, pkt->hdr.win_id, pkt->hdr.vci);
      break;
    }
    case rt::PacketKind::AmGetReq: {
      rt::Packet* reply = rt::PacketPool::alloc();
      reply->hdr.kind = rt::PacketKind::AmGetReply;
      reply->hdr.vci = pkt->hdr.vci;
      reply->hdr.src_world = self_;
      reply->hdr.win_id = pkt->hdr.win_id;
      reply->hdr.origin_req = pkt->hdr.origin_req;
      if (pkt->hdr.dt != kDatatypeNull) {
        reply->payload.resize(
            dt::packed_size(types_, static_cast<int>(pkt->hdr.dt_count), pkt->hdr.dt));
        dt::pack(types_, base + pkt->hdr.offset, static_cast<int>(pkt->hdr.dt_count),
                 pkt->hdr.dt, reply->payload.data());
      } else if (auto parsed = dt::deserialize_info(pkt->payload)) {
        reply->payload.resize(parsed->first.size * pkt->hdr.dt_count);
        dt::pack_info(parsed->first, base + pkt->hdr.offset,
                      static_cast<int>(pkt->hdr.dt_count), reply->payload.data());
      }
      fabric_.inject(self_, pkt->hdr.src_world, reply);
      break;
    }
    case rt::PacketKind::AmGetAccReq: {
      rt::Packet* reply = rt::PacketPool::alloc();
      reply->hdr.kind = rt::PacketKind::AmGetAccReply;
      reply->hdr.vci = pkt->hdr.vci;
      reply->hdr.src_world = self_;
      reply->hdr.win_id = pkt->hdr.win_id;
      reply->hdr.origin_req = pkt->hdr.origin_req;
      {
        std::lock_guard<std::mutex> lk(*w->global->acc_locks[me]);
        reply->payload.resize(pkt->payload.size());
        std::memcpy(reply->payload.data(), base + pkt->hdr.offset, pkt->payload.size());
        if (static_cast<ReduceOp>(pkt->hdr.op) != ReduceOp::NoOp) {
          coll::apply_op(static_cast<ReduceOp>(pkt->hdr.op), pkt->hdr.dt,
                         base + pkt->hdr.offset, pkt->payload.data(), pkt->hdr.dt_count);
        }
      }
      fabric_.inject(self_, pkt->hdr.src_world, reply);
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
        rt::Packet* grant = rt::PacketPool::alloc();
        grant->hdr.kind = rt::PacketKind::AmLockGrant;
        grant->hdr.vci = pkt->hdr.vci;
        grant->hdr.src_world = self_;
        grant->hdr.win_id = pkt->hdr.win_id;
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
        rt::Packet* grant = rt::PacketPool::alloc();
        grant->hdr.kind = rt::PacketKind::AmLockGrant;
        grant->hdr.vci = pkt->hdr.vci;
        grant->hdr.src_world = self_;
        grant->hdr.win_id = pkt->hdr.win_id;
        grant->hdr.lock_type = static_cast<std::uint32_t>(next.type);
        fabric_.inject(self_, next.origin_world, grant);
      }
      rt::Packet* ack = rt::PacketPool::alloc();
      ack->hdr.kind = rt::PacketKind::AmUnlockAck;
      ack->hdr.vci = pkt->hdr.vci;
      ack->hdr.src_world = self_;
      ack->hdr.win_id = pkt->hdr.win_id;
      fabric_.inject(self_, pkt->hdr.src_world, ack);
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
