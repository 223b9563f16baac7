// CH4 point-to-point path: the paper's lightweight flow-through device, plus
// the Section-3 proposed-extension entry points. The structure mirrors the
// paper's walk-through: MPI layer (function-call overhead, error checking,
// thread gate) -> ch4 core (locality) -> netmod/shmmod (translation +
// injection), with every step charging its modeled instruction cost.
//
// Thread safety is per VCI: the entry points resolve the communicator's
// channel and gate on *its* lock (core/vci.hpp), so operations on
// communicators mapped to different VCIs never serialize against each other.
#include <cstring>

#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "obs/recorder.hpp"
#include "runtime/backoff.hpp"
#include "runtime/world.hpp"

namespace lwmpi {

// ---------------------------------------------------------------------------
// Public MPI-layer entry points
// ---------------------------------------------------------------------------

Err Engine::isend(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                  Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Isend, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), dest, tag};
  });
  const Err e = isend_impl(buf, count, dt, dest, tag, comm, req);
  if (ok(e)) sc.bind_req(req);
  return e;
}

Err Engine::isend_impl(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                       Request* req) {
  const Prologue pro(*this, {PeerRule::RankOrNull, TagRule::Send}, comm, dest, tag, count, buf,
                     dt);
  if (!ok(pro.err)) return pro.err;
  SendParams p{.buf = buf, .count = count, .dt = dt, .dest = dest, .tag = tag, .comm = comm};
  return device_isend(p, req);
}

Err Engine::irecv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                  Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Irecv, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), src, tag};
  });
  const Err e = irecv_impl(buf, count, dt, src, tag, comm, req);
  if (ok(e)) sc.bind_req(req);
  return e;
}

Err Engine::irecv_impl(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                       Request* req) {
  const Prologue pro(*this, {PeerRule::Source, TagRule::Recv}, comm, src, tag, count, buf, dt);
  if (!ok(pro.err)) return pro.err;
  return post_recv_common(buf, count, dt, src, tag, comm, rt::MatchMode::Full, false, req);
}

// ---------------------------------------------------------------------------
// Section 3 extensions
// ---------------------------------------------------------------------------

Err Engine::isend_global(const void* buf, int count, Datatype dt, Rank world_dest, Tag tag,
                         Comm comm, Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::IsendGlobal, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), world_dest, tag};
  });
  const Prologue pro(*this, {PeerRule::WorldRankOrNull, TagRule::Send}, comm, world_dest, tag,
                     count, buf, dt);
  if (!ok(pro.err)) return pro.err;
  SendParams p{.buf = buf,
               .count = count,
               .dt = dt,
               .dest = world_dest,
               .tag = tag,
               .comm = comm,
               .dest_is_world = true};
  const Err e = device_isend(p, req);
  if (ok(e)) sc.bind_req(req);
  return e;
}

Err Engine::isend_npn(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                      Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::IsendNpn, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), dest, tag};
  });
  // _NPN forbids MPI_PROC_NULL: with checking on, that is a user error.
  const Prologue pro(*this, {PeerRule::RankOnly, TagRule::Send}, comm, dest, tag, count, buf, dt);
  if (!ok(pro.err)) return pro.err;
  SendParams p{.buf = buf,
               .count = count,
               .dt = dt,
               .dest = dest,
               .tag = tag,
               .comm = comm,
               .skip_proc_null_check = true};
  const Err e = device_isend(p, req);
  if (ok(e)) sc.bind_req(req);
  return e;
}

Err Engine::isend_noreq(const void* buf, int count, Datatype dt, Rank dest, Tag tag,
                        Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::IsendNoreq, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), dest, tag};
  });
  const Prologue pro(*this, {PeerRule::RankOrNull, TagRule::Send}, comm, dest, tag, count, buf,
                     dt);
  if (!ok(pro.err)) return pro.err;
  SendParams p{.buf = buf,
               .count = count,
               .dt = dt,
               .dest = dest,
               .tag = tag,
               .comm = comm,
               .noreq = true};
  return device_isend(p, nullptr);
}

Err Engine::comm_waitall(Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::CommWaitall,
                       [&] { return obs::Surface{surface_vci(comm)}; });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  // Progresses at least once: that flushes the device send queue even when
  // nothing is outstanding.
  block_until("Comm_waitall",
              [c] { return c->noreq_outstanding.load(std::memory_order_acquire) == 0; });
  return Err::Success;
}

Err Engine::isend_nomatch(const void* buf, int count, Datatype dt, Rank dest, Comm comm,
                          Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::IsendNomatch, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), dest};
  });
  const Prologue pro(*this, {PeerRule::RankOrNull, TagRule::None}, comm, dest, 0, count, buf, dt);
  if (!ok(pro.err)) return pro.err;
  SendParams p{.buf = buf,
               .count = count,
               .dt = dt,
               .dest = dest,
               .tag = 0,
               .comm = comm,
               .match_mode = rt::MatchMode::ArrivalOrder};
  const Err e = device_isend(p, req);
  if (ok(e)) sc.bind_req(req);
  return e;
}

Err Engine::irecv_nomatch(void* buf, int count, Datatype dt, Comm comm, Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::IrecvNomatch, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), kAnySource};
  });
  const Prologue pro(*this, {.peer = PeerRule::None, .tag = TagRule::None, .gated = false}, comm,
                     kAnySource, kAnyTag, count, buf, dt);
  if (!ok(pro.err)) return pro.err;
  const Err e = post_recv_common(buf, count, dt, kAnySource, kAnyTag, comm,
                                 rt::MatchMode::ArrivalOrder, false, req);
  if (ok(e)) sc.bind_req(req);
  return e;
}

// All proposals combined: the 16-instruction minimal path. `comm` must be a
// predefined handle (its slot index is a compile-time constant in the
// proposal, making the lookup a global-array load); `world_dest` is a stored
// MPI_COMM_WORLD rank; there is no PROC_NULL handling, no per-op request, and
// no source/tag match bits. There is no gate either: the predefined comm owns
// its channel and the packet rides a wait-free fabric lane, so the minimal
// path touches no state that needs the VCI lock, and its channel statistics
// are single-writer because the owner is the only sender.
Err Engine::isend_all_opts(const void* buf, int count, Datatype dt, Rank world_dest,
                           Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::IsendAllOpts, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), world_dest};
  });
  CommObject& c = *comms_.at(handle_payload(comm));  // global-array slot load
  cost::charge(cost::Category::MandObject, cost::kAllOptsCtxLoad);
  cost::charge(cost::Category::MandRankmap, cost::kAllOptsAddrLoad);
  cost::charge(cost::Category::MandLocality, cost::kAllOptsLocality);

  const std::size_t bytes = dt::packed_size(types_, count, dt);
  if (bytes > eager_threshold_) {
    // Large messages leave the minimal path and ride the standard rendezvous.
    SendParams p{.buf = buf,
                 .count = count,
                 .dt = dt,
                 .dest = world_dest,
                 .tag = 0,
                 .comm = comm,
                 .dest_is_world = true,
                 .skip_proc_null_check = true,
                 .noreq = true,
                 .match_mode = rt::MatchMode::ArrivalOrder};
    return device_isend(p, nullptr);
  }

  cost::charge(cost::Category::MandRequest, cost::kAllOptsCounter);
  cost::charge(cost::Category::MandInject, cost::kAllOptsInject);
  Vci& v = *vcis_[c.vci];
  const auto vci8 = static_cast<std::uint8_t>(c.vci);
  // No latency record on this path: the stream ordinal only marks a sampled
  // message, so the receiver's matching sampled post can classify its wait.
  net::Lane::Record h{.ctx = c.ctx,
                      .src_comm_rank = c.rank,
                      .src_world = self_,
                      .tag = 0,
                      .match_mode = rt::MatchMode::ArrivalOrder,
                      .vci = vci8,
                      .sampled = v.lat.arm_send(world_dest)};
  obs::add_single_writer(v.sends_issued, 1);
  v.counters.inc(obs::VciCtr::SendEager);
  v.counters.inc(obs::VciCtr::SendNoreq);
  obs::add_single_writer(v.busy_instr, cost::kAllOptsLocality + cost::kAllOptsCtxLoad +
                                           cost::kAllOptsCounter + cost::kAllOptsAddrLoad +
                                           cost::kAllOptsInject);
  if (!cfg_.trace && bytes <= net::Lane::kInlineBytes) {
    inject_record(world_dest, h, buf, count, dt, bytes);
    return Err::Success;
  }
  rt::Packet* pkt = eager_packet(h, buf, count, dt, bytes);
  if (cfg_.trace) {
    const std::uint64_t seq = world_.next_trace_seq();
    pkt->hdr.seq = seq;
    trace_msg(v, obs::trace::Ev::SendPost, seq, vci8, world_dest, 0, bytes);
    trace_msg(v, obs::trace::Ev::Inject, seq, vci8, world_dest, 0, bytes);
    // _ALL_OPTS sends are counter-completed at injection; there is no later
    // per-request completion site to record.
    trace_msg(v, obs::trace::Ev::Complete, seq, vci8, world_dest, 0, bytes);
  }
  fabric_.inject(self_, world_dest, pkt);
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Device dispatch and the shared issue path
// ---------------------------------------------------------------------------

Err Engine::device_isend(const SendParams& p, Request* req) {
  return device_ == DeviceKind::Ch4 ? ch4_isend(p, req) : orig_isend(p, req);
}

Err Engine::ch4_isend(const SendParams& p, Request* req) {
  // Communicator object lookup. Dynamically created communicators cost a
  // dereference; predefined slots are a global-array load (Section 3.3).
  CommObject* c = comm_obj(p.comm);
  if (c == nullptr) return Err::Comm;
  cost::charge(cost::Category::MandObject,
               c->predefined_slot ? cost::kMandObjectSlotLoad : cost::kMandObjectDeref);
  if (!cfg_.ipo) cost::charge(cost::Category::Redundant, cost::kRedundantCommAttrs);

  if (!p.skip_proc_null_check) {
    cost::charge(cost::Category::MandProcNull, cost::kMandProcNull);
    if (p.dest == kProcNull) {
      if (req != nullptr && !p.noreq) {
        Request r = alloc_request(RequestSlot::Kind::SendEager, c->vci);
        req_slot(r)->complete.store(true, std::memory_order_release);
        *req = r;
      } else if (req != nullptr) {
        *req = kRequestNull;
      }
      return Err::Success;
    }
  }

  Rank dst_world;
  if (p.dest_is_world) {
    cost::charge(cost::Category::MandRankmap, cost::kMandRankGlobalLoad);
    dst_world = p.dest;
  } else {
    dst_world = c->map.to_world(p.dest);  // charges per representation
  }

  // ch4-core locality selection: self / shmmod / netmod.
  cost::charge(cost::Category::MandLocality, cost::kMandLocalitySelect);

  return issue_send(p, *c, dst_world, req);
}

Err Engine::issue_send(const SendParams& p, const CommObject& c, Rank dst_world,
                       Request* req) {
  // All matcher / request / queue state below belongs to the communicator's
  // channel. Gated entry points already hold this lock (recursive); internal
  // callers (collectives, persistent starts) acquire it here.
  Vci& v = *vcis_[c.vci];
  std::lock_guard<std::recursive_mutex> lk(v.mu);
  // Message-lifetime start edge (0 when this message is not sampled): eager
  // sends record at local completion below; rendezvous sends carry it in the
  // slot until the CTS completion site (progress.cpp). Sampling follows the
  // (channel, destination) stream, and a sampled packet is marked so the
  // fabric stamps its send time for the receiver's wait classification.
  const std::uint64_t lat_t0 = v.lat.arm_send(dst_world) ? obs::lat_now_ns() : 0;
  // Simulated-CPU mode: execute the modeled software path length as time.
  rt::spin_for_ns(sim_send_ns_);
  obs::add_single_writer(v.busy_instr, send_instr_);
  // Datatype resolution: real work either way; the modeled charge is the
  // "redundant runtime check" that link-time inlining folds away for
  // compile-time-constant datatypes.
  const std::size_t bytes = dt::packed_size(types_, p.count, p.dt);
  if (!cfg_.ipo) {
    cost::charge(cost::Category::Redundant, cost::kRedundantDatatypeResolve);
    cost::charge(cost::Category::Redundant, cost::kRedundantGenericCompletion);
  }

  // Match-bit construction. A communicator carrying the Section-3.6 info
  // hint drops source/tag bits like _NOMATCH, but pays the hint-lookup
  // branch the paper's alternative-design discussion predicts.
  rt::MatchMode match_mode = p.match_mode;
  if (match_mode == rt::MatchMode::Full &&
      c.hint_arrival_order.load(std::memory_order_relaxed) && !p.coll_plane) {
    cost::charge(cost::Category::MandMatch, cost::kMandHintBranch);
    match_mode = rt::MatchMode::ArrivalOrder;
  }
  cost::charge(cost::Category::MandMatch, match_mode == rt::MatchMode::Full
                                            ? cost::kMandMatchBits
                                            : cost::kMandMatchCtxLoad);

  const std::uint32_t ctx = c.ctx + (p.coll_plane ? 1u : 0u);
  const bool eager = bytes <= eager_threshold_;

  v.counters.inc(eager ? obs::VciCtr::SendEager : obs::VciCtr::SendRdv);
  if (p.noreq) v.counters.inc(obs::VciCtr::SendNoreq);
  const auto vci8 = static_cast<std::uint8_t>(c.vci);
  std::uint64_t tseq = 0;
  if (cfg_.trace) {
    tseq = world_.next_trace_seq();
    trace_msg(v, obs::trace::Ev::SendPost, tseq, vci8, dst_world, p.tag, bytes);
  }

  Request r = kRequestNull;
  RequestSlot* slot = nullptr;
  if (!p.noreq) {
    cost::charge(cost::Category::MandRequest, cost::kMandRequestAlloc);
    r = alloc_request(eager ? RequestSlot::Kind::SendEager : RequestSlot::Kind::SendRdv,
                      c.vci);
    slot = req_slot(r);
  } else {
    cost::charge(cost::Category::MandRequest, cost::kMandCompletionCounter);
  }

  if (eager) {
    net::Lane::Record h{.ctx = ctx,
                        .src_comm_rank = c.rank,
                        .src_world = self_,
                        .tag = p.tag,
                        .match_mode = match_mode,
                        .vci = vci8,
                        .sampled = lat_t0 != 0};
    cost::charge(cost::Category::MandInject, cost::kMandInjectResidual);
    // The orig device's CH3 send queue holds Packets, and a traced message
    // carries header fields a record has no room for.
    if (device_ == DeviceKind::Ch4 && !cfg_.trace && bytes <= net::Lane::kInlineBytes) {
      inject_record(dst_world, h, p.buf, p.count, p.dt, bytes);
    } else {
      rt::Packet* pkt = eager_packet(h, p.buf, p.count, p.dt, bytes);
      pkt->hdr.seq = tseq;
      inject_or_queue(v, dst_world, pkt);
    }
    if (slot != nullptr) {
      // Eager sends complete locally on buffering.
      slot->complete.store(true, std::memory_order_release);
    }
    if (lat_t0 != 0) {
      v.lat.record(obs::LatPath::SendEager, obs::lat_now_ns() - lat_t0);
    }
    if (tseq != 0) {
      trace_msg(v, obs::trace::Ev::Complete, tseq, vci8, dst_world, p.tag, bytes);
    }
  } else {
    // Rendezvous: we track the origin side with a request even for _NOREQ
    // sends (hidden from the user; completed in bulk by comm_waitall).
    if (slot == nullptr) {
      r = alloc_request(RequestSlot::Kind::SendRdv, c.vci);
      slot = req_slot(r);
      slot->noreq = true;
      comm_obj(p.comm)->noreq_outstanding.fetch_add(1, std::memory_order_release);
    }
    slot->sbuf = p.buf;
    slot->scount = p.count;
    slot->sdt = p.dt;
    slot->dst_world = dst_world;
    slot->comm = p.comm;
    slot->bytes_expected = bytes;
    slot->post_ts = lat_t0;
    slot->bound_peer = dst_world;
    slot->bound_tag = p.tag;

    rt::Packet* rts = rt::PacketPool::alloc();
    rts->hdr.kind = rt::PacketKind::Rts;
    rts->hdr.match_mode = match_mode;
    rts->hdr.ctx = ctx;
    rts->hdr.vci = static_cast<std::uint8_t>(c.vci);
    rts->hdr.src_comm_rank = c.rank;
    rts->hdr.src_world = self_;
    rts->hdr.tag = p.tag;
    rts->hdr.total_bytes = bytes;
    rts->hdr.origin_req = r;
    rts->hdr.seq = tseq;
    rts->hdr.sampled = lat_t0 != 0;
    // Offer zero-copy handoff when the backend can write into a registered
    // remote buffer; the receiver accepts (CTS carries an rkey) only if its
    // own buffer is contiguous and large enough. The send buffer need not be
    // contiguous: the CTS handler packs first and writes the packed image.
    rts->hdr.zcopy = fabric_.rdma_capable() ? 1 : 0;
    cost::charge(cost::Category::MandInject, cost::kMandInjectResidual);
    inject_or_queue(v, dst_world, rts);
  }

  obs::add_single_writer(v.sends_issued, 1);
  if (req != nullptr) *req = p.noreq ? kRequestNull : r;
  return Err::Success;
}

inline void Engine::inject_record(Rank dst_world, net::Lane::Record& h, const void* buf,
                                  int count, Datatype dt, std::size_t bytes) {
  std::byte packed[net::Lane::kInlineBytes];
  h.len = static_cast<std::uint8_t>(bytes);
  h.data = buf;
  if (!types_.is_contiguous(dt)) {
    dt::pack(types_, buf, count, dt, packed);
    h.data = packed;
  }
  fabric_.inject(self_, dst_world, h);
}

rt::Packet* Engine::eager_packet(const net::Lane::Record& h, const void* buf, int count,
                                 Datatype dt, std::size_t bytes) {
  rt::Packet* pkt = rt::PacketPool::alloc();
  pkt->hdr.kind = rt::PacketKind::Eager;
  pkt->hdr.match_mode = h.match_mode;
  pkt->hdr.ctx = h.ctx;
  pkt->hdr.vci = h.vci;
  pkt->hdr.src_comm_rank = h.src_comm_rank;
  pkt->hdr.src_world = h.src_world;
  pkt->hdr.tag = h.tag;
  pkt->hdr.total_bytes = bytes;
  pkt->hdr.sampled = h.sampled;
  if (types_.is_contiguous(dt)) {
    pkt->set_payload(buf, bytes);
  } else {
    pkt->payload.resize(bytes);
    dt::pack(types_, buf, count, dt, pkt->payload.data());
  }
  return pkt;
}

void Engine::inject_or_queue(Vci& v, Rank dst_world, rt::Packet* pkt) {
  if (device_ == DeviceKind::Orig) {
    // CH3-style software send queue: the operation is staged and issued by
    // the progress engine, costing an extra queue transit. Each channel has
    // its own queue, drained under its own lock (held here). The Inject trace
    // event is recorded when drain_send_queue pushes it onto the fabric.
    v.counters.inc(obs::VciCtr::SendQueued);
    v.send_queue.push_back(
        QueuedSend{pkt, dst_world, v.lat.arm() ? obs::lat_now_ns() : 0});
    v.send_q_depth.fetch_add(1, std::memory_order_release);
  } else {
    traced_inject(v, dst_world, pkt, pkt->hdr.total_bytes);
  }
}

// ---------------------------------------------------------------------------
// Receive posting
// ---------------------------------------------------------------------------

Err Engine::post_recv_common(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                             rt::MatchMode mode, bool coll_plane, Request* req) {
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  if (req == nullptr) return Err::Request;

  // The matcher and request slot belong to the communicator's channel.
  Vci& v = *vcis_[c->vci];
  std::lock_guard<std::recursive_mutex> lk(v.mu);

  Request r = alloc_request(RequestSlot::Kind::Recv, c->vci);
  RequestSlot* slot = req_slot(r);
  // Sampling: an explicit source ticks its (channel, peer) stream, the same
  // one its sender ticks, so both ends sample the same messages when receives
  // are posted in send order. kAnySource, and a rank outside the map (which
  // only a build without error checking lets through), use the channel tick;
  // kProcNull ticks nothing.
  std::uint64_t lat_t0 = 0;
  if (src != kProcNull) {
    const bool in_map = src >= 0 && src < c->map.size();
    if (v.lat.arm_post(in_map ? c->map.to_world_nocharge(src) : kAnySource)) {
      lat_t0 = obs::lat_now_ns();
    }
  }
  slot->rbuf = buf;
  slot->rcount = count;
  slot->rdt = dt;
  slot->bytes_expected = dt::packed_size(types_, count, dt);
  slot->post_ts = lat_t0;
  slot->bound_peer = src;
  slot->bound_tag = tag;
  slot->comm = comm;

  if (src == kProcNull) {
    slot->status.source = kProcNull;
    slot->status.tag = kAnyTag;
    slot->status.byte_count = 0;
    slot->complete.store(true, std::memory_order_release);
    *req = r;
    return Err::Success;
  }

  match::PostedRecv pr;
  pr.ctx = c->ctx + (coll_plane ? 1u : 0u);
  pr.src = src;
  pr.tag = tag;
  pr.mode = mode;
  pr.buf = buf;
  pr.count = count;
  pr.dt = dt;
  pr.req = r;
  pr.posted_ns = lat_t0;

  v.counters.inc(obs::VciCtr::RecvPosted);
  if (cfg_.trace) {
    trace_msg(v, obs::trace::Ev::RecvPost, 0, static_cast<std::uint8_t>(c->vci), src, tag,
              slot->bytes_expected);
  }
  std::uint64_t arrived_ns = 0;
  if (auto pkt = v.matcher.post(pr, &arrived_ns)) {
    // Late receive: the message was already waiting on the unexpected queue.
    v.counters.dec(obs::VciCtr::UnexpectedDepth);
    if (lat_t0 != 0 && arrived_ns != 0) {
      v.lat.record(obs::LatPath::UnexpectedWait,
                   lat_t0 > arrived_ns ? lat_t0 - arrived_ns : 0);
    }
    deliver_match(v, pr, *pkt, /*at_post=*/true);
  } else {
    v.counters.inc(obs::VciCtr::PostedDepth);
    v.counters.high_water(obs::VciCtr::PostedHwm, v.matcher.posted_depth());
  }
  *req = r;
  return Err::Success;
}

}  // namespace lwmpi
