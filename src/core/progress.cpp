// Progress engine: sweeps the VCI poll set. Each channel independently drains
// its device send queue, polls its fabric lane, routes packets through its
// matching engine, and runs the rendezvous protocol state machine.
#include <algorithm>
#include <cstring>

#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "runtime/backoff.hpp"
#include "runtime/world.hpp"

namespace lwmpi {

namespace {
// Rendezvous payload segment size. Large messages are streamed in segments so
// the receiver can overlap unpacking with delivery (and so the protocol state
// machine is exercised by more than one packet).
constexpr std::size_t kRdvSegmentBytes = 256 * 1024;
}  // namespace

void Engine::progress() {
  const int n = static_cast<int>(vcis_.size());
  // Whole-rank idle fast path: when no channel has queued sends and no lane's
  // doorbell rings, a progress call is a handful of atomic loads. This keeps
  // the single-threaded wait spin as cheap as the pre-VCI engine regardless
  // of how many channels are configured.
  bool queued = false;
  for (int v = 0; v < n; ++v) {
    if (vcis_[static_cast<std::size_t>(v)]->send_q_depth.load(
            std::memory_order_relaxed) != 0) {
      queued = true;
      break;
    }
  }
  if (!queued && !fabric_.ready_any(self_)) {
    eng_counters_.inc(obs::EngCtr::ProgressIdle);
    return;
  }
  eng_counters_.inc(obs::EngCtr::ProgressSwept);
  for (int v = 0; v < n; ++v) {
    Vci& vc = *vcis_[static_cast<std::size_t>(v)];
    // Per-lane fast skip: lock-free loads decide "nothing can be waiting on
    // this channel" -- no queued device sends, no lane head ready.
    if (vc.send_q_depth.load(std::memory_order_relaxed) == 0 && !fabric_.ready(self_, v)) {
      continue;
    }
    // A contended channel is already being progressed by its lock holder;
    // skipping it is what keeps the sweep non-blocking.
    std::unique_lock<std::recursive_mutex> lk(vc.mu, std::try_to_lock);
    if (!lk.owns_lock()) continue;
    drain_send_queue(vc);
    while (rt::Packet* pkt = fabric_.poll(self_, v)) {
      handle_packet(vc, pkt);
      // The packet is out of the lane (delivered, retained on the unexpected
      // queue, or freed), so its eager-ring slot is free again. No-op on
      // backends without credit flow control.
      fabric_.credit_return(self_, v);
    }
    drain_send_queue(vc);  // flush replies generated while handling packets
  }
}

void Engine::handle_packet(Vci& v, rt::Packet* pkt) {
  if (cfg_.trace && pkt->hdr.seq != 0) {
    trace_msg(v, obs::trace::Ev::Deliver, pkt->hdr.seq, pkt->hdr.vci, pkt->hdr.src_world,
              pkt->hdr.tag, pkt->hdr.total_bytes);
  }
  switch (pkt->hdr.kind) {
    case rt::PacketKind::Eager:
    case rt::PacketKind::Rts:
      // Simulated-CPU mode: receive-side device path length as time.
      rt::spin_for_ns(sim_recv_ns_);
      obs::add_single_writer(v.busy_instr, recv_instr_);
      // Receive-side attribution: comparing the arrived header against the
      // posted-receive queue re-pays the match-bit construction of 3.6.
      cost::charge(cost::Category::MandMatch, cost::kMandMatchBits);
      if (auto pr = v.matcher.arrive(pkt)) {
        v.counters.inc(obs::VciCtr::PostedMatch);
        v.counters.dec(obs::VciCtr::PostedDepth);
        deliver_match(v, *pr, pkt, /*at_post=*/false);
      } else {
        // Retained on the unexpected queue; ownership transferred. Track the
        // gauge + high-water under the channel lock (single writer).
        v.counters.inc(obs::VciCtr::PostedMiss);
        v.counters.inc(obs::VciCtr::UnexpectedDepth);
        v.counters.high_water(obs::VciCtr::UnexpectedHwm, v.matcher.unexpected_depth());
      }
      return;
    case rt::PacketKind::Cts:
      handle_rdv_cts(v, pkt);
      return;
    case rt::PacketKind::RdvData:
      handle_rdv_data(v, pkt);
      return;
    case rt::PacketKind::RdvDone:
      handle_rdv_done(v, pkt);
      return;
    case rt::PacketKind::Barrier:
      rt::PacketPool::free(pkt);
      return;
    default:
      handle_am(pkt);
      return;
  }
}

void Engine::deliver_match(Vci& v, const match::PostedRecv& r, rt::Packet* pkt, bool at_post) {
  // Causal wait classification: decompose the interval between the
  // first-ready side and the match using the packet's causal header (send
  // stamp + credit stall) against the receive's post stamp. Sampled:
  // posted_ns is 0 outside the latency sample. A match at post time has
  // `now == posted`, which attributes the whole interval since the send
  // stamp to this receiver being late (unless the sender's credit stall
  // dominates).
  const rt::PacketHeader& h = pkt->hdr;
  {  // scoped: with `wait_ns` dead, the delivery below is a tail call
    obs::Wait wait = obs::Wait::None;
    std::uint64_t wait_ns = 0;
    if (r.posted_ns != 0 && h.send_ns != 0) {
      wait = obs::classify_wait(r.posted_ns, h.send_ns, h.stall_ns,
                                at_post ? r.posted_ns : obs::lat_now_ns(), &wait_ns);
      v.waits.record(wait, wait_ns);
    }
    if (cfg_.trace && h.seq != 0) {
      trace_msg(v, obs::trace::Ev::Match, h.seq, h.vci, h.src_world, h.tag, h.total_bytes,
                wait, wait_ns);
    }
  }
  RequestSlot* slot = req_slot(r.req);
  if (slot == nullptr) {  // cancelled in the meantime; drop the payload
    rt::PacketPool::free(pkt);
    return;
  }
  if (h.kind == rt::PacketKind::Eager) {
    complete_recv_from_eager(v, *slot, r.req, pkt);
  } else {
    start_rendezvous_recv(v, *slot, r.req, pkt);
  }
}

inline void Engine::complete_request(Vci& v, Request r, RequestSlot& s, obs::LatPath path,
                                     const rt::PacketHeader& h, Tag tag, std::uint64_t bytes) {
  const std::uint64_t post_ts = s.post_ts;
  // Only a rendezvous origin can be a _NOREQ send; at the receive sites the
  // constant `path` folds this test away.
  if (path == obs::LatPath::SendRdv && s.noreq) {
    // A _NOREQ origin has no handle to publish: its communicator's counter
    // completes it (charged when the send was posted), and its hidden slot
    // goes back to the pool.
    if (CommObject* c = comm_obj(s.comm)) {
      c->noreq_outstanding.fetch_sub(1, std::memory_order_release);
    }
    release_request(r);
  } else {
    s.status.byte_count = bytes;
    s.status.error = s.op_error;
    // Flipping a request to observable-complete is request-state bookkeeping
    // (3.5); a receive's is the dual of the sender's completion counter.
    cost::charge(cost::Category::MandRequest, cost::kMandCompletionCounter);
    s.complete.store(true, std::memory_order_release);
  }
  if (post_ts != 0) v.lat.record(path, obs::lat_now_ns() - post_ts);
  if (cfg_.trace && h.seq != 0) {
    trace_msg(v, obs::trace::Ev::Complete, h.seq, h.vci, h.src_world, tag, bytes);
  }
}

std::uint64_t Engine::register_timed(Vci& v, const void* buf, std::size_t bytes) {
  const std::uint64_t miss0 = fabric_.net_stat(net::NetStat::RegCacheMiss, self_);
  const std::uint64_t t0 = obs::lat_now_ns();
  const std::uint64_t rkey = fabric_.register_memory(self_, buf, bytes);
  if (fabric_.net_stat(net::NetStat::RegCacheMiss, self_) != miss0) {
    v.waits.record(obs::Wait::RegCacheMiss, obs::lat_now_ns() - t0);
  }
  return rkey;
}

void Engine::complete_recv_from_eager(Vci& v, RequestSlot& slot, Request req, rt::Packet* pkt) {
  const std::uint64_t total = pkt->hdr.total_bytes;
  const std::uint64_t capacity = dt::packed_size(types_, slot.rcount, slot.rdt);
  const std::uint64_t take = std::min(total, capacity);
  if (total > capacity) slot.op_error = Err::Truncate;
  if (take != 0) {
    dt::unpack(types_, pkt->payload.data(), take, slot.rbuf, slot.rcount, slot.rdt);
  }
  slot.status.source = pkt->hdr.src_comm_rank;
  slot.status.tag = pkt->hdr.tag;
  complete_request(v, req, slot, obs::LatPath::RecvEager, pkt->hdr, pkt->hdr.tag, take);
  rt::PacketPool::free(pkt);
}

void Engine::start_rendezvous_recv(Vci& v, RequestSlot& slot, Request req_handle,
                                   rt::Packet* rts) {
  slot.rdv_recv = true;
  const std::uint64_t total = rts->hdr.total_bytes;
  const std::uint64_t capacity = dt::packed_size(types_, slot.rcount, slot.rdt);
  if (total > capacity) slot.op_error = Err::Truncate;
  slot.status.source = rts->hdr.src_comm_rank;
  slot.status.tag = rts->hdr.tag;
  // Contiguous receives that fit stream straight into the user buffer;
  // noncontiguous or truncated receives stage and unpack on completion.
  slot.stage_used = !types_.is_contiguous(slot.rdt) || total > capacity;
  if (slot.stage_used) slot.stage.resize(total);
  slot.bytes_expected = total;
  slot.bytes_received = 0;

  rt::Packet* cts = rt::PacketPool::alloc();
  cts->hdr.kind = rt::PacketKind::Cts;
  // The handshake stays on the message's chain, channel and tag.
  cts->hdr.seq = rts->hdr.seq;
  cts->hdr.vci = rts->hdr.vci;
  cts->hdr.tag = rts->hdr.tag;
  cts->hdr.src_world = self_;
  cts->hdr.origin_req = rts->hdr.origin_req;
  cts->hdr.target_req = req_handle;
  // Zero-copy handoff: when the sender offered it (RTS zcopy), the backend
  // supports registered-buffer writes, and the data lands contiguously in the
  // user buffer with no truncation, register the receive buffer and hand its
  // rkey back in the CTS. The sender then rdma_writes straight into the user
  // buffer -- no RdvData packets, no staging copy -- and signals with RdvDone.
  if (rts->hdr.zcopy != 0 && total != 0 && !slot.stage_used && fabric_.rdma_capable()) {
    cts->hdr.rkey = register_timed(v, slot.rbuf, total);
  }
  // The CTS is a cross-rank hop of this message's chain: its Inject lets the
  // critical-path walk (and the Perfetto flow arrows) follow RTS -> CTS ->
  // data back through the handshake.
  traced_inject(v, rts->hdr.src_world, cts, 0);
  rt::PacketPool::free(rts);
}

void Engine::handle_rdv_cts(Vci& v, rt::Packet* pkt) {
  RequestSlot* slot = req_slot(pkt->hdr.origin_req);
  if (slot == nullptr || slot->kind != RequestSlot::Kind::SendRdv) {
    rt::PacketPool::free(pkt);
    return;
  }
  const Rank dst = pkt->hdr.src_world;
  const std::uint32_t target_req = pkt->hdr.target_req;
  const std::uint64_t total = slot->bytes_expected;

  // Source view: contiguous streams from the user buffer, noncontiguous
  // packs once and streams from the staging copy.
  std::vector<std::byte> packed;
  const std::byte* src = nullptr;
  if (types_.is_contiguous(slot->sdt)) {
    src = static_cast<const std::byte*>(slot->sbuf);
  } else {
    packed.resize(total);
    dt::pack(types_, slot->sbuf, slot->scount, slot->sdt, packed.data());
    src = packed.data();
  }

  if (pkt->hdr.rkey != 0 && fabric_.rdma_capable()) {
    // Zero-copy path: the receiver registered its user buffer and sent the
    // rkey. Register our side (cached), write the whole message in one
    // one-sided operation, and trail it with an RdvDone control packet that
    // carries the data's wire time so completion cannot overtake delivery.
    register_timed(v, src, total);
    fabric_.rdma_write(self_, dst, src, pkt->hdr.rkey, total);
    // The one-sided landing bypasses the packet path entirely; give it its
    // own lifecycle event so zcopy messages keep balanced spans.
    if (cfg_.trace && pkt->hdr.seq != 0) {
      trace_msg(v, obs::trace::Ev::ZcopyWrite, pkt->hdr.seq, pkt->hdr.vci, dst, 0, total);
    }
    rt::Packet* done = rt::PacketPool::alloc();
    done->hdr.kind = rt::PacketKind::RdvDone;
    done->hdr.seq = pkt->hdr.seq;
    done->hdr.vci = pkt->hdr.vci;
    done->hdr.src_world = self_;
    done->hdr.target_req = target_req;
    done->hdr.total_bytes = total;
    traced_inject(v, dst, done, total);
  } else {
    std::uint64_t offset = 0;
    do {
      const std::uint64_t n = std::min<std::uint64_t>(kRdvSegmentBytes, total - offset);
      rt::Packet* d = rt::PacketPool::alloc();
      d->hdr.kind = rt::PacketKind::RdvData;
      d->hdr.seq = pkt->hdr.seq;
      d->hdr.vci = pkt->hdr.vci;  // data segments follow the handshake's channel
      d->hdr.src_world = self_;
      d->hdr.target_req = target_req;
      d->hdr.offset = offset;
      d->hdr.total_bytes = total;
      d->set_payload(src + offset, n);
      traced_inject(v, dst, d, n);
      offset += n;
    } while (offset < total);
  }

  // Origin-side completion: the data is out of the user buffer.
  complete_request(v, pkt->hdr.origin_req, *slot, obs::LatPath::SendRdv, pkt->hdr, 0, total);
  rt::PacketPool::free(pkt);
}

void Engine::handle_rdv_data(Vci& v, rt::Packet* pkt) {
  RequestSlot* slot = req_slot(pkt->hdr.target_req);
  if (slot == nullptr || !slot->rdv_recv) {
    rt::PacketPool::free(pkt);
    return;
  }
  const std::size_t n = pkt->payload.size();
  if (slot->stage_used) {
    std::memcpy(slot->stage.data() + pkt->hdr.offset, pkt->payload.data(), n);
  } else {
    std::memcpy(static_cast<std::byte*>(slot->rbuf) + pkt->hdr.offset, pkt->payload.data(),
                n);
  }
  slot->bytes_received += n;
  if (slot->bytes_received >= slot->bytes_expected) {
    const std::uint64_t capacity = dt::packed_size(types_, slot->rcount, slot->rdt);
    const std::uint64_t take = std::min(slot->bytes_expected, capacity);
    if (slot->stage_used && take != 0) {
      dt::unpack(types_, slot->stage.data(), take, slot->rbuf, slot->rcount, slot->rdt);
    }
    // Free the staging buffer on the error (truncation) path too, not just
    // the clean one: the request may sit unreaped for a while.
    slot->stage.clear();
    slot->stage.shrink_to_fit();
    complete_request(v, pkt->hdr.target_req, *slot, obs::LatPath::RecvRdv, pkt->hdr, 0, take);
  }
  rt::PacketPool::free(pkt);
}

void Engine::handle_rdv_done(Vci& v, rt::Packet* pkt) {
  // Zero-copy rendezvous completion: the payload already landed in the user
  // buffer via rdma_write (the MPSC hand-off of this packet orders those
  // writes before us); only the request bookkeeping remains.
  RequestSlot* slot = req_slot(pkt->hdr.target_req);
  if (slot == nullptr || !slot->rdv_recv) {
    rt::PacketPool::free(pkt);
    return;
  }
  slot->bytes_received = slot->bytes_expected;
  complete_request(v, pkt->hdr.target_req, *slot, obs::LatPath::RecvRdv, pkt->hdr, 0,
                   slot->bytes_expected);
  rt::PacketPool::free(pkt);
}

}  // namespace lwmpi
