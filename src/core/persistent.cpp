// Persistent communication requests (MPI_SEND_INIT / MPI_RECV_INIT /
// MPI_START / MPI_REQUEST_FREE).
//
// A persistent request validates and binds its argument list once; each
// MPI_START re-issues the bound operation through the device without
// re-walking the MPI-layer checks -- the classic amortization for iterative
// codes (the paper's stencil/Nek use case), complementary to the Section-3
// proposals.
#include "core/engine.hpp"
#include "obs/recorder.hpp"
#include "runtime/world.hpp"

namespace lwmpi {

Err Engine::send_init(const void* buf, int count, Datatype dt, Rank dest, Tag tag,
                      Comm comm, Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::SendInit, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), dest, tag};
  });
  if (req == nullptr) return Err::Request;
  const Prologue pro(*this, {.peer = PeerRule::RankOrNull, .tag = TagRule::Send, .gated = false},
                     comm, dest, tag, count, buf, dt);
  if (!ok(pro.err)) return pro.err;
  const CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const Request r = alloc_request(RequestSlot::Kind::PersistentSend, c->vci);
  RequestSlot* s = req_slot(r);
  s->sbuf = buf;
  s->scount = count;
  s->sdt = dt;
  s->bound_peer = dest;
  s->bound_tag = tag;
  s->comm = comm;
  *req = r;
  sc.bind_req(req);
  return Err::Success;
}

Err Engine::recv_init(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                      Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::RecvInit, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), src, tag};
  });
  if (req == nullptr) return Err::Request;
  const Prologue pro(*this, {.peer = PeerRule::Source, .tag = TagRule::Recv, .gated = false},
                     comm, src, tag, count, buf, dt);
  if (!ok(pro.err)) return pro.err;
  const CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const Request r = alloc_request(RequestSlot::Kind::PersistentRecv, c->vci);
  RequestSlot* s = req_slot(r);
  s->rbuf = buf;
  s->rcount = count;
  s->rdt = dt;
  s->bound_peer = src;
  s->bound_tag = tag;
  s->comm = comm;
  *req = r;
  sc.bind_req(req);
  return Err::Success;
}

Err Engine::start(Request* req) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Start, [&] {
    const Request h = req != nullptr ? *req : kRequestNull;
    return obs::Surface{static_cast<int>(request_vci(h)), 0, 0, 0, h};
  });
  if (req == nullptr) return Err::Request;
  RequestSlot* s = req_slot(*req);
  if (s == nullptr) return Err::Request;
  if (s->kind != RequestSlot::Kind::PersistentSend &&
      s->kind != RequestSlot::Kind::PersistentRecv) {
    return Err::Request;
  }
  if (s->inner != kRequestNull) return Err::Pending;  // previous start not reaped

  Request inner = kRequestNull;
  Err e;
  if (s->kind == RequestSlot::Kind::PersistentSend) {
    SendParams p{.buf = s->sbuf,
                 .count = s->scount,
                 .dt = s->sdt,
                 .dest = s->bound_peer,
                 .tag = s->bound_tag,
                 .comm = s->comm};
    e = device_isend(p, &inner);
  } else {
    e = post_recv_common(s->rbuf, s->rcount, s->rdt, s->bound_peer, s->bound_tag, s->comm,
                         rt::MatchMode::Full, false, &inner);
  }
  if (!ok(e)) return e;
  // Request slots live in stable chunked storage, so `s` survives the pool
  // growth the inner allocation may have caused.
  s->inner = inner;
  return Err::Success;
}

Err Engine::startall(std::span<Request> reqs) {
  obs::SurfaceScope sc(prof_, rec_, obs::kDeferRecord, obs::Callsite::Startall,
                       [] { return obs::Surface{}; });
  sc.record_list(obs::Callsite::Startall, reqs);
  for (Request& r : reqs) {
    if (Err e = start(&r); !ok(e)) return e;
  }
  return Err::Success;
}

Err Engine::request_free(Request* req) {
  if (req == nullptr) return Err::Request;
  RequestSlot* s = req_slot(*req);
  if (s == nullptr) return Err::Request;
  if (s->kind != RequestSlot::Kind::PersistentSend &&
      s->kind != RequestSlot::Kind::PersistentRecv) {
    return Err::Request;  // plain requests are reaped by wait/test
  }
  if (s->inner != kRequestNull) {
    // Reap the in-flight operation first (MPI permits freeing active
    // requests; we complete it to keep buffer lifetimes obvious). Through the
    // hook-free primitive: this internal wait is not a call the user made, so
    // neither the profiler nor the recorder may see it.
    if (Err e = wait_impl(&s->inner, nullptr); !ok(e)) return e;
    s->inner = kRequestNull;
  }
  release_request(*req);
  *req = kRequestNull;
  return Err::Success;
}

}  // namespace lwmpi
