// Machine-independent collectives, implemented over the pt2pt device on the
// communicator's reserved collective context (user traffic cannot interfere).
//
// Algorithm choices follow the classic MPICH set: dissemination barrier,
// binomial bcast/reduce, recursive-doubling allreduce (with the usual
// non-power-of-two pre/post fold), ring allgather, linear gather/scatter,
// rotated pairwise alltoall, and a linear pipelined scan.
//
// VCI routing is automatic: every transfer goes through device_isend /
// post_recv_common on the parent communicator, and the collective context
// (ctx + 1) maps to the same channel as the communicator itself, so a
// collective's whole packet exchange stays on one VCI.
#include <cstring>
#include <vector>

#include "coll/ops.hpp"
#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "obs/recorder.hpp"

namespace lwmpi {

namespace {
// Internal tags per collective (distinct so misuse shows up in tests).
constexpr Tag kTagBarrier = 1;
constexpr Tag kTagBcast = 2;
constexpr Tag kTagReduce = 3;
constexpr Tag kTagAllreduce = 4;
constexpr Tag kTagGather = 5;
constexpr Tag kTagAllgather = 6;
constexpr Tag kTagScatter = 7;
constexpr Tag kTagAlltoall = 8;
constexpr Tag kTagScan = 9;
}  // namespace

// ---------------------------------------------------------------------------
// Internal pt2pt on the collective plane
// ---------------------------------------------------------------------------

Err Engine::coll_isend(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm,
                       Request* req) {
  SendParams p{.buf = buf, .count = count, .dt = dt, .dest = dest, .tag = tag, .comm = comm};
  p.coll_plane = true;
  return device_isend(p, req);
}

Err Engine::coll_irecv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                       Request* req) {
  return post_recv_common(buf, count, dt, src, tag, comm, rt::MatchMode::Full, true, req);
}

Err Engine::coll_send(const void* buf, int count, Datatype dt, Rank dest, Tag tag, Comm comm) {
  Request r = kRequestNull;
  if (Err e = coll_isend(buf, count, dt, dest, tag, comm, &r); !ok(e)) return e;
  return wait(&r, nullptr);
}

Err Engine::coll_recv(void* buf, int count, Datatype dt, Rank src, Tag tag, Comm comm,
                      Status* st) {
  Request r = kRequestNull;
  if (Err e = coll_irecv(buf, count, dt, src, tag, comm, &r); !ok(e)) return e;
  return wait(&r, st);
}

// ---------------------------------------------------------------------------
// Barrier: dissemination
// ---------------------------------------------------------------------------

Err Engine::barrier(Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Barrier,
                       [&] { return obs::Surface{surface_vci(comm)}; });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  const int r = c->rank;
  if (p == 1) return Err::Success;
  // Outermost-wins: a barrier nested inside Win_fence keeps the fence label.
  obs::BlockScope block(*this, "Barrier");
  char token = 0;
  for (int mask = 1; mask < p; mask <<= 1) {
    const Rank to = static_cast<Rank>((r + mask) % p);
    const Rank from = static_cast<Rank>((r - mask % p + p) % p);
    Request sreq = kRequestNull;
    Request rreq = kRequestNull;
    if (Err e = coll_irecv(&token, 1, kChar, from, kTagBarrier, comm, &rreq); !ok(e)) return e;
    if (Err e = coll_isend(&token, 1, kChar, to, kTagBarrier, comm, &sreq); !ok(e)) return e;
    if (Err e = wait(&sreq, nullptr); !ok(e)) return e;
    if (Err e = wait(&rreq, nullptr); !ok(e)) return e;
  }
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Bcast: binomial tree
// ---------------------------------------------------------------------------

Err Engine::bcast(void* buf, int count, Datatype dt, Rank root, Comm comm) {
  // Collectives record the root in the peer field and the builtin element
  // size in the tag field so replay can rebuild (count, datatype) and hit the
  // same internal algorithm splits (see RecOp).
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Bcast, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), root, rec_esize(dt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRootRange);
    if (root < 0 || root >= p) return Err::Root;
    if (Err e = check_count(count); !ok(e)) return e;
    if (Err e = check_datatype(dt); !ok(e)) return e;
  }
  if (p == 1 || count == 0) return Err::Success;
  const int r = c->rank;
  const int vr = (r - root + p) % p;  // virtual rank: root is 0

  // Receive from parent.
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      const Rank parent = static_cast<Rank>(((vr - mask) + root) % p);
      if (Err e = coll_recv(buf, count, dt, parent, kTagBcast, comm, nullptr); !ok(e)) return e;
      break;
    }
    mask <<= 1;
  }
  // Forward to children.
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      const Rank child = static_cast<Rank>((vr + mask + root) % p);
      if (Err e = coll_send(buf, count, dt, child, kTagBcast, comm); !ok(e)) return e;
    }
    mask >>= 1;
  }
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Reduce: binomial tree with local combine
// ---------------------------------------------------------------------------

Err Engine::reduce(const void* sbuf, void* rbuf, int count, Datatype dt, ReduceOp op,
                   Rank root, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Reduce, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), root, rec_esize(dt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  if (!is_builtin(dt)) return Err::Datatype;  // predefined ops need basic types
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRootRange + cost::kErrOpValid);
    if (root < 0 || root >= p) return Err::Root;
    if (!coll::op_defined(op, dt)) return Err::Op;
    if (Err e = check_count(count); !ok(e)) return e;
  }
  const std::size_t bytes = static_cast<std::size_t>(count) * builtin_size(dt);
  const int r = c->rank;
  const int vr = (r - root + p) % p;

  // Working accumulator starts as my contribution.
  std::vector<std::byte> acc(bytes);
  if (bytes != 0) std::memcpy(acc.data(), sbuf, bytes);
  std::vector<std::byte> incoming(bytes);

  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int src_vr = vr | mask;
      if (src_vr < p) {
        const Rank src = static_cast<Rank>((src_vr + root) % p);
        if (Err e = coll_recv(incoming.data(), count, dt, src, kTagReduce, comm, nullptr);
            !ok(e)) {
          return e;
        }
        if (Err e = coll::apply_op(op, dt, acc.data(), incoming.data(),
                                   static_cast<std::size_t>(count));
            !ok(e)) {
          return e;
        }
      }
    } else {
      const Rank dst = static_cast<Rank>(((vr & ~mask) + root) % p);
      return coll_send(acc.data(), count, dt, dst, kTagReduce, comm);
    }
    mask <<= 1;
  }
  // Only the root reaches here.
  if (bytes != 0 && rbuf != nullptr) std::memcpy(rbuf, acc.data(), bytes);
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Allreduce: recursive doubling with non-power-of-two fold
// ---------------------------------------------------------------------------

Err Engine::allreduce(const void* sbuf, void* rbuf, int count, Datatype dt, ReduceOp op,
                      Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Allreduce, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), 0, rec_esize(dt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  if (!is_builtin(dt)) return Err::Datatype;  // predefined ops need basic types
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrOpValid);
    if (!coll::op_defined(op, dt)) return Err::Op;
    if (Err e = check_count(count); !ok(e)) return e;
  }
  const int p = c->map.size();
  const int r = c->rank;
  const std::size_t bytes = static_cast<std::size_t>(count) * builtin_size(dt);
  if (bytes != 0 && rbuf != sbuf) std::memcpy(rbuf, sbuf, bytes);
  if (p == 1 || count == 0) return Err::Success;

  // Large messages on power-of-two communicators take the bandwidth-optimal
  // reduce-scatter + allgather path (Rabenseifner); small messages stay on
  // latency-optimal recursive doubling.
  constexpr std::size_t kRabenseifnerBytes = 8192;
  if (bytes >= kRabenseifnerBytes && (p & (p - 1)) == 0 && count >= p) {
    return allreduce_rabenseifner(rbuf, count, dt, op, comm);
  }

  std::vector<std::byte> incoming(bytes);

  // pof2 = largest power of two <= p; fold the remainder into the front.
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;

  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {  // even remainder ranks send their data and sit out
      if (Err e = coll_send(rbuf, count, dt, static_cast<Rank>(r + 1), kTagAllreduce, comm);
          !ok(e)) {
        return e;
      }
      newrank = -1;
    } else {
      if (Err e =
              coll_recv(incoming.data(), count, dt, static_cast<Rank>(r - 1), kTagAllreduce,
                        comm, nullptr);
          !ok(e)) {
        return e;
      }
      if (Err e = coll::apply_op(op, dt, rbuf, incoming.data(), static_cast<std::size_t>(count));
          !ok(e)) {
        return e;
      }
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newdst = newrank ^ mask;
      const Rank dst = static_cast<Rank>(newdst < rem ? newdst * 2 + 1 : newdst + rem);
      Request sreq = kRequestNull;
      Request rreq = kRequestNull;
      if (Err e = coll_irecv(incoming.data(), count, dt, dst, kTagAllreduce, comm, &rreq);
          !ok(e)) {
        return e;
      }
      if (Err e = coll_isend(rbuf, count, dt, dst, kTagAllreduce, comm, &sreq); !ok(e)) return e;
      if (Err e = wait(&sreq, nullptr); !ok(e)) return e;
      if (Err e = wait(&rreq, nullptr); !ok(e)) return e;
      if (Err e = coll::apply_op(op, dt, rbuf, incoming.data(), static_cast<std::size_t>(count));
          !ok(e)) {
        return e;
      }
    }
  }

  // Unfold: odd remainder ranks return the result to their even partners.
  if (r < 2 * rem) {
    if (r % 2 == 1) {
      return coll_send(rbuf, count, dt, static_cast<Rank>(r - 1), kTagAllreduce, comm);
    }
    return coll_recv(rbuf, count, dt, static_cast<Rank>(r + 1), kTagAllreduce, comm, nullptr);
  }
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Gather / Allgather / Scatter
// ---------------------------------------------------------------------------

Err Engine::gather(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                   Datatype rdt, Rank root, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Gather, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(scount, sdt), root, rec_esize(sdt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRootRange);
    if (root < 0 || root >= p) return Err::Root;
  }
  const int r = c->rank;
  if (r != root) return coll_send(sbuf, scount, sdt, root, kTagGather, comm);

  const std::size_t slot_bytes = dt::packed_size(types_, rcount, rdt);
  auto* out = static_cast<std::byte*>(rbuf);
  for (int i = 0; i < p; ++i) {
    if (i == root) {
      const std::size_t n = dt::packed_size(types_, scount, sdt);
      std::vector<std::byte> tmp(n);
      dt::pack(types_, sbuf, scount, sdt, tmp.data());
      dt::unpack(types_, tmp.data(), n, out + static_cast<std::size_t>(i) * slot_bytes,
                 rcount, rdt);
    } else {
      if (Err e = coll_recv(out + static_cast<std::size_t>(i) * slot_bytes, rcount, rdt,
                            static_cast<Rank>(i), kTagGather, comm, nullptr);
          !ok(e)) {
        return e;
      }
    }
  }
  return Err::Success;
}

Err Engine::allgather(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                      Datatype rdt, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Allgather, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(scount, sdt), 0, rec_esize(sdt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  const int r = c->rank;
  const std::size_t slot_bytes = dt::packed_size(types_, rcount, rdt);
  auto* out = static_cast<std::byte*>(rbuf);

  // Place my contribution, then run the ring: in step s, forward the block
  // originally owned by (r - s).
  {
    const std::size_t n = dt::packed_size(types_, scount, sdt);
    std::vector<std::byte> tmp(n);
    dt::pack(types_, sbuf, scount, sdt, tmp.data());
    dt::unpack(types_, tmp.data(), n, out + static_cast<std::size_t>(r) * slot_bytes, rcount,
               rdt);
  }
  if (p == 1) return Err::Success;

  const Rank right = static_cast<Rank>((r + 1) % p);
  const Rank left = static_cast<Rank>((r - 1 + p) % p);
  for (int s = 0; s < p - 1; ++s) {
    const int send_block = (r - s + p) % p;
    const int recv_block = (r - s - 1 + p) % p;
    Request sreq = kRequestNull;
    Request rreq = kRequestNull;
    if (Err e = coll_irecv(out + static_cast<std::size_t>(recv_block) * slot_bytes, rcount,
                           rdt, left, kTagAllgather, comm, &rreq);
        !ok(e)) {
      return e;
    }
    if (Err e = coll_isend(out + static_cast<std::size_t>(send_block) * slot_bytes, rcount,
                           rdt, right, kTagAllgather, comm, &sreq);
        !ok(e)) {
      return e;
    }
    if (Err e = wait(&sreq, nullptr); !ok(e)) return e;
    if (Err e = wait(&rreq, nullptr); !ok(e)) return e;
  }
  return Err::Success;
}

Err Engine::scatter(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                    Datatype rdt, Rank root, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Scatter, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(rcount, rdt), root, rec_esize(rdt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRootRange);
    if (root < 0 || root >= p) return Err::Root;
  }
  const int r = c->rank;
  if (r != root) return coll_recv(rbuf, rcount, rdt, root, kTagScatter, comm, nullptr);

  const std::size_t slot_bytes = dt::packed_size(types_, scount, sdt);
  const auto* in = static_cast<const std::byte*>(sbuf);
  for (int i = 0; i < p; ++i) {
    const std::byte* block = in + static_cast<std::size_t>(i) * slot_bytes;
    if (i == root) {
      std::vector<std::byte> tmp(slot_bytes);
      dt::pack(types_, block, scount, sdt, tmp.data());
      dt::unpack(types_, tmp.data(), slot_bytes, rbuf, rcount, rdt);
    } else {
      if (Err e = coll_send(block, scount, sdt, static_cast<Rank>(i), kTagScatter, comm);
          !ok(e)) {
        return e;
      }
    }
  }
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Alltoall: rotated pairwise exchange
// ---------------------------------------------------------------------------

Err Engine::alltoall(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                     Datatype rdt, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Alltoall, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(scount, sdt), 0, rec_esize(sdt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  const int r = c->rank;
  const std::size_t sslot = dt::packed_size(types_, scount, sdt);
  const std::size_t rslot = dt::packed_size(types_, rcount, rdt);
  const auto* in = static_cast<const std::byte*>(sbuf);
  auto* out = static_cast<std::byte*>(rbuf);

  // Local block.
  {
    std::vector<std::byte> tmp(sslot);
    dt::pack(types_, in + static_cast<std::size_t>(r) * sslot, scount, sdt, tmp.data());
    dt::unpack(types_, tmp.data(), sslot, out + static_cast<std::size_t>(r) * rslot, rcount,
               rdt);
  }
  for (int s = 1; s < p; ++s) {
    const Rank dst = static_cast<Rank>((r + s) % p);
    const Rank src = static_cast<Rank>((r - s + p) % p);
    Request sreq = kRequestNull;
    Request rreq = kRequestNull;
    if (Err e = coll_irecv(out + static_cast<std::size_t>(src) * rslot, rcount, rdt, src,
                           kTagAlltoall, comm, &rreq);
        !ok(e)) {
      return e;
    }
    if (Err e = coll_isend(in + static_cast<std::size_t>(dst) * sslot, scount, sdt, dst,
                           kTagAlltoall, comm, &sreq);
        !ok(e)) {
      return e;
    }
    if (Err e = wait(&sreq, nullptr); !ok(e)) return e;
    if (Err e = wait(&rreq, nullptr); !ok(e)) return e;
  }
  return Err::Success;
}

// ---------------------------------------------------------------------------
// Scan (inclusive): linear pipeline
// ---------------------------------------------------------------------------

Err Engine::scan(const void* sbuf, void* rbuf, int count, Datatype dt, ReduceOp op,
                 Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Scan, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt), 0, rec_esize(dt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  if (!is_builtin(dt)) return Err::Datatype;
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrOpValid);
    if (!coll::op_defined(op, dt)) return Err::Op;
  }
  const int p = c->map.size();
  const int r = c->rank;
  const std::size_t bytes = static_cast<std::size_t>(count) * builtin_size(dt);
  if (bytes != 0 && rbuf != sbuf) std::memcpy(rbuf, sbuf, bytes);
  if (p == 1 || count == 0) return Err::Success;

  if (r > 0) {
    std::vector<std::byte> prefix(bytes);
    if (Err e = coll_recv(prefix.data(), count, dt, static_cast<Rank>(r - 1), kTagScan, comm,
                          nullptr);
        !ok(e)) {
      return e;
    }
    // result = prefix OP mine, preserving operand order for non-commutative
    // semantics: accumulate into prefix then copy out.
    if (Err e = coll::apply_op(op, dt, prefix.data(), rbuf, static_cast<std::size_t>(count));
        !ok(e)) {
      return e;
    }
    std::memcpy(rbuf, prefix.data(), bytes);
  }
  if (r < p - 1) {
    return coll_send(rbuf, count, dt, static_cast<Rank>(r + 1), kTagScan, comm);
  }
  return Err::Success;
}

}  // namespace lwmpi
