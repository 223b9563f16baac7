// Variable-count collectives (gatherv / allgatherv / scatterv) and
// reduce_scatter_block, layered on the same collective-plane pt2pt as the
// fixed-count algorithms.
#include <cstring>
#include <numeric>
#include <vector>

#include "coll/ops.hpp"
#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "cost/model.hpp"
#include "obs/recorder.hpp"

namespace lwmpi {

namespace {
constexpr Tag kTagGatherv = 10;
constexpr Tag kTagScatterv = 11;
constexpr Tag kTagReduceScatter = 12;
}  // namespace

Err Engine::gatherv(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                    std::span<const int> rcounts, std::span<const int> displs, Datatype rdt,
                    Rank root, Comm comm) {
  // The per-rank count vectors are not captured, so replay skip-counts the
  // v-collectives; the record still documents the call in the timeline.
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Gatherv, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(scount, sdt), root, rec_esize(sdt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRootRange);
    if (root < 0 || root >= p) return Err::Root;
    if (c->rank == root &&
        (rcounts.size() < static_cast<std::size_t>(p) ||
         displs.size() < static_cast<std::size_t>(p))) {
      return Err::Arg;
    }
  }
  if (c->rank != root) return coll_send(sbuf, scount, sdt, root, kTagGatherv, comm);

  const dt::TypeInfo* rinfo = types_.info(rdt);
  if (rinfo == nullptr) return Err::Datatype;
  auto* out = static_cast<std::byte*>(rbuf);
  for (int i = 0; i < p; ++i) {
    std::byte* slot = out + static_cast<std::int64_t>(displs[static_cast<std::size_t>(i)]) *
                                rinfo->extent;
    const int n = rcounts[static_cast<std::size_t>(i)];
    if (i == root) {
      const std::size_t bytes = dt::packed_size(types_, scount, sdt);
      std::vector<std::byte> tmp(bytes);
      dt::pack(types_, sbuf, scount, sdt, tmp.data());
      dt::unpack(types_, tmp.data(), bytes, slot, n, rdt);
    } else {
      if (Err e = coll_recv(slot, n, rdt, static_cast<Rank>(i), kTagGatherv, comm, nullptr);
          !ok(e)) {
        return e;
      }
    }
  }
  return Err::Success;
}

Err Engine::allgatherv(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                       std::span<const int> rcounts, std::span<const int> displs,
                       Datatype rdt, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Allgatherv, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(scount, sdt), 0, rec_esize(sdt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  if (rcounts.size() < static_cast<std::size_t>(p) ||
      displs.size() < static_cast<std::size_t>(p)) {
    return Err::Arg;
  }
  // gatherv to rank 0, then bcast each block (simple and robust; the ring
  // variant is an optimization the tests don't depend on).
  if (Err e = gatherv(sbuf, scount, sdt, rbuf, rcounts, displs, rdt, 0, comm); !ok(e)) {
    return e;
  }
  const dt::TypeInfo* rinfo = types_.info(rdt);
  if (rinfo == nullptr) return Err::Datatype;
  auto* out = static_cast<std::byte*>(rbuf);
  for (int i = 0; i < p; ++i) {
    std::byte* slot = out + static_cast<std::int64_t>(displs[static_cast<std::size_t>(i)]) *
                                rinfo->extent;
    if (Err e = bcast(slot, rcounts[static_cast<std::size_t>(i)], rdt, 0, comm); !ok(e)) {
      return e;
    }
  }
  return Err::Success;
}

Err Engine::scatterv(const void* sbuf, std::span<const int> scounts,
                     std::span<const int> displs, Datatype sdt, void* rbuf, int rcount,
                     Datatype rdt, Rank root, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::Scatterv, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(rcount, rdt), root, rec_esize(rdt)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  const int p = c->map.size();
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrRootRange);
    if (root < 0 || root >= p) return Err::Root;
    if (c->rank == root &&
        (scounts.size() < static_cast<std::size_t>(p) ||
         displs.size() < static_cast<std::size_t>(p))) {
      return Err::Arg;
    }
  }
  if (c->rank != root) return coll_recv(rbuf, rcount, rdt, root, kTagScatterv, comm, nullptr);

  const dt::TypeInfo* sinfo = types_.info(sdt);
  if (sinfo == nullptr) return Err::Datatype;
  const auto* in = static_cast<const std::byte*>(sbuf);
  for (int i = 0; i < p; ++i) {
    const std::byte* block =
        in + static_cast<std::int64_t>(displs[static_cast<std::size_t>(i)]) * sinfo->extent;
    const int n = scounts[static_cast<std::size_t>(i)];
    if (i == root) {
      const std::size_t bytes = dt::packed_size(types_, n, sdt);
      std::vector<std::byte> tmp(bytes);
      dt::pack(types_, block, n, sdt, tmp.data());
      dt::unpack(types_, tmp.data(), bytes, rbuf, rcount, rdt);
    } else {
      if (Err e = coll_send(block, n, sdt, static_cast<Rank>(i), kTagScatterv, comm);
          !ok(e)) {
        return e;
      }
    }
  }
  return Err::Success;
}

Err Engine::reduce_scatter_block(const void* sbuf, void* rbuf, int count, Datatype dt_,
                                 ReduceOp op, Comm comm) {
  obs::SurfaceScope sc(prof_, rec_, obs::Callsite::ReduceScatterBlock, [&] {
    return obs::Surface{surface_vci(comm), surface_bytes(count, dt_), 0, rec_esize(dt_)};
  });
  CommObject* c = comm_obj(comm);
  if (c == nullptr) return Err::Comm;
  if (!is_builtin(dt_)) return Err::Datatype;
  if (cfg_.error_checking) {
    cost::charge(cost::Category::ErrCheck, cost::kErrOpValid);
    if (!coll::op_defined(op, dt_)) return Err::Op;
    if (Err e = check_count(count); !ok(e)) return e;
  }
  const int p = c->map.size();
  const int r = c->rank;
  const std::size_t block_bytes = static_cast<std::size_t>(count) * builtin_size(dt_);

  // Reduce the whole vector to rank 0, then scatter the blocks. Sufficient
  // for correctness; the butterfly variant is future work (DESIGN.md).
  std::vector<std::byte> full(r == 0 ? block_bytes * static_cast<std::size_t>(p) : 0);
  if (Err e = reduce(sbuf, full.data(), count * p, dt_, op, 0, comm); !ok(e)) return e;
  Err e = Err::Success;
  if (r == 0) {
    if (block_bytes != 0) std::memcpy(rbuf, full.data(), block_bytes);
    for (int i = 1; i < p; ++i) {
      e = coll_send(full.data() + static_cast<std::size_t>(i) * block_bytes, count, dt_,
                    static_cast<Rank>(i), kTagReduceScatter, comm);
      if (!ok(e)) return e;
    }
    return Err::Success;
  }
  return coll_recv(rbuf, count, dt_, 0, kTagReduceScatter, comm, nullptr);
}

}  // namespace lwmpi
