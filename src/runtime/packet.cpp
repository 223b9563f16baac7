#include "runtime/packet.hpp"

namespace lwmpi::rt {
namespace {

struct TlPool {
  std::vector<Packet*> free_list;

  ~TlPool() {
    for (Packet* p : free_list) delete p;
  }
};

TlPool& tl_pool() {
  thread_local TlPool pool;
  return pool;
}

// Give a recycled header the values of a value-initialized PacketHeader, one
// field at a time: the aggregate assignment `h = PacketHeader{}` compiles to
// a `rep stosq` over the whole 112 bytes, whose startup cost the eager send
// pays on every message. The size check breaks the build when a field is
// added, until this reset covers it.
static_assert(sizeof(PacketHeader) == 112, "reset_header must cover every field");
void reset_header(PacketHeader& h) noexcept {
  h.kind = PacketKind::Eager;
  h.match_mode = MatchMode::Full;
  h.vci = 0;
  h.op = 0;
  h.ctx = 0;
  h.src_comm_rank = 0;
  h.src_world = 0;
  h.tag = 0;
  h.total_bytes = 0;
  h.offset = 0;
  h.origin_req = 0;
  h.target_req = 0;
  h.win_id = 0;
  h.dt = kDatatypeNull;
  h.dt_count = 0;
  h.lock_type = 0;
  h.seq = 0;
  h.rkey = 0;
  h.zcopy = 0;
  h.sampled = 0;
  h.send_ns = 0;
  h.lclock = 0;
  h.stall_ns = 0;
}

}  // namespace

Packet* PacketPool::alloc() {
  auto& pool = tl_pool();
  if (!pool.free_list.empty()) {
    Packet* p = pool.free_list.back();
    pool.free_list.pop_back();
    reset_header(p->hdr);
    p->payload.clear();  // keeps capacity for reuse
    p->deliver_at_ns = 0;
    return p;
  }
  return new Packet;  // default-init: the member initializers, without a rep stos over padding
}

void PacketPool::free(Packet* p) noexcept {
  if (p == nullptr) return;
  auto& pool = tl_pool();
  if (pool.free_list.size() < kMaxPooled) {
    pool.free_list.push_back(p);
  } else {
    delete p;
  }
}

std::size_t PacketPool::tl_pool_size() noexcept { return tl_pool().free_list.size(); }

void PacketPool::tl_drain() noexcept {
  auto& pool = tl_pool();
  for (Packet* p : pool.free_list) delete p;
  pool.free_list.clear();
}

}  // namespace lwmpi::rt
