// Wire unit exchanged between ranks through the simulated fabric.
//
// A packet carries one protocol message: eager pt2pt data, a rendezvous
// control message, a rendezvous data segment, an RMA active message, or an
// RMA synchronization message. Packets are intrusive MPSC nodes so a lane's
// overflow insertion is allocation-free, and they are recycled through a
// thread-local pool to keep the injection path cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "runtime/mpsc_queue.hpp"

namespace lwmpi::rt {

enum class PacketKind : std::uint8_t {
  Eager = 0,     // pt2pt eager message, payload inline
  Rts,           // rendezvous request-to-send (no payload)
  Cts,           // rendezvous clear-to-send (reply to Rts)
  RdvData,       // rendezvous payload segment
  AmPut,         // RMA put fallback active message
  AmGetReq,      // RMA get request
  AmGetReply,    // RMA get data
  AmAcc,         // RMA accumulate active message
  AmGetAccReq,   // RMA get_accumulate request (payload = origin data)
  AmGetAccReply, // RMA get_accumulate fetched data
  AmAck,         // RMA remote-completion acknowledgment
  AmLockReq,     // passive-target lock request
  AmLockGrant,   // lock granted
  AmUnlock,      // unlock notification
  AmUnlockAck,   // unlock completed at target
  AmPscwPost,    // PSCW: target exposes its window to an origin
  AmPscwComplete,// PSCW: origin finished its access epoch
  Barrier,       // world-level runtime barrier (not MPI barrier)
  RdvDone,       // zero-copy rendezvous: data landed via rdma_write (no payload)
};

// Matching mode for pt2pt packets.
enum class MatchMode : std::uint8_t {
  Full = 0,      // (context, source, tag) matching
  ArrivalOrder,  // _NOMATCH: context only, FIFO
};

struct PacketHeader {
  PacketKind kind = PacketKind::Eager;
  MatchMode match_mode = MatchMode::Full;
  std::uint8_t vci = 0;             // fabric lane / channel (VCI) id
  std::uint16_t op = 0;             // ReduceOp for accumulate AMs
  std::uint32_t ctx = 0;            // communicator context id
  Rank src_comm_rank = 0;           // sender rank within the communicator
  Rank src_world = 0;               // sender world rank (reply address)
  Tag tag = 0;
  std::uint64_t total_bytes = 0;    // full message size
  std::uint64_t offset = 0;         // RdvData segment offset / RMA target disp
  std::uint32_t origin_req = 0;     // origin-side request id (Cts/Ack routing)
  std::uint32_t target_req = 0;     // target-side request id (RdvData routing)
  std::uint32_t win_id = 0;         // window id for RMA messages
  Datatype dt = kDatatypeNull;      // target-side datatype for AM ops
  std::uint32_t dt_count = 0;       // target-side element count
  std::uint32_t lock_type = 0;      // LockType for lock messages
  std::uint64_t seq = 0;            // trace message id (0 = tracing off)
  std::uint64_t rkey = 0;           // registered-buffer token (zero-copy rdv Cts)
  std::uint8_t zcopy = 0;           // Rts: sender offers zero-copy handoff

  // Causal header (observability tier 4, obs/causal.hpp). Stamped by the
  // net::Fabric facade at the injection boundary so every backend carries it.
  // send_ns is stamped only for a packet the sender's latency tier sampled
  // (`sampled`), or for every packet in a traced world; 0 means unstamped.
  std::uint8_t sampled = 0;         // sender marks: stamp send_ns at inject
  std::uint64_t send_ns = 0;        // obs::lat_now_ns() when injected, or 0
  std::uint64_t lclock = 0;         // origin's Lamport clock after the inject tick
  std::uint32_t stall_ns = 0;       // ns the injection busy-waited for a ring credit
};

struct Packet : MpscNode {
  PacketHeader hdr;
  std::vector<std::byte> payload;
  std::uint64_t deliver_at_ns = 0;  // network latency maturation time

  void set_payload(const void* data, std::size_t n) {
    payload.resize(n);
    if (n != 0) std::memcpy(payload.data(), data, n);
  }
  std::span<const std::byte> bytes() const noexcept { return payload; }
};

// Thread-local packet pool. A small untraced eager message crosses the fabric
// as a lane record (net/lane.hpp): its Packet returns to the sender's pool at
// injection and the receiver builds one from its own, so that traffic never
// moves packets between pools. A packet that rides its lane as a pointer
// (larger payloads, rendezvous and RMA kinds, traced or credit-stalled
// packets, a window that overflows the ring) is freed by the receiver and
// joins the receiver's pool; lists are bounded so asymmetric traffic degrades
// to heap allocation rather than growing without bound.
class PacketPool {
 public:
  static Packet* alloc();
  static void free(Packet* p) noexcept;

  // Testing hooks.
  static std::size_t tl_pool_size() noexcept;
  static void tl_drain() noexcept;

 private:
  static constexpr std::size_t kMaxPooled = 4096;
};

}  // namespace lwmpi::rt
