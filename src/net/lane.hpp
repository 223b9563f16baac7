// One receive lane of the fabric: the (rank, vci) endpoint every netmod
// delivers into and the progress engine polls.
//
// A lane is a ring of 64 one-cache-line cells with per-cell sequence numbers
// (Vyukov's bounded queue, used here as multi-producer / single-consumer).
// A small, untraced eager message travels as a compact record inside one cell:
// the header fields the receiver reads, the send stamp, the maturation time
// and up to kInlineBytes of payload, so a 1-byte ping-pong moves one line
// between the two cores instead of a heap Packet, its payload buffer and the
// queue and counter lines around them. Every other packet rides as a Packet*
// in its cell.
//
// MPI's non-overtaking rule needs each producer's messages in FIFO order and
// an unbounded mailbox. A producer claims a cell by CAS on the enqueue index,
// so a full ring is detected rather than waited on; it then pushes onto an
// intrusive MPSC overflow queue instead, and keeps doing so while overflow
// that producers wrote earlier is still unconsumed. The consumer drains the
// ring before the overflow, and takes an overflow packet only once no claimed
// cell is left ahead of it.
//
// Ownership: a record's Packet goes back to the sender's thread-local pool at
// push, and poll builds the receiver's Packet from the receiver's pool, so on
// the record path no Packet crosses threads.
//
// The cells are allocated by the first push (a world builds a lane per rank
// and VCI, and most never carry traffic), and sit behind a pointer alone on a
// read-only line. The counters keep their meaning: producers count injected
// packets and bytes with RMWs on their own line; the consumer counts
// deliveries with single-writer stores on another.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/types.hpp"
#include "runtime/backoff.hpp"
#include "runtime/packet.hpp"

namespace lwmpi::net {

class Lane {
 public:
  // Ring depth and record size follow from the cache line; not options.
  static constexpr std::uint64_t kCells = 64;
  static constexpr std::size_t kInlineBytes = 20;

  Lane() = default;
  // Teardown, after every producer and the consumer have stopped: frees the
  // undelivered packets (a record owns none).
  ~Lane() {
    if (Cell* cells = cells_.load(std::memory_order_acquire)) {
      for (std::uint64_t d = deq_.load(std::memory_order_relaxed);; ++d) {
        const Cell& c = cells[d & (kCells - 1)];
        if (c.seq.load(std::memory_order_acquire) != d + 1) break;
        if (c.len == kPointer) rt::PacketPool::free(c.pkt);
      }
      delete[] cells;
    }
    rt::PacketPool::free(held_);
    while (rt::Packet* p = overflow_.pop()) rt::PacketPool::free(p);
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  // Producer side, any thread. Takes ownership of `p`, whose deliver_at_ns the
  // netmod has stamped. Returns true when this push installed the cells, so
  // the caller can mark the lane live.
  bool push(rt::Packet* p) noexcept {
    bool installed = false;
    Cell* cells = cells_.load(std::memory_order_acquire);
    if (cells == nullptr) [[unlikely]] cells = install(&installed);
    const std::size_t n = p->payload.size();
    injected_.fetch_add(1, std::memory_order_relaxed);
    injected_bytes_.fetch_add(n, std::memory_order_relaxed);
    // An earlier overflow push that is still unconsumed may be this
    // producer's own: the ring must not overtake it.
    if (overflow_delivered_.load(std::memory_order_acquire) ==
        overflows_.load(std::memory_order_relaxed)) {
      std::uint64_t pos = enq_.load(std::memory_order_relaxed);
      for (;;) {
        Cell& c = cells[pos & (kCells - 1)];
        const auto dif = static_cast<std::int64_t>(c.seq.load(std::memory_order_acquire) - pos);
        if (dif == 0) {
          if (enq_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
            fill(c, p, n);
            c.seq.store(pos + 1, std::memory_order_release);
            return installed;
          }
        } else if (dif < 0) {
          break;  // full: the consumer has not freed this cell's last lap
        } else {
          pos = enq_.load(std::memory_order_relaxed);
        }
      }
    }
    overflows_.fetch_add(1, std::memory_order_relaxed);
    overflow_.push(p);
    return installed;
  }

  // Consumer side: one thread at a time (the Engine's VCI lock). Returns the
  // next matured packet, or nullptr.
  rt::Packet* poll() noexcept {
    const std::uint64_t d = deq_.load(std::memory_order_relaxed);
    if (Cell* cells = cells_.load(std::memory_order_acquire)) {
      Cell& c = cells[d & (kCells - 1)];
      if (c.seq.load(std::memory_order_acquire) == d + 1) {
        if (c.deliver_at != 0 && c.deliver_at > rt::now_ns()) return nullptr;
        rt::Packet* p = c.len == kPointer ? c.pkt : build(c);
        c.seq.store(d + kCells, std::memory_order_release);
        deq_.store(d + 1, std::memory_order_relaxed);
        count_delivered(p);
        return p;
      }
    }
    // The ring is empty at its head: the overflow's turn.
    if (held_ == nullptr && (held_ = overflow_.pop()) == nullptr) return nullptr;
    rt::Packet* p = held_;
    // The held packet's producer claimed its earlier ring cells before pushing
    // it (and the pop synchronized with that push), so a claimed cell ahead
    // of deq_ may be one of them: wait for it to publish.
    if (enq_.load(std::memory_order_acquire) != d) return nullptr;
    if (p->deliver_at_ns != 0 && p->deliver_at_ns > rt::now_ns()) return nullptr;
    held_ = nullptr;
    overflow_delivered_.store(overflow_delivered_.load(std::memory_order_relaxed) + 1,
                              std::memory_order_release);
    count_delivered(p);
    return p;
  }

  // The doorbell: true if a packet may be waiting (matured or not). Any thread
  // of the owning rank may ask, without the VCI lock. It reads the head cell
  // and the overflow counts, which only the overflow path writes -- no line
  // that every producer writes.
  bool ready() const noexcept {
    const Cell* cells = cells_.load(std::memory_order_acquire);
    if (cells == nullptr) return false;
    const std::uint64_t d = deq_.load(std::memory_order_relaxed);
    if (cells[d & (kCells - 1)].seq.load(std::memory_order_relaxed) == d + 1) return true;
    return overflows_.load(std::memory_order_relaxed) !=
           overflow_delivered_.load(std::memory_order_relaxed);
  }

  // Counts, any thread. pending() is exact once the lane is quiet: it loads
  // delivered before injected, so it never reads a delivery whose injection
  // it cannot see.
  std::uint64_t pending() const noexcept {
    const std::uint64_t d = delivered_.load(std::memory_order_acquire);
    return injected_.load(std::memory_order_acquire) - d;
  }
  std::uint64_t injected() const noexcept { return injected_.load(std::memory_order_relaxed); }
  std::uint64_t delivered() const noexcept { return delivered_.load(std::memory_order_relaxed); }
  std::uint64_t injected_bytes() const noexcept {
    return injected_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered_bytes() const noexcept {
    return delivered_bytes_.load(std::memory_order_relaxed);
  }
  // Pushes that found the ring full, or found earlier overflow unconsumed.
  std::uint64_t overflows() const noexcept { return overflows_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint8_t kPointer = 0xFF;  // Cell::len of a Packet* cell

  // One cache line. A record carries exactly what the receiver of an eager
  // packet reads: the matching fields, the latency tier's send stamp and
  // sample mark, and the payload (total_bytes is the payload size).
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> seq{0};
    std::uint64_t deliver_at = 0;
    union {
      rt::Packet* pkt;            // len == kPointer
      std::uint64_t send_ns = 0;  // a record
    };
    std::uint32_t ctx = 0;
    Rank src_comm_rank = 0;
    Rank src_world = 0;
    Tag tag = 0;
    std::uint8_t len = 0;  // payload bytes of a record, or kPointer
    rt::MatchMode match_mode = rt::MatchMode::Full;
    std::uint8_t vci = 0;
    std::uint8_t sampled = 0;
    std::byte data[kInlineBytes];
  };
  static_assert(sizeof(Cell) == 64, "a cell is one cache line");

  // Only an untraced eager packet whose payload fits rides as a record.
  // Traced packets (seq, lclock) and rdma packets that stalled for a credit
  // (stall_ns) carry header fields a record does not.
  static bool inlinable(const rt::Packet& p, std::size_t n) noexcept {
    const rt::PacketHeader& h = p.hdr;
    return h.kind == rt::PacketKind::Eager && n <= kInlineBytes && h.total_bytes == n &&
           (h.seq | h.lclock | h.stall_ns) == 0;
  }

  static void fill(Cell& c, rt::Packet* p, std::size_t n) noexcept {
    c.deliver_at = p->deliver_at_ns;
    if (!inlinable(*p, n)) {
      c.len = kPointer;
      c.pkt = p;
      return;
    }
    const rt::PacketHeader& h = p->hdr;
    c.send_ns = h.send_ns;
    c.ctx = h.ctx;
    c.src_comm_rank = h.src_comm_rank;
    c.src_world = h.src_world;
    c.tag = h.tag;
    c.len = static_cast<std::uint8_t>(n);
    c.match_mode = h.match_mode;
    c.vci = h.vci;
    c.sampled = h.sampled;
    if (n != 0) std::memcpy(c.data, p->payload.data(), n);
    rt::PacketPool::free(p);  // back to the sender's own pool
  }

  static rt::Packet* build(const Cell& c) {
    rt::Packet* p = rt::PacketPool::alloc();  // from the receiver's pool
    p->hdr.match_mode = c.match_mode;
    p->hdr.vci = c.vci;
    p->hdr.ctx = c.ctx;
    p->hdr.src_comm_rank = c.src_comm_rank;
    p->hdr.src_world = c.src_world;
    p->hdr.tag = c.tag;
    p->hdr.total_bytes = c.len;
    p->hdr.sampled = c.sampled;
    p->hdr.send_ns = c.send_ns;
    p->deliver_at_ns = c.deliver_at;
    p->set_payload(c.data, c.len);
    return p;
  }

  Cell* install(bool* installed) noexcept {
    Cell* fresh = new Cell[kCells];
    for (std::uint64_t i = 0; i < kCells; ++i) fresh[i].seq.store(i, std::memory_order_relaxed);
    Cell* cur = nullptr;
    if (cells_.compare_exchange_strong(cur, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      *installed = true;
      return fresh;
    }
    delete[] fresh;  // another producer won the race
    return cur;
  }

  void count_delivered(const rt::Packet* p) noexcept {
    delivered_.store(delivered_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
    delivered_bytes_.store(
        delivered_bytes_.load(std::memory_order_relaxed) + p->payload.size(),
        std::memory_order_relaxed);
  }

  // Read-only once installed; alone on its line so no counter write evicts it.
  alignas(64) std::atomic<Cell*> cells_{nullptr};
  // Producers' line.
  alignas(64) std::atomic<std::uint64_t> enq_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> injected_bytes_{0};
  // Consumer's line. deq_ is atomic only because the doorbell reads it from
  // the owning rank's other threads.
  alignas(64) std::atomic<std::uint64_t> deq_{0};
  rt::Packet* held_ = nullptr;  // popped from overflow, not yet delivered
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> delivered_bytes_{0};
  // The overflow path's counts: every push reads them, only overflow writes.
  alignas(64) std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> overflow_delivered_{0};
  rt::MpscQueue<rt::Packet> overflow_;
};

}  // namespace lwmpi::net
