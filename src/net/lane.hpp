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
// A record comes in two ways. The ch4 eager send writes a Record from its own
// arguments (push(const Record&)), so no Packet exists on the sender's side;
// and an inlinable Packet (the orig device's queued sends, tests) is read
// into a Record and written by the same writer. Both forms share one claim:
// the counters, the cell claim and the overflow rule, so each producer's
// order holds whichever form it pushes.
//
// MPI's non-overtaking rule needs each producer's messages in FIFO order and
// an unbounded mailbox. A producer claims a cell by CAS on the enqueue index,
// so a full ring is detected rather than waited on; it then pushes onto an
// intrusive MPSC overflow queue instead, and keeps doing so while overflow
// that producers wrote earlier is still unconsumed. A Record that spills
// becomes a Packet from the sender's pool, the one allocation left on the
// record path. The consumer drains the ring before the overflow, and takes an
// overflow packet only once no claimed cell is left ahead of it.
//
// Ownership: an inlinable Packet goes back to the sender's thread-local pool
// at push, and poll builds the receiver's Packet from the receiver's pool, so
// on the record path no Packet crosses threads.
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

  // A small eager message as its sender hands it over: the fields a record
  // cell carries, and `data`, which points at `len` <= kInlineBytes payload
  // bytes that push copies into the cell. The netmod stamps deliver_at.
  struct Record {
    std::uint32_t ctx = 0;
    Rank src_comm_rank = 0;
    Rank src_world = 0;
    Tag tag = 0;
    rt::MatchMode match_mode = rt::MatchMode::Full;
    std::uint8_t vci = 0;
    std::uint8_t sampled = 0;
    std::uint8_t len = 0;
    const void* data = nullptr;
    std::uint64_t send_ns = 0;
    std::uint64_t deliver_at = 0;
  };

  // Producer side, any thread. Takes ownership of `p`, whose deliver_at_ns the
  // netmod has stamped. Returns true when this push installed the cells, so
  // the caller can mark the lane live.
  bool push(rt::Packet* p) noexcept {
    const std::size_t n = p->payload.size();
    bool installed = false;
    std::uint64_t pos = 0;
    Cell* c = claim(n, &pos, &installed);
    if (c == nullptr) {
      spill(p);
      return installed;
    }
    if (inlinable(*p, n)) {
      write(*c, record(*p));
      rt::PacketPool::free(p);  // back to the sender's own pool
    } else {
      c->deliver_at = p->deliver_at_ns;
      c->len = kPointer;
      c->pkt = p;
    }
    c->seq.store(pos + 1, std::memory_order_release);
    return installed;
  }

  // Producer side, any thread: the same, for a record the netmod has stamped.
  bool push(const Record& r) noexcept {
    bool installed = false;
    std::uint64_t pos = 0;
    if (Cell* c = claim(r.len, &pos, &installed)) {
      write(*c, r);
      c->seq.store(pos + 1, std::memory_order_release);
    } else {
      spill(packet(r));
    }
    return installed;
  }

  // The Packet form of a record, from the calling thread's pool: the
  // receiver's, when poll reads a record cell; the sender's, when a record
  // spills or must carry a header field a cell has no room for.
  static rt::Packet* packet(const Record& r) {
    rt::Packet* p = rt::PacketPool::alloc();
    p->hdr.match_mode = r.match_mode;
    p->hdr.vci = r.vci;
    p->hdr.ctx = r.ctx;
    p->hdr.src_comm_rank = r.src_comm_rank;
    p->hdr.src_world = r.src_world;
    p->hdr.tag = r.tag;
    p->hdr.total_bytes = r.len;
    p->hdr.sampled = r.sampled;
    p->hdr.send_ns = r.send_ns;
    p->deliver_at_ns = r.deliver_at;
    p->set_payload(r.data, r.len);
    return p;
  }

  // Consumer side: one thread at a time (the Engine's VCI lock). Returns the
  // next matured packet, or nullptr.
  rt::Packet* poll() noexcept {
    const std::uint64_t d = deq_.load(std::memory_order_relaxed);
    if (Cell* cells = cells_.load(std::memory_order_acquire)) {
      Cell& c = cells[d & (kCells - 1)];
      if (c.seq.load(std::memory_order_acquire) == d + 1) {
        if (c.deliver_at != 0 && c.deliver_at > rt::now_ns()) return nullptr;
        rt::Packet* p = c.len == kPointer ? c.pkt : packet(record(c));
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

  static Record record(const rt::Packet& p) noexcept {
    const rt::PacketHeader& h = p.hdr;
    return Record{.ctx = h.ctx,
                  .src_comm_rank = h.src_comm_rank,
                  .src_world = h.src_world,
                  .tag = h.tag,
                  .match_mode = h.match_mode,
                  .vci = h.vci,
                  .sampled = h.sampled,
                  .len = static_cast<std::uint8_t>(p.payload.size()),
                  .data = p.payload.data(),
                  .send_ns = h.send_ns,
                  .deliver_at = p.deliver_at_ns};
  }
  static Record record(const Cell& c) noexcept {
    return Record{.ctx = c.ctx,
                  .src_comm_rank = c.src_comm_rank,
                  .src_world = c.src_world,
                  .tag = c.tag,
                  .match_mode = c.match_mode,
                  .vci = c.vci,
                  .sampled = c.sampled,
                  .len = c.len,
                  .data = c.data,
                  .send_ns = c.send_ns,
                  .deliver_at = c.deliver_at};
  }

  // The one record writer.
  static void write(Cell& c, const Record& r) noexcept {
    c.deliver_at = r.deliver_at;
    c.send_ns = r.send_ns;
    c.ctx = r.ctx;
    c.src_comm_rank = r.src_comm_rank;
    c.src_world = r.src_world;
    c.tag = r.tag;
    c.len = r.len;
    c.match_mode = r.match_mode;
    c.vci = r.vci;
    c.sampled = r.sampled;
    if (r.len != 0) std::memcpy(c.data, r.data, r.len);
  }

  // The one claim both push forms share. Counts the message as injected and
  // returns the cell it claimed, whose sequence number the caller publishes
  // as *pos + 1 once the cell is written; or nullptr when the message must
  // spill, because the ring is full or an earlier overflow is unconsumed.
  Cell* claim(std::size_t n, std::uint64_t* pos, bool* installed) noexcept {
    Cell* cells = cells_.load(std::memory_order_acquire);
    if (cells == nullptr) [[unlikely]] cells = install(installed);
    injected_.fetch_add(1, std::memory_order_relaxed);
    injected_bytes_.fetch_add(n, std::memory_order_relaxed);
    // An earlier overflow push that is still unconsumed may be this
    // producer's own: the ring must not overtake it.
    if (overflow_delivered_.load(std::memory_order_acquire) !=
        overflows_.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    std::uint64_t p = enq_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& c = cells[p & (kCells - 1)];
      const auto dif = static_cast<std::int64_t>(c.seq.load(std::memory_order_acquire) - p);
      if (dif == 0) {
        if (enq_.compare_exchange_weak(p, p + 1, std::memory_order_relaxed)) {
          *pos = p;
          return &c;
        }
      } else if (dif < 0) {
        return nullptr;  // full: the consumer has not freed this cell's last lap
      } else {
        p = enq_.load(std::memory_order_relaxed);
      }
    }
  }

  void spill(rt::Packet* p) noexcept {
    overflows_.fetch_add(1, std::memory_order_relaxed);
    overflow_.push(p);
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
