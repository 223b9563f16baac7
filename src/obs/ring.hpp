// The one event ring of the observability plane: fixed power-of-two capacity,
// overwrite-oldest, single writer.
//
// The trace tier keeps one per channel (core/vci.hpp); the flight recorder
// keeps an op ring and an anchor ring per rank (obs/recorder.hpp). push() is
// one slot store plus a release store of the head: it never blocks or
// allocates, so a ring cannot perturb the code it observes. One thread pushes
// at a time; whoever owns the ring says which (the channel lock, the rank
// thread). Readers acquire the head and
// copy the slots it covers. They are exact once the writer is quiescent
// (after World::run joins its rank threads); a mid-run read, as the watchdog
// takes of a stalled rank, may see a slot the writer is overwriting.
//
// Slots are raw storage: a ring commits memory only as entries land, and a
// reader only copies slots a push has written, so T must be trivially
// copyable.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace lwmpi::obs {

template <class T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  // Capacity is min_capacity rounded up to a power of two; 0 holds nothing
  // and must not be pushed to (the untraced channels' rings).
  explicit Ring(std::size_t min_capacity)
      : slots_(min_capacity == 0
                   ? nullptr
                   : static_cast<T*>(::operator new(std::bit_ceil(min_capacity) * sizeof(T)))),
        mask_(min_capacity == 0 ? 0 : std::bit_ceil(min_capacity) - 1) {}

  // Appends `v`, overwriting the oldest entry when full; returns its push
  // index. The slot is written by memcpy: for the recorder's register-packed
  // RecOp that is two 8-byte stores, and gcc keeps the caller's state in
  // registers across it, which a struct assignment (byte-typed members may
  // alias anything) makes it reload.
  [[gnu::always_inline]] inline std::uint64_t push(const T& v) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::memcpy(slots_.get() + (h & mask_), &v, sizeof(T));
    head_.store(h + 1, std::memory_order_release);
    return h;
  }

  std::size_t capacity() const noexcept { return slots_ == nullptr ? 0 : mask_ + 1; }
  // Entries pushed over the ring's lifetime, overwritten ones included.
  std::uint64_t recorded() const noexcept { return head_.load(std::memory_order_acquire); }
  std::uint64_t dropped() const noexcept {
    const std::uint64_t h = recorded();
    return h > capacity() ? h - capacity() : 0;
  }

  // The newest min(n, held) entries, oldest first; *first, when given, gets
  // the push index of the first one.
  std::vector<T> last(std::size_t n, std::uint64_t* first = nullptr) const {
    const std::uint64_t h = recorded();
    std::uint64_t take = h < capacity() ? h : capacity();
    if (n < take) take = n;
    if (first != nullptr) *first = h - take;
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(take));
    for (std::uint64_t i = h - take; i < h; ++i) out.push_back(slots_.get()[i & mask_]);
    return out;
  }
  // Every entry still held, oldest first.
  std::vector<T> collect(std::uint64_t* first = nullptr) const {
    return last(capacity(), first);
  }

 private:
  struct Free {
    void operator()(T* p) const noexcept { ::operator delete(p); }
  };
  // push reads these three, in this order, from one cache line.
  std::unique_ptr<T, Free> slots_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace lwmpi::obs
