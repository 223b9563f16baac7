// Intrusive multi-producer single-consumer queue (Vyukov). Used as the
// overflow of a fabric receive lane (net/lane.hpp): any rank may inject
// packets, only the owning rank's progress engine consumes. Wait-free push;
// pop is lock-free and preserves per-producer FIFO order (matching in-order
// network delivery).
#pragma once

#include <atomic>
#include <cstddef>

namespace lwmpi::rt {

struct MpscNode {
  std::atomic<MpscNode*> next{nullptr};
};

template <typename T>
  requires std::derived_from<T, MpscNode>
class MpscQueue {
 public:
  MpscQueue() : head_(&stub_), tail_(&stub_) { stub_.next.store(nullptr, std::memory_order_relaxed); }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Wait-free, callable from any thread.
  void push(T* node) noexcept {
    node->next.store(nullptr, std::memory_order_relaxed);
    MpscNode* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  // Single consumer only. Returns nullptr when empty (or when a producer is
  // mid-push; callers treat that as empty and retry on the next poll).
  T* pop() noexcept {
    MpscNode* tail = tail_;
    MpscNode* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) return nullptr;
      tail_ = next;
      tail = next;
      next = next->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      tail_ = next;
      return static_cast<T*>(tail);
    }
    MpscNode* head = head_.load(std::memory_order_acquire);
    if (tail != head) return nullptr;  // producer mid-push; retry later
    push_stub();
    next = tail->next.load(std::memory_order_acquire);
    if (next != nullptr) {
      tail_ = next;
      return static_cast<T*>(tail);
    }
    return nullptr;
  }

  // Consumer-side emptiness probe (approximate under concurrent pushes).
  bool empty() const noexcept {
    return tail_ == &stub_ && stub_.next.load(std::memory_order_acquire) == nullptr &&
           head_.load(std::memory_order_acquire) == const_cast<MpscNode*>(&stub_);
  }

 private:
  void push_stub() noexcept {
    stub_.next.store(nullptr, std::memory_order_relaxed);
    MpscNode* prev = head_.exchange(&stub_, std::memory_order_acq_rel);
    prev->next.store(&stub_, std::memory_order_release);
  }

  alignas(64) std::atomic<MpscNode*> head_;
  alignas(64) MpscNode* tail_;
  MpscNode stub_;
};

}  // namespace lwmpi::rt
