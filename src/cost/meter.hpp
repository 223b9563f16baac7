// Instruction-cost accounting: the reproduction's substitute for the Intel
// SDE traces used in the paper.
//
// Every step on the MPI critical path carries a charge site: a (category,
// instruction-count) pair tagged with a *fine-grained* attribution category.
// When a Meter is armed on the calling thread, walking the code path
// accumulates the modeled dynamic instruction count as a per-category
// histogram. Categories roll up into the coarse Groups of the paper's
// Table 1 (error checking / thread safety / call overhead / redundant checks
// / mandatory), with the Section-3 mandatory sub-reasons kept separate so the
// per-proposal savings of Figure 6 are observable from the live path. When no
// meter is armed the charge is a single thread-local pointer test.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace lwmpi::cost {

// Fine-grained attribution categories: one per distinct *reason* an
// instruction exists on the fast path. The Mand* entries map one-to-one onto
// the paper's Section-3 mandatory overheads (3.1-3.6 plus the locality and
// injection residuals no proposal removes); OrigLayering absorbs everything
// the CH3-style original device adds on top of the flow-through path.
enum class Category : std::uint8_t {
  ErrCheck = 0,  // argument / object validation (not mandated)
  ThreadGate,    // runtime thread-safety gate
  CallOverhead,  // MPI function-call + PMPI indirection overhead
  Redundant,     // runtime checks a compiler could fold with inlining
  MandRankmap,   // 3.1: communicator rank -> network address
  MandVa,        // 3.2: window offset -> virtual address (RMA)
  MandObject,    // 3.3: dynamically-allocated comm/win object lookup
  MandProcNull,  // 3.4: MPI_PROC_NULL branch
  MandRequest,   // 3.5: per-operation request allocation/tracking
  MandMatch,     // 3.6: source/tag match-bit construction
  MandLocality,  // locality (self/shmmod/netmod) selection residual
  MandInject,    // low-level injection API residual
  OrigLayering,  // CH3-style layering: ADI dispatch, op queues, AM builds
  kCount,
};
inline constexpr std::size_t kNumCategories = static_cast<std::size_t>(Category::kCount);

// Coarse rollup: the rows of the paper's Table 1, plus an extra row for the
// original device's layering so ch4 and orig breakdowns render side by side.
enum class Group : std::uint8_t {
  ErrorChecking = 0,
  ThreadSafety,
  FunctionCall,
  RedundantChecks,
  Mandatory,
  OrigLayering,
  kCount,
};
inline constexpr std::size_t kNumGroups = static_cast<std::size_t>(Group::kCount);

constexpr Group group_of(Category c) noexcept {
  switch (c) {
    case Category::ErrCheck: return Group::ErrorChecking;
    case Category::ThreadGate: return Group::ThreadSafety;
    case Category::CallOverhead: return Group::FunctionCall;
    case Category::Redundant: return Group::RedundantChecks;
    case Category::MandRankmap:
    case Category::MandVa:
    case Category::MandObject:
    case Category::MandProcNull:
    case Category::MandRequest:
    case Category::MandMatch:
    case Category::MandLocality:
    case Category::MandInject: return Group::Mandatory;
    case Category::OrigLayering:
    case Category::kCount: break;
  }
  return Group::OrigLayering;
}

std::string_view to_string(Category c) noexcept;
std::string_view to_string(Group g) noexcept;

class Meter {
 public:
  void add(Category c, std::uint32_t instructions) noexcept {
    by_category_[static_cast<std::size_t>(c)] += instructions;
    total_ += instructions;
  }

  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t category(Category c) const noexcept {
    return by_category_[static_cast<std::size_t>(c)];
  }
  std::uint64_t group(Group g) const noexcept {
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < kNumCategories; ++i) {
      if (group_of(static_cast<Category>(i)) == g) t += by_category_[i];
    }
    return t;
  }

  void reset() noexcept {
    by_category_.fill(0);
    total_ = 0;
  }

  // Merge another meter's accumulation into this one. Lets per-thread or
  // per-phase meters be combined into a whole-run breakdown (SPMD harnesses
  // arm one meter per rank thread, then fold them into one report).
  Meter& operator+=(const Meter& other) noexcept {
    for (std::size_t i = 0; i < kNumCategories; ++i) by_category_[i] += other.by_category_[i];
    total_ += other.total_;
    return *this;
  }

  // Value-type copy of the current tallies, decoupled from the live meter:
  // safe to stash, diff, or ship across threads after the meter keeps ticking.
  struct Snapshot {
    std::array<std::uint64_t, kNumCategories> by_category{};
    std::uint64_t total = 0;

    std::uint64_t category(Category c) const noexcept {
      return by_category[static_cast<std::size_t>(c)];
    }
    std::uint64_t group(Group g) const noexcept {
      std::uint64_t t = 0;
      for (std::size_t i = 0; i < kNumCategories; ++i) {
        if (group_of(static_cast<Category>(i)) == g) t += by_category[i];
      }
      return t;
    }
  };
  Snapshot snapshot() const noexcept {
    Snapshot s;
    s.by_category = by_category_;
    s.total = total_;
    return s;
  }

 private:
  std::array<std::uint64_t, kNumCategories> by_category_{};
  std::uint64_t total_ = 0;
};

// Thread-local armed meter (nullptr when metering is off). The pointer is an
// inline, constant-initialized thread_local, so charge() below compiles to one
// TLS load and a branch: no out-of-line call and no init guard.
inline constinit thread_local Meter* tl_meter_ptr = nullptr;
inline Meter*& tl_meter() noexcept { return tl_meter_ptr; }

// RAII: arms `meter` on this thread for its scope.
class ScopedMeter {
 public:
  explicit ScopedMeter(Meter& m) noexcept : prev_(tl_meter()) { tl_meter() = &m; }
  ~ScopedMeter() { tl_meter() = prev_; }
  ScopedMeter(const ScopedMeter&) = delete;
  ScopedMeter& operator=(const ScopedMeter&) = delete;

 private:
  Meter* prev_;
};

inline void charge(Category c, std::uint32_t n) noexcept {
  if (Meter* m = tl_meter()) m->add(c, n);
}

}  // namespace lwmpi::cost
