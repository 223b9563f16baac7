// Spin-wait backoff of the engine's one blocking loop (Engine::block_until),
// the rdma credit wait and trace replay (apps/replay.cpp). With ranks mapped to
// threads (possibly oversubscribed), pure spinning starves the peer we are
// waiting on, so the policy escalates: pause -> yield -> short sleep.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace lwmpi::rt {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

class Backoff {
 public:
  void pause() noexcept {
    ++spins_;
    if (spins_ < kSpinLimit) {
      cpu_relax();
    } else if ((spins_ & kSleepEvery) != 0) {
      // Yield-dominant: with ranks oversubscribed onto few cores, the peer
      // we are waiting on needs the CPU, and long sleeps would add tens of
      // microseconds to every blocking completion.
      std::this_thread::yield();
    } else {
      // Asks for 5 us, but a Linux thread sleeps at least its timer slack
      // (50 us by default, /proc/self/timerslack_ns): a 200-call probe on a
      // 4-vCPU host measured 59-62 us at p50. One pause in 1024 pays that.
      std::this_thread::sleep_for(std::chrono::microseconds(5));
    }
  }
  void reset() noexcept { spins_ = 0; }

 private:
  static constexpr std::uint32_t kSpinLimit = 128;
  static constexpr std::uint32_t kSleepEvery = 0x3FF;  // sleep 1 pause in 1024
  std::uint32_t spins_ = 0;
};

// Busy-wait for a calibrated duration; models fixed per-message hardware
// injection cost in the network simulator.
inline void spin_for_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) cpu_relax();
}

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace lwmpi::rt
