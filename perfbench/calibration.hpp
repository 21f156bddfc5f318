// Core-speed probe. The shared host this benchmark runs on changes speed
// from minute to minute (clock frequency, neighbours on the same core), and
// every timing moves with it. The probe times a fixed pointer chase through
// a 256 KiB random cycle, which stays in a core's private cache and touches
// nothing of the simulator, so its time tracks the core's speed alone.
// Dividing a timing by the probe time taken next to it removes the drift.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// Mean of the fastest tenth of probe times on the reference machine (a
  /// 4-vCPU Sapphire Rapids Xeon KVM guest). A timing divided by the probe
  /// time and multiplied by this reads in seconds on that machine.
  static constexpr double kReferenceSeconds = 0.864e-3;

  SpeedProbe() : next_(kSlots) {
    // Sattolo's algorithm: one cycle through every slot, fixed seed.
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0U);
    std::uint64_t state = 0x5eedULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(order[i], order[(state >> 33) % i]);
    }
    for (std::size_t i = 0; i < kSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kSlots];
    }
  }

  /// One warm-up lap (refills the cache after the previous run), then the
  /// timed chase; seconds.
  [[nodiscard]] double time_once() {
    chase(kSlots);
    const auto t0 = std::chrono::steady_clock::now();
    chase(kTimedSteps);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

 private:
  static constexpr std::size_t kSlots = 256 * 1024 / sizeof(std::uint32_t);
  static constexpr std::size_t kTimedSteps = 160'000;

  void chase(std::size_t steps) {
    std::uint32_t at = at_;
    for (std::size_t i = 0; i < steps; ++i) at = next_[at];
    at_ = at;  // a data dependence the compiler cannot drop
  }

  std::vector<std::uint32_t> next_;
  std::uint32_t at_{0};
};

}  // namespace perfbench
