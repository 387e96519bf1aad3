// Deterministic common-random-numbers seed schedule.
//
// Policy comparisons (sim/compare.h) evaluate every arm on the *same*
// seeds so that per-seed workload jitter and sensor noise cancel out of
// the arm-vs-arm difference (common random numbers, the classic variance
// reduction). The schedule is a pure function of one base seed: entry i is
// the splitmix64-derived stream seed for index i, so any consumer that
// knows (base, i) reconstructs the same seed — independent of round
// boundaries, thread or worker count, or how many entries were consumed
// before. Adaptive runners can therefore re-slice their budget freely
// without perturbing which seed the i-th sample uses.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace mobitherm::util {

class SeedSchedule {
 public:
  explicit constexpr SeedSchedule(std::uint64_t base_seed)
      : base_(base_seed) {}

  /// The i-th schedule entry: derive_seed(base, i). Pure — same (base, i),
  /// same seed, on every machine and at any point in the run.
  constexpr std::uint64_t at(std::uint64_t index) const {
    return derive_seed(base_, index);
  }

  constexpr std::uint64_t base() const { return base_; }

 private:
  std::uint64_t base_;
};

}  // namespace mobitherm::util
