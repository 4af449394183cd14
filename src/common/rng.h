// Deterministic pseudo-random number generation.
//
// The packet simulator and the property-test sweeps must be reproducible
// bit-for-bit across runs, so everything random in this repository flows
// through this xoshiro256** generator seeded explicitly (never from the
// clock).
#pragma once

#include <cstdint>

namespace bcn {

class Rng {
 public:
  // Seeds the four 64-bit lanes from `seed` via splitmix64, so that any
  // seed (including 0) produces a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit value (xoshiro256**).
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  // True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

 private:
  std::uint64_t s_[4];
};

}  // namespace bcn
