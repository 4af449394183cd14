// Parameter factories covering every paper case, shared by the core and
// integration test suites.
#pragma once

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/bcn_params.h"

namespace bcn::core::testing {

// Case 1 (spiral/spiral): the paper's standard-draft configuration.
inline BcnParams case1_params() { return BcnParams::standard_draft(); }

// A compact dyadic base: k = w/(pm C) = 1/(0.5 * 2048) = 2^-10 exactly, so
// the spiral threshold 4/k^2 = 2^22 is exact in floating point.
inline BcnParams dyadic_base() {
  BcnParams p;
  p.capacity = 2048.0;
  p.w = 1.0;
  p.pm = 0.5;
  p.q0 = 16.0;
  p.buffer = 64.0;
  p.qsc = 32.0;
  p.num_sources = 4.0;
  p.ru = 4096.0;
  p.gi = 1.0;     // a = Ru Gi N = 2^14 << 2^22: spiral
  p.gd = 1.0;     // b C = 2^11 << 2^22: spiral
  p.init_rate = 0.0;
  return p;
}

// Case 2 (node increase / spiral decrease): a > 4/k^2, b C < 4/k^2.
inline BcnParams case2_params() {
  BcnParams p = dyadic_base();
  p.gi = 4096.0;  // a = 2^26 > 2^22
  p.gd = 1.0;     // b C = 2^11 < 2^22
  return p;
}

// Case 3 (spiral increase / node decrease): a < 4/k^2, b C > 4/k^2.
inline BcnParams case3_params() {
  BcnParams p = dyadic_base();
  p.gi = 1.0;       // a = 2^14 < 2^22
  p.gd = 8192.0;    // b C = 2^24 > 2^22
  return p;
}

// Case 4 (node/node).
inline BcnParams case4_params() {
  BcnParams p = dyadic_base();
  p.gi = 4096.0;  // a = 2^26
  p.gd = 8192.0;  // b C = 2^24
  return p;
}

// Case 5 boundaries, exact in floating point thanks to the dyadic base.
inline BcnParams case5_increase_boundary() {
  BcnParams p = dyadic_base();
  p.gi = 256.0;  // a = 2^22 = 4/k^2 exactly
  p.gd = 1.0;
  return p;
}

inline BcnParams case5_decrease_boundary() {
  BcnParams p = dyadic_base();
  p.gi = 1.0;
  p.gd = 2048.0;  // b C = 2^22 exactly
  return p;
}

// A plant drawn around the standard draft: E22's gain ranges (log-uniform
// Gi in [1/8, 32], Gd in [1/1024, 1/2]), plus the sampling probability,
// the source count and the buffer, so the draws cover Cases 1-4 and both
// verdicts.
inline BcnParams seeded_plant(Rng& rng) {
  const auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  BcnParams p = BcnParams::standard_draft();
  p.gi = log_uniform(0.125, 32.0);
  p.gd = log_uniform(1.0 / 1024.0, 0.5);
  p.pm = log_uniform(0.002, 0.05);
  p.num_sources = rng.uniform(10.0, 100.0);
  p.buffer = rng.uniform(5e6, 20e6);
  p.qsc = 0.9 * p.buffer;
  return p;
}

// The plants the typed-integration tests share: 32 seeded draws, whose
// verdicts mostly run to their horizon, plus the dyadic Case 2-4 plants,
// whose orbits reach the convergence stop.
inline std::vector<BcnParams> typed_core_plants() {
  Rng rng(1901);
  std::vector<BcnParams> plants;
  for (int i = 0; i < 32; ++i) plants.push_back(seeded_plant(rng));
  plants.push_back(case2_params());
  plants.push_back(case3_params());
  plants.push_back(case4_params());
  return plants;
}

}  // namespace bcn::core::testing
