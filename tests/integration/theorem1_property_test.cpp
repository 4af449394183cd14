// Property suite for Theorem 1 across randomized parameter sets: the
// criterion must be *sound* (no false "stable" verdicts) on the linearized
// model it was derived for, and empirically also on the nonlinear model,
// whose overshoot we always observed below the linearized one.
#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/analytic_tracer.h"
#include "core/stability.h"

namespace bcn::core {
namespace {

BcnParams random_params(Rng& rng) {
  BcnParams p;
  p.num_sources = std::floor(rng.uniform(2.0, 200.0));
  p.capacity = rng.uniform(1e9, 40e9);
  p.q0 = rng.uniform(0.2e6, 5e6);
  p.buffer = p.q0 + rng.uniform(0.5e6, 40e6);
  p.qsc = p.q0 + 0.9 * (p.buffer - p.q0);
  p.w = rng.uniform(0.5, 8.0);
  p.pm = rng.uniform(0.002, 0.2);
  p.gi = rng.uniform(0.05, 50.0);
  p.gd = rng.uniform(1.0 / 2048.0, 0.5);
  p.ru = rng.uniform(1e6, 64e6);
  return p;
}

struct SweepParam {
  std::uint64_t seed;
  int trials;
};

// gtest prints a parameter without a PrintTo as its bytes, padding
// included, which differ from build to build; ctest names each case by
// this text.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_trials" << p.trials;
}

class Theorem1Sweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Theorem1Sweep, SoundOnLinearizedModel) {
  Rng rng(GetParam().seed);
  int satisfied = 0;
  for (int i = 0; i < GetParam().trials; ++i) {
    const BcnParams p = random_params(rng);
    if (!p.is_valid() || !p.satisfies_theorem1()) continue;
    ++satisfied;
    const auto verdict =
        numeric_strong_stability(p, {.level = ModelLevel::Linearized});
    EXPECT_TRUE(verdict.strongly_stable) << p.describe();
  }
  EXPECT_GE(satisfied, 3) << "sweep produced too few Theorem-1 cases";
}

TEST_P(Theorem1Sweep, EmpiricallySoundOnNonlinearModel) {
  Rng rng(GetParam().seed ^ 0xabcdef);
  int satisfied = 0;
  for (int i = 0; i < GetParam().trials; ++i) {
    const BcnParams p = random_params(rng);
    if (!p.is_valid() || !p.satisfies_theorem1()) continue;
    ++satisfied;
    const auto verdict =
        numeric_strong_stability(p, {.level = ModelLevel::Nonlinear});
    EXPECT_TRUE(verdict.strongly_stable) << p.describe();
  }
  EXPECT_GE(satisfied, 3);
}

TEST_P(Theorem1Sweep, AnalyticExtremaRespectTheBound) {
  // For every random parameter set (any case), the closed-form transient
  // extrema must respect max(x) < sqrt(a/(bC)) q0 and min(x) > -q0 --
  // the inequalities Theorem 1's proof establishes.
  Rng rng(GetParam().seed ^ 0x5eed);
  for (int i = 0; i < GetParam().trials; ++i) {
    const BcnParams p = random_params(rng);
    if (!p.is_valid()) continue;
    const auto trace = AnalyticTracer(p).trace();
    const double bound = std::sqrt(p.a() / (p.b() * p.capacity)) * p.q0;
    EXPECT_LT(trace.max_x, bound * (1.0 + 1e-9)) << p.describe();
    EXPECT_GT(trace.min_x, -p.q0 * (1.0 + 1e-9)) << p.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweeps, Theorem1Sweep,
                         ::testing::Values(SweepParam{101, 40},
                                           SweepParam{202, 40},
                                           SweepParam{303, 40}));

TEST(Theorem1Necessity, CriterionIsNotNecessary) {
  // Theorem 1 is sufficient, not necessary: exhibit a parameter set that
  // violates the criterion yet is numerically strongly stable (the
  // nonlinear overshoot undershoots the linearized bound).
  BcnParams p = BcnParams::standard_draft();
  p.buffer = 8e6;  // below the 13.8 Mbit requirement, above the ~4.4 Mbit
  p.qsc = 7.5e6;   // nonlinear overshoot measured in SimulateTest
  ASSERT_FALSE(p.satisfies_theorem1());
  const auto verdict =
      numeric_strong_stability(p, {.level = ModelLevel::Nonlinear});
  EXPECT_TRUE(verdict.strongly_stable);
}

}  // namespace
}  // namespace bcn::core
