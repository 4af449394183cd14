// Randomized robustness sweeps: across broad random parameter sets the
// whole analysis stack must stay finite (no NaN/inf), self-consistent,
// and never crash -- integrators, tracer, classifier, verdicts, Poincare.
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/analytic_tracer.h"
#include "core/fluid_model.h"
#include "core/poincare.h"
#include "core/simulate.h"
#include "core/stability.h"

namespace bcn::core {
namespace {

bool finite(double v) { return std::isfinite(v); }

BcnParams wild_params(Rng& rng) {
  BcnParams p;
  p.num_sources = std::floor(rng.uniform(1.0, 1000.0));
  p.capacity = rng.uniform(1e6, 1e11);
  p.q0 = rng.uniform(1e2, 1e7);
  p.buffer = p.q0 * rng.uniform(1.5, 100.0);
  p.qsc = p.q0 + 0.9 * (p.buffer - p.q0);
  p.w = rng.uniform(0.1, 100.0);
  p.pm = rng.uniform(1e-3, 1.0);
  p.gi = rng.uniform(1e-3, 1e4);
  p.gd = rng.uniform(1e-5, 1e4);
  p.ru = rng.uniform(1e3, 1e8);
  return p;
}

struct FuzzSeed {
  std::uint64_t seed;
  int trials;
};

// gtest prints a parameter without a PrintTo as its bytes, padding
// included, which differ from build to build; ctest names each case by
// this text.
void PrintTo(const FuzzSeed& s, std::ostream* os) {
  *os << "seed" << s.seed << "_trials" << s.trials;
}

class FuzzSweep : public ::testing::TestWithParam<FuzzSeed> {};

TEST_P(FuzzSweep, AnalysisStackStaysFinite) {
  Rng rng(GetParam().seed);
  for (int i = 0; i < GetParam().trials; ++i) {
    const BcnParams p = wild_params(rng);
    if (!p.is_valid()) continue;

    const auto cls = classify_case(p);
    (void)cls;

    const auto trace = AnalyticTracer(p).trace();
    EXPECT_TRUE(finite(trace.max_x)) << p.describe();
    EXPECT_TRUE(finite(trace.min_x)) << p.describe();
    // Extrema ordering invariant.
    EXPECT_GE(trace.max_x, trace.min_x) << p.describe();
    // Rounds chain in time.
    for (const auto& r : trace.rounds) {
      if (r.duration) {
        EXPECT_GT(*r.duration, 0.0) << p.describe();
      }
      EXPECT_TRUE(finite(r.z_start.x) && finite(r.z_start.y))
          << p.describe();
    }

    const auto report = analyze_stability(p);
    EXPECT_TRUE(finite(report.theorem1_required_buffer)) << p.describe();
    EXPECT_GT(report.theorem1_required_buffer, p.q0) << p.describe();
    // The baseline always declares physical parameters stable (Prop. 1).
    EXPECT_TRUE(report.baseline.declared_stable) << p.describe();
  }
}

TEST_P(FuzzSweep, NumericIntegrationStaysFinite) {
  Rng rng(GetParam().seed ^ 0xf00d);
  int ran = 0;
  for (int i = 0; i < GetParam().trials && ran < 10; ++i) {
    const BcnParams p = wild_params(rng);
    if (!p.is_valid()) continue;
    ++ran;
    for (const auto level :
         {ModelLevel::Linearized, ModelLevel::Nonlinear, ModelLevel::Clipped}) {
      const auto verdict = numeric_strong_stability(p, {.level = level});
      EXPECT_TRUE(finite(verdict.max_x)) << p.describe();
      EXPECT_TRUE(finite(verdict.min_x)) << p.describe();
      // max_x spans all t > 0 and starts at x(0+) ~ -q0; min_x is the
      // post-first-crossing dip (0 when no crossing happened), so the only
      // universal ordering is against the start wall.
      EXPECT_GE(verdict.max_x, -p.q0 * (1.0 + 1e-9)) << p.describe();
      EXPECT_GE(verdict.min_x, -p.buffer * 100.0) << p.describe();
    }
  }
  EXPECT_GE(ran, 5);
}

// The plants NumericIntegrationStaysFinite draws, whose wild gains give
// rejected steps and tiny steps: the report's paired Linearized and
// Nonlinear verdicts must be their own calls', bit for bit.
TEST_P(FuzzSweep, PairedVerdictsMatchOwnCalls) {
  Rng rng(GetParam().seed ^ 0xf00d);
  int ran = 0;
  for (int i = 0; i < GetParam().trials && ran < 10; ++i) {
    const BcnParams p = wild_params(rng);
    if (!p.is_valid()) continue;
    ++ran;
    const FluidModel lin(p, ModelLevel::Linearized);
    const FluidModel non(p, ModelLevel::Nonlinear);
    const auto paired = numeric_strong_stability_pair(lin, non);
    const NumericVerdict own[2] = {numeric_strong_stability(lin),
                                   numeric_strong_stability(non)};
    for (int l = 0; l < 2; ++l) {
      const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
      EXPECT_EQ(bits(paired[l].max_x), bits(own[l].max_x)) << p.describe();
      EXPECT_EQ(bits(paired[l].min_x), bits(own[l].min_x)) << p.describe();
      EXPECT_EQ(paired[l].strongly_stable, own[l].strongly_stable)
          << p.describe();
      EXPECT_EQ(paired[l].converged, own[l].converged) << p.describe();
      EXPECT_EQ(paired[l].nonfinite, own[l].nonfinite) << p.describe();
    }
  }
  EXPECT_GE(ran, 5);
}

TEST_P(FuzzSweep, PoincareMapNeverExpandsToInfinity) {
  Rng rng(GetParam().seed ^ 0xbeef);
  int probed = 0;
  for (int i = 0; i < GetParam().trials && probed < 6; ++i) {
    const BcnParams p = wild_params(rng);
    if (!p.is_valid()) continue;
    if (classify_case(p).paper_case != PaperCase::Case1) continue;
    ++probed;
    PoincareOptions opts;
    opts.max_time =
        200.0 * (1.0 / std::sqrt(p.a()) + 1.0 / std::sqrt(p.b() * p.capacity));
    const PoincareMap map(FluidModel(p, ModelLevel::Nonlinear), opts);
    const double s = 0.5 * p.capacity;
    const auto r = map.map(s);
    if (r) {
      EXPECT_TRUE(finite(*r)) << p.describe();
      EXPECT_LT(*r, s) << "expansion found -- a limit cycle candidate! "
                       << p.describe();
    }
  }
  EXPECT_GE(probed, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(FuzzSeed{1001, 30},
                                           FuzzSeed{2002, 30},
                                           FuzzSeed{3003, 30}));

}  // namespace
}  // namespace bcn::core
