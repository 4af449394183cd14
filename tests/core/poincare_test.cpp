#include "core/poincare.h"

#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/analytic_tracer.h"
#include "digest.h"
#include "test_params.h"

namespace bcn::core {
namespace {

using namespace testing;

// The raw bits of fig7_limit_cycle's return-map scans at every level and
// of its limit-cycle searches at Nonlinear and Clipped, on the same plant
// and options.
TEST(PoincareTest, ReturnMapsMatchPinnedDigest) {
  const BcnParams p = case1_params();
  PoincareOptions popts;
  popts.max_time = 0.05;
  const std::vector<double> amplitudes = {1e9, 5e9, 2e10, 8e10, 2e11};
  bcn::testing::Digest digest;
  int returns = 0;
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear,
                           ModelLevel::Clipped}) {
    const PoincareMap map(FluidModel(p, level), popts);
    for (const std::optional<double>& r :
         scan_contraction_ratios(map, amplitudes)) {
      digest.add(r.has_value()).add(r.value_or(0.0));
      returns += r ? 1 : 0;
    }
  }
  CycleSearchOptions copts;
  copts.poincare.max_time = 0.05;
  copts.s_lo = 1e9;
  copts.s_hi = 2e11;
  copts.bracket_samples = 10;
  for (const auto level : {ModelLevel::Nonlinear, ModelLevel::Clipped}) {
    const std::optional<LimitCycle> cycle =
        find_limit_cycle(FluidModel(p, level), copts);
    const LimitCycle c = cycle.value_or(LimitCycle{});
    digest.add(cycle.has_value())
        .add(c.amplitude)
        .add(c.period)
        .add(c.max_x)
        .add(c.min_x);
  }
  EXPECT_EQ(returns, 15);
  EXPECT_EQ(digest.value(), 0xbcf9e228e5245738ull);
}

TEST(PoincareTest, SectionPointRoundTrip) {
  const FluidModel model(case1_params(), ModelLevel::Linearized);
  const PoincareMap map(model);
  for (double s : {1e3, 1e6, 1e9}) {
    const Vec2 z = map.section_point(s);
    // On the switching line, in the decrease-entry quadrant.
    EXPECT_NEAR(z.x + case1_params().k() * z.y, 0.0, 1e-9 * s);
    EXPECT_LT(z.x, 0.0);
    EXPECT_GT(z.y, 0.0);
    EXPECT_NEAR(map.parameter_of(z), s, 1e-9 * s);
  }
}

TEST(PoincareTest, LinearizedMapIsLinearContraction) {
  // For the linearized switched system the return map is exactly linear:
  // P(s)/s is the same constant < 1 at every amplitude.
  const FluidModel model(case1_params(), ModelLevel::Linearized);
  PoincareOptions opts;
  opts.max_time = 0.05;
  const PoincareMap map(model, opts);
  const auto r1 = map.ratio(1e9);
  const auto r2 = map.ratio(5e10);
  ASSERT_TRUE(r1);
  ASSERT_TRUE(r2);
  EXPECT_LT(*r1, 1.0);
  EXPECT_GT(*r1, 0.0);
  EXPECT_NEAR(*r1, *r2, 1e-3 * *r1);
}

TEST(PoincareTest, LinearizedRatioMatchesTracerContraction) {
  const BcnParams p = case1_params();
  const FluidModel model(p, ModelLevel::Linearized);
  PoincareOptions opts;
  opts.max_time = 0.05;
  const PoincareMap map(model, opts);
  const auto ratio = map.ratio(1e10);
  const auto trace = AnalyticTracer(p).trace();
  const auto tracer_ratio = trace.contraction_ratio();
  ASSERT_TRUE(ratio);
  ASSERT_TRUE(tracer_ratio);
  EXPECT_NEAR(*ratio, *tracer_ratio, 0.01 * *tracer_ratio);
}

TEST(PoincareTest, NoInteriorLimitCycleInLinearizedSystem) {
  const FluidModel model(case1_params(), ModelLevel::Linearized);
  CycleSearchOptions opts;
  opts.poincare.max_time = 0.05;
  opts.s_lo = 1e8;
  opts.s_hi = 1e11;
  opts.bracket_samples = 8;
  EXPECT_FALSE(find_limit_cycle(model, opts));
}

TEST(PoincareTest, NonlinearMapContractsForStandardDraft) {
  const FluidModel model(case1_params(), ModelLevel::Nonlinear);
  PoincareOptions opts;
  opts.max_time = 0.05;
  const PoincareMap map(model, opts);
  const auto r_small = map.ratio(1e9);
  const auto r_large = map.ratio(2e11);
  ASSERT_TRUE(r_small);
  ASSERT_TRUE(r_large);
  EXPECT_LT(*r_small, 1.0);
  EXPECT_LT(*r_large, 1.0);
}

TEST(PoincareTest, MapRejectsNonPositiveParameter) {
  const FluidModel model(case1_params(), ModelLevel::Linearized);
  const PoincareMap map(model);
  EXPECT_FALSE(map.map(0.0));
  EXPECT_FALSE(map.map(-1.0));
}

TEST(PoincareTest, ClippedMapSaturatesAtWallsAndStillContracts) {
  // Reproduction finding (see EXPERIMENTS.md): even with the buffer walls
  // the return map contracts at every amplitude -- large orbits are capped
  // by the walls (P(s) saturates to a constant) and then decay, so the
  // paper's Fig. 7 interior limit cycle does NOT occur in the fluid model
  // itself; sustained oscillation in practice comes from the near-unity
  // contraction ratio plus the quantization effects the fluid model drops.
  const FluidModel model(case1_params(), ModelLevel::Clipped);
  PoincareOptions popts;
  popts.max_time = 0.05;
  const PoincareMap map(model, popts);
  const auto p_big1 = map.map(1e11);
  const auto p_big2 = map.map(2e11);
  ASSERT_TRUE(p_big1);
  ASSERT_TRUE(p_big2);
  // Wall saturation: the return amplitude no longer grows with s.
  EXPECT_NEAR(*p_big1, *p_big2, 0.02 * *p_big1);
  EXPECT_LT(*p_big1, 1e11);

  CycleSearchOptions opts;
  opts.poincare.max_time = 0.05;
  opts.s_lo = 1e9;
  opts.s_hi = 2e11;
  opts.bracket_samples = 10;
  EXPECT_FALSE(find_limit_cycle(model, opts));
}

TEST(PoincareTest, NonlinearDeepCrashDissipates) {
  // A wall-clipped transient dives to y ~ -C (all rates throttled); the
  // following return amplitude collapses far below the entry amplitude --
  // the mechanism that kills candidate limit cycles.
  BcnParams p = case1_params();
  p.q0 = 2e6;
  p.buffer = 5e6;
  p.qsc = 4.5e6;
  const FluidModel model(p, ModelLevel::Clipped);
  PoincareOptions popts;
  popts.max_time = 0.05;
  const PoincareMap map(model, popts);
  const auto r = map.ratio(5e10);
  ASSERT_TRUE(r);
  EXPECT_LT(*r, 0.5);
}

}  // namespace
}  // namespace bcn::core
