// Edge-case coverage across the core stack: exact Case-5 boundaries,
// step-budget exhaustion, and off-nominal initial conditions.
#include <gtest/gtest.h>

#include "core/analytic_tracer.h"
#include "core/simulate.h"
#include "core/stability.h"
#include "test_params.h"

namespace bcn::core {
namespace {

using namespace testing;

TEST(EdgeCasesTest, Case5BoundaryIntegratesCleanly) {
  // Exactly degenerate eigenvalues (dyadic construction): both the tracer
  // and the numeric hybrid must handle the L-type solutions.
  for (const BcnParams& p :
       {case5_increase_boundary(), case5_decrease_boundary()}) {
    const auto trace = AnalyticTracer(p).trace();
    EXPECT_FALSE(trace.rounds.empty()) << p.describe();
    const auto verdict =
        numeric_strong_stability(p, {.level = ModelLevel::Linearized});
    EXPECT_TRUE(std::isfinite(verdict.max_x)) << p.describe();
  }
}

TEST(EdgeCasesTest, Case5DecreaseBoundaryIsStrictlyStable) {
  // Proposition 4's b-boundary branch (the sound one): verified.
  const BcnParams p = case5_decrease_boundary();
  EXPECT_TRUE(numeric_strong_stability(p, {.level = ModelLevel::Linearized})
                  .strongly_stable);
}

TEST(EdgeCasesTest, StepBudgetExhaustionReportsIncomplete) {
  const BcnParams p = case1_params();
  const FluidModel model(p, ModelLevel::Nonlinear);
  FluidRunOptions opts;
  opts.duration = 1.0;  // far beyond what 50 steps can cover
  opts.max_steps = 50;
  const auto run = simulate_fluid(model, opts);
  EXPECT_FALSE(run.completed);
  EXPECT_LT(run.trajectory.back().t, 1.0);
}

TEST(EdgeCasesTest, StartInDecreaseRegion) {
  // z0 deep in the decrease region: first round must be Decrease and the
  // orbit still contracts home.
  const BcnParams p = case1_params();
  const Vec2 z0{1e6, 5e9};
  const auto trace = AnalyticTracer(p).trace_from(z0);
  ASSERT_FALSE(trace.rounds.empty());
  EXPECT_EQ(trace.rounds[0].region, Region::Decrease);
  const auto ratio = trace.contraction_ratio();
  if (ratio) {
    EXPECT_LT(*ratio, 1.0);
  }
}

TEST(EdgeCasesTest, StartAtEquilibriumStaysThere) {
  const BcnParams p = case1_params();
  AnalyticTraceOptions opts;
  const auto trace = AnalyticTracer(p).trace_from({0.0, 0.0}, opts);
  EXPECT_TRUE(trace.converged);
  EXPECT_TRUE(trace.rounds.empty());

  const FluidModel model(p, ModelLevel::Nonlinear);
  FluidRunOptions ropts;
  ropts.duration = 1e-4;
  ropts.z0 = Vec2{0.0, 0.0};
  const auto run = simulate_fluid(model, ropts);
  EXPECT_LT(std::abs(run.trajectory.back().z.x), 1.0);
  EXPECT_LT(std::abs(run.trajectory.back().z.y), 1e3);
}

TEST(EdgeCasesTest, SingleSourcePlant) {
  BcnParams p = case1_params();
  p.num_sources = 1.0;
  ASSERT_TRUE(p.is_valid());
  const auto report = analyze_stability(p);
  EXPECT_GT(report.theorem1_required_buffer, p.q0);
  const auto verdict = numeric_strong_stability(p);
  EXPECT_TRUE(std::isfinite(verdict.max_x));
}

TEST(EdgeCasesTest, VeryDeepBufferAlwaysStableForCase1Draft) {
  BcnParams p = case1_params();
  p.buffer = 1e9;  // effectively unbounded
  p.qsc = 0.9e9;
  EXPECT_TRUE(numeric_strong_stability(p).strongly_stable);
}

TEST(EdgeCasesTest, WarmupDurationMatchesPaperFormula) {
  // Paper Section IV.C: from the physical start (empty queue, rate mu)
  // the system slides along the empty wall with dy/dt = a q0 until the
  // aggregate reaches C, taking T0 = (C - N mu)/(a q0).  Measure the wall
  // departure in the clipped model and compare.
  BcnParams p = case1_params();
  p.init_rate = 0.4 * p.capacity / p.num_sources;  // 40% load at t = 0
  const double t0_formula = p.warmup_duration();
  ASSERT_GT(t0_formula, 0.0);

  const FluidModel model(p, ModelLevel::Clipped);
  FluidRunOptions opts;
  opts.duration = 3.0 * t0_formula;
  opts.z0 = model.physical_initial_point();
  const auto run = simulate_fluid(model, opts);

  // The departure from the empty wall is the switch out of the wall mode.
  double t_departure = -1.0;
  for (const auto& sw : run.switches) {
    if (sw.from_mode == BufferWalls<BcnLaw>::kEmptyWall) {
      t_departure = sw.t;
      break;
    }
  }
  ASSERT_GT(t_departure, 0.0);
  EXPECT_NEAR(t_departure, t0_formula, 0.05 * t0_formula);
}

TEST(EdgeCasesTest, TraceFromPointOnSwitchingLine) {
  // Starting exactly on sigma = 0: region_of puts it in Decrease (the
  // > 0 convention); the tracer must not loop at t = 0.
  const BcnParams p = case1_params();
  const double k = p.k();
  const Vec2 on_line{-1e5, 1e5 / k};
  const auto trace = AnalyticTracer(p).trace_from(on_line);
  ASSERT_FALSE(trace.rounds.empty());
  for (const auto& r : trace.rounds) {
    if (r.duration) {
      EXPECT_GT(*r.duration, 0.0);
    }
  }
}

}  // namespace
}  // namespace bcn::core
