// Integrator step statistics surfaced for the observability layer: the
// hybrid driver must account for accepted/rejected DOPRI5 steps, the
// smallest accepted dt, and the bisection effort spent localizing each
// switching-surface crossing.
#include <cstddef>

#include <gtest/gtest.h>

#include "ode/hybrid_driver.h"
#include "ode/integrate.h"

namespace bcn::ode {
namespace {

// The switched oscillator from hybrid_test: stiffness 1 for x > 0,
// stiffness 4 for x < 0, guard x = 0.
struct SwitchedOscillator {
  Vec2 rhs(int mode, double, Vec2 z) const {
    return mode == 0 ? Vec2{z.y, -z.x} : Vec2{z.y, -4.0 * z.x};
  }
  int mode_of(double, Vec2 z) const { return z.x > 0.0 ? 0 : 1; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return z.x; }
};

// An unswitched oscillator behind a guard that never crosses.
struct Unswitched {
  Vec2 rhs(int, double, Vec2 z) const { return {z.y, -z.x}; }
  int mode_of(double, Vec2) const { return 0; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2) const { return 1.0; }
};

TEST(StepStatsTest, HybridCountsStepsAndBisections) {
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.tol = {1e-10, 1e-10};
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 10.0, opts);
  ASSERT_TRUE(res.completed);
  ASSERT_GE(res.switches.size(), 3u);

  EXPECT_GT(res.steps_accepted, 0u);
  // Every recorded trajectory advance comes from an accepted step.
  EXPECT_GE(res.steps_accepted, res.trajectory.size() - 1);
  EXPECT_GT(res.min_accepted_step, 0.0);
  EXPECT_LE(res.min_accepted_step, 10.0);

  // Each guard crossing was localized by bisection, and the per-switch
  // iteration counts sum to the total.
  std::size_t per_switch_total = 0;
  for (const auto& sw : res.switches) {
    EXPECT_GT(sw.bisection_iterations, 0) << "switch at t=" << sw.t;
    per_switch_total += static_cast<std::size_t>(sw.bisection_iterations);
  }
  EXPECT_EQ(res.event_bisection_iterations, per_switch_total);
}

TEST(StepStatsTest, NoSwitchingMeansNoBisectionEffort) {
  const Unswitched sys{};
  HybridOptions opts;
  opts.tol = {1e-9, 1e-9};
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 5.0, opts);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.switches.empty());
  EXPECT_EQ(res.event_bisection_iterations, 0u);
  EXPECT_GT(res.steps_accepted, 0u);
  EXPECT_GT(res.min_accepted_step, 0.0);
}

TEST(StepStatsTest, TighterToleranceCostsMoreSteps) {
  const SwitchedOscillator sys{};
  HybridOptions loose;
  loose.tol = {1e-6, 1e-6};
  HybridOptions tight;
  tight.tol = {1e-12, 1e-12};
  const auto coarse = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 10.0, loose);
  const auto fine = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 10.0, tight);
  ASSERT_TRUE(coarse.completed);
  ASSERT_TRUE(fine.completed);
  EXPECT_GT(fine.steps_accepted, coarse.steps_accepted);
  EXPECT_LT(fine.min_accepted_step, coarse.min_accepted_step);
}

TEST(StepStatsTest, SmoothAdaptiveTracksMinAcceptedStep) {
  AdaptiveOptions opts;
  opts.tol = {1e-10, 1e-10};
  const auto res = integrate_adaptive(
      [](double, Vec2 z) -> Vec2 { return {z.y, -z.x}; }, 0.0, {1.0, 0.0},
      5.0, opts);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.min_accepted_step, 0.0);
  EXPECT_LE(res.min_accepted_step, 5.0);
}

}  // namespace
}  // namespace bcn::ode
