// Failure-path and limit coverage for the integration drivers: step-size
// give-up, step caps, switch-count caps, and degenerate inputs must fail
// loudly (flags) rather than hang or lie.
#include <cstddef>

#include <gtest/gtest.h>

#include "ode/hybrid_driver.h"
#include "ode/integrate.h"

namespace bcn::ode {
namespace {

// A fast chattering system: stiffness 100 for x > 0, 400 for x <= 0, so
// the mode flips every half-oscillation.
struct Chattering {
  Vec2 rhs(int mode, double, Vec2 z) const {
    return mode == 0 ? Vec2{z.y, -100.0 * z.x} : Vec2{z.y, -400.0 * z.x};
  }
  int mode_of(double, Vec2 z) const { return z.x > 0.0 ? 0 : 1; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return z.x; }
};

// Constant unit drift in x behind a guard that never crosses.
struct Drift {
  Vec2 rhs(int, double, Vec2) const { return {1.0, 0.0}; }
  int mode_of(double, Vec2) const { return 0; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2) const { return 1.0; }
};

TEST(FailurePathsTest, AdaptiveGivesUpOnNonLipschitzBlowup) {
  // dz/dt = z^2 blows up at t = 1 from z = 1: the driver must stop with
  // completed = false instead of looping forever.
  const Rhs blowup = [](double, Vec2 z) -> Vec2 {
    return {z.x * z.x, 0.0};
  };
  AdaptiveOptions opts;
  opts.max_steps = 100000;
  const auto res = integrate_adaptive(blowup, 0.0, {1.0, 0.0}, 2.0, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_LT(res.trajectory.back().t, 2.0);
}

TEST(FailurePathsTest, MaxStepsBoundsWork) {
  const Rhs osc = [](double, Vec2 z) -> Vec2 { return {z.y, -z.x}; };
  AdaptiveOptions opts;
  opts.max_steps = 5;
  opts.max_step = 0.01;
  const auto res = integrate_adaptive(osc, 0.0, {1.0, 0.0}, 100.0, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_LE(res.steps_accepted, 5u);
}

TEST(FailurePathsTest, HybridMaxSwitchesCap) {
  HybridOptions opts;
  opts.max_switches = 3;
  const auto res = integrate_hybrid(Chattering{}, 0.0, {1.0, 0.0}, 100.0, opts);
  EXPECT_LE(res.switches.size(), 4u);
  EXPECT_FALSE(res.completed);
}

TEST(FailurePathsTest, HybridHonorsMaxStepCap) {
  HybridOptions opts;
  opts.max_step = 0.125;
  const auto res = integrate_hybrid(Drift{}, 0.0, {0.0, 0.0}, 1.0, opts);
  ASSERT_TRUE(res.completed);
  for (std::size_t i = 1; i < res.trajectory.size(); ++i) {
    EXPECT_LE(res.trajectory[i].t - res.trajectory[i - 1].t, 0.125 + 1e-12);
  }
}

TEST(FailurePathsTest, FixedStepWithNonPositiveStepReturnsStart) {
  const Rhs f = [](double, Vec2 z) -> Vec2 { return {z.y, -z.x}; };
  FixedStepOptions opts;
  opts.step = 0.0;
  const auto traj = integrate_fixed(f, 0.0, {1.0, 2.0}, 1.0, opts);
  ASSERT_EQ(traj.size(), 1u);
  EXPECT_EQ(traj[0].z, (Vec2{1.0, 2.0}));
}

TEST(FailurePathsTest, HybridChatteringStillMakesProgress) {
  // With a generous switch budget the chattering system must advance in
  // time (the escape logic prevents Zeno-like stalls at the surface).
  HybridOptions opts;
  opts.max_switches = 100000;
  const auto res = integrate_hybrid(Chattering{}, 0.0, {1.0, 0.0}, 2.0, opts);
  EXPECT_TRUE(res.completed);
  // Half-periods pi/10 and pi/20 give ~8.5 crossings over 2 s.
  EXPECT_GE(res.switches.size(), 8u);
}

}  // namespace
}  // namespace bcn::ode
