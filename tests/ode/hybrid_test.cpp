#include "ode/hybrid.h"

#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "ode/hybrid_driver.h"
#include "ode/integrate.h"

namespace bcn::ode {
namespace {

// A switched oscillator: stiffness 1 for x > 0, stiffness 4 for x < 0.
// Solutions alternate half-periods pi (right) and pi/2 (left); amplitude in
// velocity is conserved, amplitude in x halves on the left half-plane.
struct SwitchedOscillator {
  Vec2 rhs(int mode, double, Vec2 z) const {
    return mode == 0 ? Vec2{z.y, -z.x} : Vec2{z.y, -4.0 * z.x};
  }
  int mode_of(double, Vec2 z) const { return z.x > 0.0 ? 0 : 1; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return z.x; }
};

// One mode with field `f`, and a guard that never crosses.
template <class F>
struct OneMode {
  F f;

  Vec2 rhs(int, double t, Vec2 z) const { return f(t, z); }
  int mode_of(double, Vec2) const { return 0; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2) const { return 1.0; }
};

// Mode 0: fall with constant velocity; mode 1 (wall at x <= 0): stay.
struct FallOntoWall {
  Vec2 rhs(int mode, double, Vec2) const {
    return mode == 0 ? Vec2{-1.0, 0.0} : Vec2{0.0, 0.0};
  }
  int mode_of(double, Vec2 z) const { return z.x > 1e-12 ? 0 : 1; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return z.x; }
};

TEST(HybridTest, SwitchesAtTheSurface) {
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.tol = {1e-10, 1e-10};
  // Start at x=1, v=0: half-period pi in mode 0, then crosses into mode 1.
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 2.5, opts);
  ASSERT_TRUE(res.completed);
  ASSERT_GE(res.switches.size(), 1u);
  const auto& sw = res.switches.front();
  EXPECT_NEAR(sw.t, 1.5707963267948966, 1e-7);  // quarter period: x=cos t
  EXPECT_EQ(sw.from_mode, 0);
  EXPECT_EQ(sw.to_mode, 1);
  EXPECT_NEAR(sw.z.x, 0.0, 1e-7);
  EXPECT_NEAR(sw.z.y, -1.0, 1e-7);
}

TEST(HybridTest, VelocityAmplitudePreservedAcrossManySwitches) {
  // Both modes conserve their own energy; at the switching surface x = 0
  // the energy is y^2/2 in both, so |y| at every crossing equals 1.
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.tol = {1e-11, 1e-11};
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 20.0, opts);
  ASSERT_TRUE(res.completed);
  ASSERT_GE(res.switches.size(), 6u);
  for (const auto& sw : res.switches) {
    EXPECT_NEAR(std::abs(sw.z.y), 1.0, 1e-6) << "at t=" << sw.t;
  }
}

TEST(HybridTest, MatchesSmoothIntegratorWhenNoSwitching) {
  const OneMode sys{[](double, Vec2 z) -> Vec2 { return {z.y, -z.x}; }};
  HybridOptions opts;
  opts.tol = {1e-10, 1e-10};
  const auto hybrid = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 5.0, opts);
  AdaptiveOptions aopts;
  aopts.tol = {1e-10, 1e-10};
  const auto smooth = integrate_adaptive(sys.f, 0.0, {1.0, 0.0}, 5.0, aopts);
  ASSERT_TRUE(hybrid.completed);
  ASSERT_TRUE(smooth.completed);
  EXPECT_TRUE(hybrid.switches.empty());
  EXPECT_NEAR(hybrid.trajectory.back().z.x, smooth.trajectory.back().z.x,
              1e-7);
}

TEST(HybridTest, StopWhenFires) {
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.stop_when = [](double t, Vec2) { return t > 1.0; };
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 100.0, opts);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_TRUE(res.completed);
  EXPECT_LT(res.trajectory.back().t, 2.0);
}

TEST(HybridTest, RecordIntervalResamplesUniformly) {
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.record_interval = 0.1;
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 1.0, opts);
  ASSERT_TRUE(res.completed);
  ASSERT_GE(res.trajectory.size(), 10u);
  EXPECT_NEAR(res.trajectory[1].t - res.trajectory[0].t, 0.1, 1e-9);
  EXPECT_NEAR(res.trajectory[1].z.x, std::cos(0.1), 1e-6);
}

TEST(HybridTest, DegenerateSpanCompletes) {
  const SwitchedOscillator sys{};
  const auto res = integrate_hybrid(sys, 1.0, {1.0, 0.0}, 1.0, {});
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.trajectory.size(), 1u);
}

TEST(HybridTest, WallModeSaturation) {
  const auto res = integrate_hybrid(FallOntoWall{}, 0.0, {1.0, 0.0}, 5.0, {});
  ASSERT_TRUE(res.completed);
  EXPECT_NEAR(res.trajectory.back().z.x, 0.0, 1e-6);
  ASSERT_EQ(res.switches.size(), 1u);
  EXPECT_NEAR(res.switches[0].t, 1.0, 1e-6);
}

// Non-finite guard: a RHS that emits NaN once past a threshold must
// abort the integration with nonfinite set instead of letting the NaN
// pass DOPRI5's acceptance test (NaN comparisons are false, so
// `error > 1` never rejects a poisoned step).
TEST(HybridTest, NonfiniteStateAbortsWithDiagnostics) {
  const OneMode sys{[](double t, Vec2 z) -> Vec2 {
    if (t > 1.0) return {std::nan(""), std::nan("")};
    return {z.y, -z.x};
  }};
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 10.0, {});
  EXPECT_TRUE(res.nonfinite);
  EXPECT_FALSE(res.completed);
  EXPECT_GE(res.nonfinite_t, 0.0);
  EXPECT_LE(res.nonfinite_t, 10.0);
  // Only finite samples may land in the trajectory.
  for (const auto& s : res.trajectory.samples()) {
    EXPECT_TRUE(std::isfinite(s.z.x) && std::isfinite(s.z.y))
        << "at t=" << s.t;
  }
}

TEST(HybridTest, NonfiniteInitialConditionAbortsImmediately) {
  const SwitchedOscillator sys{};
  const auto res =
      integrate_hybrid(sys, 0.0, {std::nan(""), 0.0}, 1.0, {});
  EXPECT_TRUE(res.nonfinite);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.steps_accepted, 0u);
}

}  // namespace
}  // namespace bcn::ode
