// SoA batched switched-system integrator: analytic accuracy, crossing
// localization, retirement/compaction bookkeeping, and the
// zero-steady-state-allocation contract.
#include "ode/batch.h"

#include <cmath>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"

namespace bcn::ode {
namespace {

// An undamped harmonic oscillator dx = y, dy = -omega^2 x expressed in
// the lane family: sigma = -(omega^2 x), dy = 1 * sigma.  Single law, so
// sigma's sign flips are not switching events.
BatchLane oscillator_lane(double omega, double x0, double t_end, double dt) {
  BatchLane lane;
  lane.law.sx = omega * omega;
  lane.law.sy = 0.0;
  lane.law.g0[0] = lane.law.g0[1] = 1.0;
  lane.law.switched = false;
  lane.x0 = x0;
  lane.y0 = 0.0;
  lane.t_end = t_end;
  lane.dt[0] = lane.dt[1] = dt;
  return lane;
}

TEST(BatchIntegratorTest, OscillatorAmplitudeMatchesAnalytic) {
  // x(t) = -A cos(omega t): max over the run is A, min is -A.  The
  // discrete sample set can miss the crest by at most (omega dt)^2/2 A.
  const double omega = 2.0 * std::numbers::pi;
  BatchIntegrator batch;
  batch.reset({oscillator_lane(omega, -3.0, 2.0, 1e-3)});
  batch.run_to_completion();
  const LaneResult& r = batch.results()[0];
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.converged);
  EXPECT_NEAR(r.max_x, 3.0, 1e-4);
  EXPECT_NEAR(r.min_x, -3.0, 1e-4);
  // Single-law lanes never report crossings even though sigma changes
  // sign twice per period.
  EXPECT_FALSE(r.crossed);
  EXPECT_EQ(r.crossings, 0u);
  EXPECT_EQ(r.post_switch_max_x, 0.0);
  EXPECT_EQ(r.post_switch_min_x, 0.0);
}

TEST(BatchIntegratorTest, CrossingLocalizedToAnalyticTime) {
  // sigma = -x; region 0 (sigma > 0, i.e. x < 0) is drift-only with
  // y = 1, so x(t) = -1 + t crosses the surface exactly at t = 1 —
  // mid-macro-step for any dt that does not divide 1.
  BatchLane lane;
  lane.law.sx = 1.0;
  lane.law.sy = 0.0;
  lane.law.drive[0] = 0.0;  // x' = y stays 1 while x < 0
  lane.law.drive[1] = -2.0;  // decelerate after the crossing
  lane.law.switched = true;
  lane.x0 = -1.0;
  lane.y0 = 1.0;
  lane.t_end = 1.2;
  lane.dt[0] = lane.dt[1] = 0.07;
  BatchIntegrator batch;
  batch.reset({lane});
  batch.run_to_completion();
  const LaneResult& r = batch.results()[0];
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.crossed);
  EXPECT_EQ(r.crossings, 1u);
  EXPECT_NEAR(r.first_crossing_t, 1.0, 1e-9);
  // Post-crossing kinematics: x(t) = (t-1) - (t-1)^2 for t in [1, 1.2].
  EXPECT_NEAR(r.post_switch_max_x, 0.2 - 0.04, 1e-9);
  EXPECT_NEAR(r.max_x, 0.2 - 0.04, 1e-9);
}

TEST(BatchIntegratorTest, ConvergenceStopRetiresEarly) {
  // Damped oscillator dy = -omega^2 x - c y: sigma = -(omega^2 x + c y).
  BatchLane lane;
  lane.law.sx = 100.0;  // omega = 10
  lane.law.sy = 8.0;    // strong damping
  lane.law.g0[0] = lane.law.g0[1] = 1.0;
  lane.law.switched = false;
  lane.x0 = 1.0;
  lane.t_end = 1e9;  // horizon unreachable at dt below — must early-stop
  lane.dt[0] = lane.dt[1] = 1e-3;
  lane.inv_x_scale = 1.0;
  lane.inv_y_scale = 0.1;
  lane.stop_tol = 1e-8;
  BatchIntegrator batch;
  batch.reset({lane});
  batch.run_to_completion();
  const LaneResult& r = batch.results()[0];
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.steps, 100000u);
}

TEST(BatchIntegratorTest, PerRegionStepSizesAreUsed) {
  // Identical lanes except for the step size must show step counts in
  // inverse proportion — the integrator reads the per-lane (and, for
  // switched lanes, per-region) dt rather than any shared clock.
  const double omega = 2.0 * std::numbers::pi;
  BatchLane fine = oscillator_lane(omega, -1.0, 0.04, 1e-4);
  BatchLane coarse = fine;
  coarse.dt[0] = coarse.dt[1] = 1e-3;
  BatchIntegrator batch;
  batch.reset({fine, coarse});
  batch.run_to_completion();
  EXPECT_EQ(batch.results()[0].steps, 400u);
  EXPECT_EQ(batch.results()[1].steps, 40u);
}

TEST(BatchIntegratorTest, ResultsKeyedByLaneIdAcrossCompaction) {
  // Lanes with staggered horizons retire in waves; swap-from-last
  // compaction must still land every result in its original slot.
  const double omega = 2.0 * std::numbers::pi;
  std::vector<BatchLane> lanes;
  for (int i = 0; i < 37; ++i) {
    const double amplitude = 1.0 + (i % 5);
    const double t_end = 0.51 + 0.01 * (i % 7);  // past the crest at t=0.5
    lanes.push_back(oscillator_lane(omega, -amplitude, t_end, 1e-3));
  }
  BatchIntegrator batch;
  batch.reset(lanes);
  batch.run_to_completion();
  ASSERT_EQ(batch.results().size(), lanes.size());
  for (int i = 0; i < 37; ++i) {
    EXPECT_NEAR(batch.results()[i].max_x, 1.0 + (i % 5), 1e-3)
        << "lane " << i;
  }
}

TEST(BatchIntegratorTest, SteadyStateAllocatesNothing) {
  const double omega = 2.0 * std::numbers::pi;
  std::vector<BatchLane> lanes(64, oscillator_lane(omega, -1.0, 0.5, 1e-3));
  BatchIntegrator batch;
  // First reset establishes the high-water capacity.
  batch.reset(lanes);
  batch.run_to_completion();

  const bcn::testing::AllocationCounter counter;
  batch.reset(lanes);
  batch.run_to_completion();
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_TRUE(batch.results()[63].completed);
}

TEST(BatchIntegratorTest, RepeatRunsAreBitwiseIdentical) {
  const double omega = 2.0 * std::numbers::pi;
  std::vector<BatchLane> lanes;
  for (int i = 0; i < 8; ++i) {
    lanes.push_back(oscillator_lane(omega * (1.0 + 0.1 * i), -1.0, 0.5, 1e-3));
  }
  BatchIntegrator a, b;
  a.reset(lanes);
  a.run_to_completion();
  // Reuse b for an unrelated size first, to prove reset fully re-arms.
  b.reset(std::vector<BatchLane>(3, lanes[0]));
  b.run_to_completion();
  b.reset(lanes);
  b.run_to_completion();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_EQ(a.results()[i].max_x, b.results()[i].max_x);
    EXPECT_EQ(a.results()[i].min_x, b.results()[i].min_x);
    EXPECT_EQ(a.results()[i].steps, b.results()[i].steps);
  }
}

TEST(BatchIntegratorTest, NonfiniteLaneRetiresWithoutSpinningForever) {
  // An exponentially exploding lane (dy = K x with K dt^2 >> 1) overflows
  // to inf within a few dozen macro steps.  The non-finite guard must
  // retire it with completed = false; without the guard its clock would
  // go NaN, `t >= t_end` would never hold, and run_to_completion would
  // spin forever (regression for the NaN-lane infinite loop).
  BatchLane blowup;
  blowup.law.sx = -1.0;  // sigma = x
  blowup.law.g0[0] = blowup.law.g0[1] = 1e6;  // dy = 1e6 * x
  blowup.law.switched = false;
  blowup.x0 = 1.0;
  blowup.y0 = 0.0;
  blowup.t_end = 1e9;
  blowup.dt[0] = blowup.dt[1] = 1.0;

  const double omega = 2.0 * std::numbers::pi;
  const BatchLane healthy = oscillator_lane(omega, -2.0, 0.5, 1e-3);

  BatchIntegrator batch;
  batch.reset({blowup, healthy});
  batch.run_to_completion();

  const LaneResult& bad = batch.results()[0];
  EXPECT_TRUE(bad.nonfinite);
  EXPECT_FALSE(bad.completed);
  EXPECT_FALSE(bad.converged);
  EXPECT_TRUE(std::isfinite(bad.nonfinite_t));
  EXPECT_GE(bad.nonfinite_t, 0.0);
  EXPECT_LT(bad.steps, 1000u);  // retired fast, not at the 1e9 horizon

  // The poisoned lane must not leak into its batch neighbours.
  const LaneResult& good = batch.results()[1];
  EXPECT_TRUE(good.completed);
  EXPECT_FALSE(good.nonfinite);
  EXPECT_NEAR(good.max_x, 2.0, 1e-3);
}

}  // namespace
}  // namespace bcn::ode
