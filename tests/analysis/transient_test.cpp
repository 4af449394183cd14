#include "analysis/transient.h"

#include <cmath>

#include <gtest/gtest.h>

#include "../support/transient_metrics.h"
#include "core/simulate.h"

namespace bcn::analysis {
namespace {

using testing::measure_transient;

// x(t) = A e^{-d t} cos(w t): known overshoot A, period 2pi/w, decay d.
ode::Trajectory damped(double amplitude, double damping, double omega,
                       double t_end = 20.0, double dt = 0.001) {
  ode::Trajectory t;
  for (double s = 0.0; s <= t_end; s += dt) {
    t.push_back(s, {amplitude * std::exp(-damping * s) * std::cos(omega * s),
                    0.0});
  }
  return t;
}

TEST(MeasureTransientTest, KnownDampedOscillation) {
  const double q0 = 1.0;
  const auto m = measure_transient(damped(2.0, 0.5, 6.283), q0, 0.05);
  EXPECT_NEAR(m.overshoot_ratio, 2.0, 0.05);
  ASSERT_TRUE(m.oscillation_period);
  EXPECT_NEAR(*m.oscillation_period, 1.0, 0.05);
  ASSERT_TRUE(m.envelope_decay_rate);
  EXPECT_NEAR(*m.envelope_decay_rate, 0.5, 0.05);
  EXPECT_TRUE(m.settled);
  // |x| falls below 0.05 at t ~ ln(40)/0.5 = 7.4.
  EXPECT_NEAR(m.settling_time, std::log(2.0 / 0.05) / 0.5, 1.0);
}

TEST(MeasureTransientTest, UnsettledTraceReported) {
  // Pure cosine never settles.
  const auto m = measure_transient(damped(1.0, 0.0, 6.283, 5.0), 1.0, 0.05);
  EXPECT_FALSE(m.settled);
  EXPECT_TRUE(std::isinf(m.settling_time));
}

TEST(MeasureTransientTest, EmptyTrajectorySafe) {
  const auto m = measure_transient({}, 1.0);
  EXPECT_DOUBLE_EQ(m.overshoot_ratio, 0.0);
  EXPECT_FALSE(m.oscillation_period);
}

TEST(EstimateTransientTest, MatchesMeasurementOnLinearizedModel) {
  // A config damped enough to settle within a manageable horizon.
  core::BcnParams p = core::BcnParams::standard_draft();
  p.gi = 0.05;           // weaker drive: slower oscillation, same structure
  p.gd = 0.1;            // strong decrease: heavier damping
  p.buffer = 40e6;
  p.qsc = 36e6;
  const auto est = estimate_transient(p, 0.05);
  ASSERT_TRUE(est);
  EXPECT_GT(est->contraction_ratio, 0.0);
  EXPECT_LT(est->contraction_ratio, 1.0);

  core::FluidRunOptions opts;
  opts.duration = 3.0 * est->settling_time;
  opts.record_interval = est->cycle_time / 200.0;
  const auto run = core::simulate_fluid(
      core::FluidModel(p, core::ModelLevel::Linearized), opts);
  const auto m = measure_transient(run.trajectory, p.q0, 0.05);
  ASSERT_TRUE(m.settled);
  EXPECT_NEAR(m.settling_time, est->settling_time, 0.35 * est->settling_time);
  ASSERT_TRUE(m.oscillation_period);
  EXPECT_NEAR(*m.oscillation_period, est->cycle_time,
              0.2 * est->cycle_time);
  ASSERT_TRUE(m.envelope_decay_rate);
  EXPECT_NEAR(*m.envelope_decay_rate, est->envelope_decay_rate,
              0.3 * est->envelope_decay_rate);
}

TEST(EstimateTransientTest, GainsShiftSettlingAsPredicted) {
  core::BcnParams slow = core::BcnParams::standard_draft();
  core::BcnParams fast = slow;
  fast.gd *= 8.0;  // stronger decrease damps faster
  const auto e_slow = estimate_transient(slow);
  const auto e_fast = estimate_transient(fast);
  ASSERT_TRUE(e_slow);
  ASSERT_TRUE(e_fast);
  EXPECT_LT(e_fast->settling_time, e_slow->settling_time);
}

TEST(EstimateTransientTest, OverdampedReturnsNullopt) {
  // Case 4: no second cycle exists.
  core::BcnParams p;
  p.capacity = 1e6;
  p.q0 = 1e3;
  p.buffer = 2e4;
  p.qsc = 1.5e4;
  p.w = 50.0;
  p.pm = 0.5;
  p.ru = 8e3;
  p.gi = 4.0 * p.spiral_threshold() / (p.ru * p.num_sources);
  p.gd = 4.0 * p.spiral_threshold() / p.capacity;
  EXPECT_FALSE(estimate_transient(p));
}

}  // namespace
}  // namespace bcn::analysis
