#include "analysis/crossval.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace bcn::analysis {
namespace {

// Damped oscillation: x(t) = A e^{-d t} cos(w t), settling to `offset`.
ode::Trajectory damped(double amplitude, double damping, double omega,
                       double offset, double t_end = 10.0,
                       double dt = 0.002) {
  ode::Trajectory t;
  for (double s = 0.0; s <= t_end; s += dt) {
    t.push_back(s, {offset + amplitude * std::exp(-damping * s) *
                                 std::cos(omega * s),
                    0.0});
  }
  return t;
}

TEST(FeaturesTest, PeakTroughPeriodAndFinal) {
  const auto f = extract_features(damped(1.0, 0.2, 6.283, 0.0), 0.05);
  EXPECT_NEAR(f.peak_value, 1.0, 0.01);
  EXPECT_NEAR(f.peak_time, 0.0, 0.01);
  // First trough at half a period, value ~ -e^{-0.1}.
  EXPECT_LT(f.trough_value, -0.5);
  ASSERT_TRUE(f.period);
  EXPECT_NEAR(*f.period, 1.0, 0.05);
  EXPECT_NEAR(f.final_value, 0.0, 0.1);
}

TEST(FeaturesTest, MonotoneHasNoPeriod) {
  ode::Trajectory t;
  for (double s = 0.0; s <= 5.0; s += 0.01) {
    t.push_back(s, {1.0 - std::exp(-s), 0.0});
  }
  const auto f = extract_features(t, 0.01);
  EXPECT_FALSE(f.period);
  EXPECT_NEAR(f.final_value, 1.0, 0.02);
}

TEST(FeaturesTest, ProminenceFiltersNoise) {
  // Big oscillation with small high-frequency ripple on top.
  ode::Trajectory t;
  for (double s = 0.0; s <= 10.0; s += 0.002) {
    t.push_back(s, {std::cos(6.283 * s) + 0.01 * std::cos(200.0 * s), 0.0});
  }
  const auto coarse = extract_features(t, 0.2);
  ASSERT_TRUE(coarse.period);
  EXPECT_NEAR(*coarse.period, 1.0, 0.05);  // ripple ignored
}

TEST(FeaturesTest, EmptyTrajectory) {
  const auto f = extract_features({}, 0.1);
  EXPECT_DOUBLE_EQ(f.peak_value, 0.0);
  EXPECT_FALSE(f.period);
}

TEST(FeaturesTest, BatchMatchesSerialAtAnyThreadCount) {
  std::vector<ode::Trajectory> trajectories;
  for (int i = 0; i < 9; ++i) {
    trajectories.push_back(
        damped(1.0 + i, 0.1 * (i + 1), 3.0 + i, 0.1 * i, /*t_end=*/4.0));
  }
  trajectories.emplace_back();  // an empty one keeps its slot too
  std::vector<const ode::Trajectory*> pointers;
  for (const auto& t : trajectories) pointers.push_back(&t);
  for (const int threads : {1, 2, 4, 0}) {
    const auto batch = extract_features_batch(pointers, 0.05, threads);
    ASSERT_EQ(batch.size(), pointers.size()) << threads;
    for (std::size_t i = 0; i < pointers.size(); ++i) {
      const auto serial = extract_features(*pointers[i], 0.05);
      EXPECT_EQ(batch[i].peak_value, serial.peak_value) << i;
      EXPECT_EQ(batch[i].peak_time, serial.peak_time) << i;
      EXPECT_EQ(batch[i].trough_value, serial.trough_value) << i;
      EXPECT_EQ(batch[i].trough_time, serial.trough_time) << i;
      EXPECT_EQ(batch[i].period, serial.period) << i;
      EXPECT_EQ(batch[i].final_value, serial.final_value) << i;
    }
  }
}

TEST(CompareShapesTest, SimilarOscillationsScoreLowError) {
  const auto a = damped(1.0, 0.2, 6.283, 0.5);
  const auto b = damped(1.05, 0.25, 6.0, 0.52);
  const auto cmp = compare_shapes(a, b, 0.05);
  EXPECT_TRUE(cmp.same_character);
  EXPECT_LT(cmp.peak_rel_error, 0.1);
  EXPECT_LT(cmp.period_rel_error, 0.1);
  EXPECT_LT(cmp.final_rel_error, 0.1);
}

TEST(CompareShapesTest, OscillationVsMonotoneDiffer) {
  const auto a = damped(1.0, 0.2, 6.283, 0.0);
  ode::Trajectory mono;
  for (double s = 0.0; s <= 10.0; s += 0.01) {
    mono.push_back(s, {1.0 - std::exp(-s), 0.0});
  }
  const auto cmp = compare_shapes(a, mono, 0.05);
  EXPECT_FALSE(cmp.same_character);
}

}  // namespace
}  // namespace bcn::analysis
