#include "ode/trajectory.h"

#include <cmath>

#include <gtest/gtest.h>

namespace bcn::ode {
namespace {

Trajectory sine_trajectory(double t_end, double dt) {
  Trajectory t;
  for (double s = 0.0; s <= t_end + 1e-12; s += dt) {
    t.push_back(s, {std::sin(s), std::cos(s)});
  }
  return t;
}

TEST(TrajectoryTest, BasicAccessors) {
  Trajectory t;
  EXPECT_TRUE(t.empty());
  t.push_back(0.0, {1.0, 2.0});
  t.push_back(1.0, {3.0, 4.0});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.front().z, (Vec2{1.0, 2.0}));
  EXPECT_EQ(t.back().z, (Vec2{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(t.duration(), 1.0);
}

TEST(TrajectoryTest, MinMaxComponents) {
  const auto t = sine_trajectory(6.4, 0.01);
  EXPECT_NEAR(t.max_component(0), 1.0, 1e-3);
  EXPECT_NEAR(t.min_component(0), -1.0, 1e-3);
  EXPECT_NEAR(t.max_component(1), 1.0, 1e-3);
}

TEST(TrajectoryTest, LocalExtremaOfSine) {
  const auto t = sine_trajectory(6.4, 0.01);
  const auto ext = t.local_extrema(0);
  ASSERT_EQ(ext.size(), 2u);
  EXPECT_TRUE(ext[0].is_maximum);
  EXPECT_NEAR(ext[0].t, 1.5707963, 0.02);
  EXPECT_NEAR(ext[0].value, 1.0, 1e-3);
  EXPECT_FALSE(ext[1].is_maximum);
  EXPECT_NEAR(ext[1].t, 4.712389, 0.02);
}

TEST(TrajectoryTest, DecimateKeepsEndpoints) {
  const auto t = sine_trajectory(1.0, 0.01);
  const auto d = t.decimate(10);
  EXPECT_LT(d.size(), t.size() / 5);
  EXPECT_DOUBLE_EQ(d.front().t, t.front().t);
  EXPECT_DOUBLE_EQ(d.back().t, t.back().t);
}

TEST(TrajectoryTest, DecimateStrideOneIsIdentity) {
  const auto t = sine_trajectory(1.0, 0.1);
  EXPECT_EQ(t.decimate(1).size(), t.size());
}

TEST(TrajectoryTest, PlateauReportsSingleExtremum) {
  Trajectory t;
  t.push_back(0.0, {0.0, 0.0});
  t.push_back(1.0, {1.0, 0.0});
  t.push_back(2.0, {1.0, 0.0});
  t.push_back(3.0, {0.0, 0.0});
  const auto ext = t.local_extrema(0);
  ASSERT_EQ(ext.size(), 1u);
  EXPECT_TRUE(ext[0].is_maximum);
}

}  // namespace
}  // namespace bcn::ode
