#include "analysis/sweep.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

namespace bcn::analysis {
namespace {

TEST(SweepTest, LinspaceEndpointsAndSpacing) {
  const auto v = linspace(1.0, 3.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
  EXPECT_DOUBLE_EQ(v[1] - v[0], 0.5);
}

TEST(SweepTest, LinspaceSingle) {
  const auto v = linspace(2.0, 9.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
}

TEST(SweepTest, LogspaceGeometric) {
  const auto v = logspace(1.0, 100.0, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[2], 100.0, 1e-9);
}

TEST(SweepTest, LogspaceDescendingWorks) {
  const auto v = logspace(100.0, 1.0, 3);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_GT(v[0], v[2]);
}

TEST(SweepTest, NonPositiveCountIsEmpty) {
  EXPECT_TRUE(linspace(1.0, 2.0, 0).empty());
  EXPECT_TRUE(linspace(1.0, 2.0, -3).empty());
  EXPECT_TRUE(logspace(1.0, 2.0, 0).empty());
  EXPECT_TRUE(logspace(1.0, 2.0, -1).empty());
}

TEST(SweepTest, LogspaceSingle) {
  const auto v = logspace(0.5, 64.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
}

TEST(SweepTest, DegenerateRangeRepeatsEndpoint) {
  const auto lin = linspace(3.25, 3.25, 4);
  ASSERT_EQ(lin.size(), 4u);
  for (const double x : lin) EXPECT_EQ(x, 3.25);
  const auto log = logspace(7.5, 7.5, 3);
  ASSERT_EQ(log.size(), 3u);
  for (const double x : log) EXPECT_EQ(x, 7.5);
}

TEST(SweepTest, EndpointsAreExact) {
  // No accumulated floating-point drift: the last element is exactly hi.
  const auto lin = linspace(0.1, 0.7, 7);
  EXPECT_EQ(lin.front(), 0.1);
  EXPECT_EQ(lin.back(), 0.7);
  const auto log = logspace(1.0 / 512.0, 0.25, 9);
  EXPECT_EQ(log.front(), 1.0 / 512.0);
  EXPECT_EQ(log.back(), 0.25);
}

TEST(LogspaceTest, RejectsNonPositiveBoundsInEveryBuildMode) {
  // Regression: non-positive bounds used to be an assert, so release
  // builds silently produced NaN grids.  The check is now a real error
  // path with identical semantics in debug and release.
  EXPECT_THROW(logspace(0.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(logspace(-1.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(logspace(1.0, 0.0, 5), std::invalid_argument);
  EXPECT_THROW(logspace(1.0, -2.0, 5), std::invalid_argument);
  // NaN bounds fail the positivity test rather than sneaking through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(logspace(nan, 10.0, 5), std::invalid_argument);
  // Positive bounds still work, including descending ones.
  EXPECT_NO_THROW(logspace(10.0, 1.0, 3));
}

}  // namespace
}  // namespace bcn::analysis
