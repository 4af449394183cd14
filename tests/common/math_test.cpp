#include "common/math.h"

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

namespace bcn {
namespace {

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{-3.0, 0.5};
  EXPECT_EQ((a + b), (Vec2{-2.0, 2.5}));
  EXPECT_EQ((a - b), (Vec2{4.0, 1.5}));
  EXPECT_EQ((2.0 * a), (Vec2{2.0, 4.0}));
  EXPECT_EQ((a * 2.0), (Vec2{2.0, 4.0}));
}

TEST(Vec2Test, Norm) {
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{0.0, 0.0}).norm(), 0.0);
}

TEST(SignTest, AllBranches) {
  EXPECT_EQ(sign(5.0), 1);
  EXPECT_EQ(sign(-0.1), -1);
  EXPECT_EQ(sign(0.0), 0);
}

TEST(RelativeErrorTest, Basic) {
  EXPECT_NEAR(relative_error(1.1, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  // Floor prevents division blow-up near zero.
  EXPECT_LE(relative_error(1e-40, 0.0, 1e-30), 1e-9);
}

TEST(SolveMonicQuadraticTest, DistinctRealRoots) {
  // x^2 + 3x + 2 = (x+1)(x+2)
  const auto roots = solve_monic_quadratic(3.0, 2.0);
  EXPECT_NEAR(roots[0].real(), -2.0, 1e-12);
  EXPECT_NEAR(roots[1].real(), -1.0, 1e-12);
  EXPECT_EQ(roots[0].imag(), 0.0);
  EXPECT_EQ(roots[1].imag(), 0.0);
}

TEST(SolveMonicQuadraticTest, ComplexRoots) {
  // x^2 + 2x + 5: roots -1 +- 2i
  const auto roots = solve_monic_quadratic(2.0, 5.0);
  EXPECT_NEAR(roots[0].real(), -1.0, 1e-12);
  EXPECT_NEAR(roots[0].imag(), -2.0, 1e-12);
  EXPECT_NEAR(roots[1].imag(), 2.0, 1e-12);
}

TEST(SolveMonicQuadraticTest, RepeatedRoot) {
  // x^2 + 2x + 1 = (x+1)^2
  const auto roots = solve_monic_quadratic(2.0, 1.0);
  EXPECT_NEAR(roots[0].real(), -1.0, 1e-12);
  EXPECT_NEAR(roots[1].real(), -1.0, 1e-12);
}

TEST(SolveMonicQuadraticTest, NumericallyStableForSmallProduct) {
  // x^2 + 1e8 x + 1: naive formula loses the small root to cancellation.
  const auto roots = solve_monic_quadratic(1e8, 1.0);
  EXPECT_NEAR(roots[0].real(), -1e8, 1.0);
  EXPECT_NEAR(roots[1].real(), -1e-8, 1e-16);
}

TEST(SolveMonicQuadraticTest, RootsSatisfyVieta) {
  for (double m : {-5.0, -0.5, 0.1, 2.0, 100.0}) {
    for (double n : {0.25, 1.0, 9.0, 1e6}) {
      const auto r = solve_monic_quadratic(m, n);
      const auto sum = r[0] + r[1];
      const auto prod = r[0] * r[1];
      EXPECT_NEAR(sum.real(), -m, 1e-9 * std::abs(m) + 1e-12);
      EXPECT_NEAR(prod.real(), n, 1e-9 * n + 1e-12);
    }
  }
}

TEST(BisectTest, FindsRoot) {
  const auto root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, std::numbers::sqrt2, 1e-10);
}

TEST(BisectTest, ExactEndpointRoot) {
  const auto root = bisect([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(*root, 0.0);
}

TEST(BisectTest, RejectsInvalidBracket) {
  EXPECT_FALSE(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0));
  EXPECT_FALSE(bisect([](double x) { return x; }, 1.0, -1.0));
}

TEST(BisectTest, ToleranceControlsPrecision) {
  const auto coarse =
      bisect([](double x) { return x - 0.3; }, 0.0, 1.0, 1e-2);
  ASSERT_TRUE(coarse.has_value());
  EXPECT_NEAR(*coarse, 0.3, 1e-2);
}

TEST(LerpTest, Basic) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 1.0), 4.0);
}

}  // namespace
}  // namespace bcn
