#include "control/second_order.h"

#include <gtest/gtest.h>

namespace bcn::control {
namespace {

TEST(SecondOrderTest, EigenvaluesRealDistinct) {
  const SecondOrderSystem sys(3.0, 2.0);  // roots -1, -2
  const auto eig = sys.eigenvalues();
  EXPECT_NEAR(eig[0].real(), -2.0, 1e-12);
  EXPECT_NEAR(eig[1].real(), -1.0, 1e-12);
  EXPECT_GT(sys.discriminant(), 0.0);
}

TEST(SecondOrderTest, EigenvaluesComplex) {
  const SecondOrderSystem sys(2.0, 5.0);  // -1 +- 2i
  const auto eig = sys.eigenvalues();
  EXPECT_NEAR(eig[0].real(), -1.0, 1e-12);
  EXPECT_NEAR(std::abs(eig[0].imag()), 2.0, 1e-12);
  EXPECT_LT(sys.discriminant(), 0.0);
}

TEST(SecondOrderTest, ClassifyAllTypes) {
  EXPECT_EQ(SecondOrderSystem(2.0, 5.0).classify(),
            EquilibriumType::StableFocus);
  EXPECT_EQ(SecondOrderSystem(-2.0, 5.0).classify(),
            EquilibriumType::UnstableFocus);
  EXPECT_EQ(SecondOrderSystem(0.0, 5.0).classify(), EquilibriumType::Center);
  EXPECT_EQ(SecondOrderSystem(3.0, 2.0).classify(),
            EquilibriumType::StableNode);
  EXPECT_EQ(SecondOrderSystem(-3.0, 2.0).classify(),
            EquilibriumType::UnstableNode);
  EXPECT_EQ(SecondOrderSystem(2.0, 1.0).classify(),
            EquilibriumType::DegenerateStableNode);
  EXPECT_EQ(SecondOrderSystem(-2.0, 1.0).classify(),
            EquilibriumType::DegenerateUnstableNode);
  EXPECT_EQ(SecondOrderSystem(1.0, -2.0).classify(), EquilibriumType::Saddle);
}

TEST(SecondOrderTest, HurwitzStability) {
  EXPECT_TRUE(SecondOrderSystem(2.0, 5.0).is_hurwitz_stable());
  EXPECT_TRUE(SecondOrderSystem(3.0, 2.0).is_hurwitz_stable());
  EXPECT_FALSE(SecondOrderSystem(-2.0, 5.0).is_hurwitz_stable());
  EXPECT_FALSE(SecondOrderSystem(0.0, 5.0).is_hurwitz_stable());
  EXPECT_FALSE(SecondOrderSystem(1.0, -2.0).is_hurwitz_stable());
}

TEST(SecondOrderTest, HurwitzIffBothEigenvaluesHaveNegativeRealParts) {
  // The degree-2 Routh-Hurwitz criterion (m > 0 and n > 0) against the
  // eigenvalues themselves, over every sign of m and n, zero included.
  for (const double m : {-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0, 3.0}) {
    for (const double n : {-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0, 3.0}) {
      const SecondOrderSystem sys(m, n);
      const auto eig = sys.eigenvalues();
      EXPECT_EQ(sys.is_hurwitz_stable(),
                eig[0].real() < 0.0 && eig[1].real() < 0.0)
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(SecondOrderTest, RhsMatchesDefinition) {
  const SecondOrderSystem sys(3.0, 2.0);
  const auto f = sys.rhs();
  const Vec2 d = f(0.0, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(d.x, 2.0);                    // dx/dt = y
  EXPECT_DOUBLE_EQ(d.y, -2.0 * 1.0 - 3.0 * 2.0); // dy/dt = -n x - m y
}

}  // namespace
}  // namespace bcn::control
