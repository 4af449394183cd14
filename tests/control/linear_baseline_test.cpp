#include "control/linear_baseline.h"

#include <gtest/gtest.h>

namespace bcn::control {
namespace {

TEST(LinearBaselineTest, StandardDraftIsDeclaredStable) {
  // a = 1.6e9, b = 1/128, k = 2e-8, C = 1e10: both subsystems Hurwitz ->
  // the baseline declares the system stable even though the buffer is far
  // too small (the paper's central criticism).
  const auto report =
      analyze_linear_baseline(1.6e9, 1.0 / 128.0, 2e-8, 1e10);
  EXPECT_TRUE(report.increase.hurwitz_stable);
  EXPECT_TRUE(report.decrease.hurwitz_stable);
  EXPECT_TRUE(report.declared_stable);
  EXPECT_EQ(report.increase.equilibrium, EquilibriumType::StableFocus);
  EXPECT_EQ(report.decrease.equilibrium, EquilibriumType::StableFocus);
}

TEST(LinearBaselineTest, SubsystemCoefficientsMatchEq35) {
  const double a = 1.6e9, b = 1.0 / 128.0, k = 2e-8, cap = 1e10;
  const auto report = analyze_linear_baseline(a, b, k, cap);
  EXPECT_DOUBLE_EQ(report.increase.m, a * k);
  EXPECT_DOUBLE_EQ(report.increase.n, a);
  EXPECT_DOUBLE_EQ(report.decrease.m, k * b * cap);
  EXPECT_DOUBLE_EQ(report.decrease.n, b * cap);
}

TEST(LinearBaselineTest, AlwaysStableForPhysicalParameters) {
  // Proposition 1: any positive (a, b, k, C) yields Hurwitz-stable
  // subsystems, because m = k n and n > 0.
  for (double a : {1e3, 1e6, 1e9, 1e12}) {
    for (double b : {1e-4, 1e-2, 1.0}) {
      for (double k : {1e-9, 1e-6, 1e-3}) {
        const auto r = analyze_linear_baseline(a, b, k, 1e10);
        EXPECT_TRUE(r.declared_stable)
            << "a=" << a << " b=" << b << " k=" << k;
      }
    }
  }
}

TEST(LinearBaselineTest, NodeRegimeClassified) {
  // Large a k^2 pushes the increase subsystem overdamped (node).
  const auto report = analyze_linear_baseline(1e12, 1e-3, 1e-4, 1e10);
  EXPECT_EQ(report.increase.equilibrium, EquilibriumType::StableNode);
}

}  // namespace
}  // namespace bcn::control
