#include "control/closed_form.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ode/integrate.h"

namespace bcn::control {
namespace {

// Parameterized over (m, n, x0, y0) covering all three solution kinds and
// several initial quadrants.
struct Case {
  double m, n, x0, y0;
};

class ClosedFormVsNumeric : public ::testing::TestWithParam<Case> {};

TEST_P(ClosedFormVsNumeric, EvalMatchesAdaptiveIntegration) {
  const auto [m, n, x0, y0] = GetParam();
  const SecondOrderSystem sys(m, n);
  const LinearSolution sol(sys, {x0, y0});

  ode::AdaptiveOptions opts;
  opts.tol = {1e-11, 1e-11};
  const double t_end = 3.0;
  const auto res = ode::integrate_adaptive(sys.rhs(), 0.0, {x0, y0}, t_end, opts);
  ASSERT_TRUE(res.completed);
  const double scale = Vec2{x0, y0}.norm() + 1.0;
  for (std::size_t i = 0; i < res.trajectory.size(); i += 7) {
    const auto& s = res.trajectory[i];
    const Vec2 exact = sol.eval(s.t);
    EXPECT_NEAR(s.z.x, exact.x, 1e-6 * scale) << "t=" << s.t;
    EXPECT_NEAR(s.z.y, exact.y, 1e-5 * scale) << "t=" << s.t;
  }
}

TEST_P(ClosedFormVsNumeric, FirstExtremumLiesOnSolutionWithZeroVelocity) {
  const auto [m, n, x0, y0] = GetParam();
  const SecondOrderSystem sys(m, n);
  const LinearSolution sol(sys, {x0, y0});
  const auto ext = sol.first_x_extremum();
  if (!ext) return;  // kinds without a forward extremum
  EXPECT_GT(ext->t, 0.0);
  const Vec2 at = sol.eval(ext->t);
  EXPECT_NEAR(at.y, 0.0, 1e-8 * (std::abs(x0) + std::abs(y0) + 1.0));
  EXPECT_NEAR(at.x, ext->value, 1e-9 * (std::abs(ext->value) + 1.0));
  EXPECT_EQ(ext->is_maximum, ext->value > 0.0);
}

TEST_P(ClosedFormVsNumeric, FirstLineCrossingIsOnTheLine) {
  const auto [m, n, x0, y0] = GetParam();
  const LinearFlow flow({m, n});
  const LinearSolution sol(flow, {x0, y0});
  const double p = 1.0, q = 0.05;
  const auto t_cross = sol.first_line_crossing(flow.line(p, q));
  if (!t_cross) return;
  EXPECT_GT(*t_cross, 0.0);
  const Vec2 at = sol.eval(*t_cross);
  const double scale = at.norm() + std::abs(x0) + std::abs(y0) + 1.0;
  EXPECT_NEAR(p * at.x + q * at.y, 0.0, 1e-7 * scale);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ClosedFormVsNumeric,
    ::testing::Values(
        // Spiral (m^2 < 4n)
        Case{1.0, 4.0, 1.0, 0.0}, Case{1.0, 4.0, -2.0, 1.0},
        Case{0.5, 10.0, 0.0, 3.0}, Case{2.0, 9.0, -1.0, -1.0},
        // Node (m^2 > 4n)
        Case{5.0, 4.0, 1.0, 0.0}, Case{5.0, 4.0, 0.0, 2.0},
        Case{10.0, 2.0, -1.0, 5.0}, Case{3.0, 2.0, 2.0, -1.0},
        // Degenerate (m^2 = 4n)
        Case{2.0, 1.0, 1.0, 0.0}, Case{4.0, 4.0, 0.0, -2.0},
        Case{6.0, 9.0, -1.0, 2.0}));

TEST(LinearSolutionTest, KindsDetected) {
  EXPECT_EQ(LinearSolution({1.0, 4.0}, {1, 0}).kind(), SolutionKind::Spiral);
  EXPECT_EQ(LinearSolution({5.0, 4.0}, {1, 0}).kind(), SolutionKind::Node);
  EXPECT_EQ(LinearSolution({2.0, 1.0}, {1, 0}).kind(),
            SolutionKind::Degenerate);
  EXPECT_FALSE(to_string(SolutionKind::Spiral).empty());
}

TEST(LinearSolutionTest, InitialConditionReproduced) {
  for (const Case& c : {Case{1.0, 4.0, -3.0, 2.0}, Case{5.0, 4.0, 1.5, -2.5},
                        Case{2.0, 1.0, 0.5, 0.25}}) {
    const LinearSolution sol({c.m, c.n}, {c.x0, c.y0});
    const Vec2 at0 = sol.eval(0.0);
    EXPECT_NEAR(at0.x, c.x0, 1e-12);
    EXPECT_NEAR(at0.y, c.y0, 1e-12);
  }
}

TEST(LinearSolutionTest, SpiralHasInfinitelyManyExtrema) {
  const LinearSolution sol({1.0, 100.0}, {1.0, 0.0});
  const auto e1 = sol.first_x_extremum(0.0);
  ASSERT_TRUE(e1);
  const auto e2 = sol.first_x_extremum(e1->t);
  ASSERT_TRUE(e2);
  EXPECT_GT(e2->t, e1->t);
  // Successive extrema alternate sign and shrink (stable focus).
  EXPECT_LT(e2->value * e1->value, 0.0);
  EXPECT_LT(std::abs(e2->value), std::abs(e1->value));
}

TEST(LinearSolutionTest, NodeHasAtMostOneExtremum) {
  const LinearSolution sol({5.0, 4.0}, {0.0, 2.0});
  const auto e1 = sol.first_x_extremum(0.0);
  ASSERT_TRUE(e1);
  EXPECT_FALSE(sol.first_x_extremum(e1->t));
}

TEST(LinearSolutionTest, ZeroSolutionHasNoEvents) {
  const LinearFlow flow({1.0, 4.0});
  const LinearSolution sol(flow, {0.0, 0.0});
  EXPECT_FALSE(sol.first_x_extremum());
  EXPECT_FALSE(sol.first_line_crossing(flow.line(1.0, 0.5)));
}

TEST(LinearSolutionTest, EigenlineStartStaysOnEigenline) {
  // Node with lambda = -1, -4 (m=5, n=4): starting on y = -x stays there.
  const LinearFlow flow({5.0, 4.0});
  const LinearSolution sol(flow, {1.0, -1.0});
  for (double t : {0.1, 0.5, 2.0}) {
    const Vec2 z = sol.eval(t);
    EXPECT_NEAR(z.y, -z.x, 1e-12);
  }
  // The eigenline is itself the line x + y = 0: no transversal crossing.
  EXPECT_FALSE(sol.first_line_crossing(flow.line(1.0, 1.0)));
}

// --- Paper formulas ---------------------------------------------------------

TEST(PaperFormulasTest, SpiralExtremumMatchesPrimaryPath) {
  // Decrease-region style start: on the switching line with x0 y0 < 0.
  const double m = 1.0, n = 16.0;
  const Vec2 z0{-2.0, 3.0};
  const LinearSolution sol({m, n}, z0);
  ASSERT_EQ(sol.kind(), SolutionKind::Spiral);
  const auto primary = sol.first_x_extremum();
  ASSERT_TRUE(primary);
  const double paper_t =
      paper_spiral_extremum_time(sol.alpha(), sol.beta(), z0);
  const double paper_v =
      paper_spiral_extremum_value(sol.alpha(), sol.beta(), z0);
  EXPECT_NEAR(paper_t, primary->t, 1e-10);
  EXPECT_NEAR(paper_v, primary->value, 1e-10 * std::abs(primary->value));
}

TEST(PaperFormulasTest, SpiralExtremumSameQuadrantBranch) {
  const double m = 0.8, n = 25.0;
  const Vec2 z0{1.5, 2.0};  // x0 y0 > 0: the no-pi branch of eq. (18)
  const LinearSolution sol({m, n}, z0);
  const auto primary = sol.first_x_extremum();
  ASSERT_TRUE(primary);
  EXPECT_NEAR(paper_spiral_extremum_time(sol.alpha(), sol.beta(), z0),
              primary->t, 1e-10);
  EXPECT_NEAR(paper_spiral_extremum_value(sol.alpha(), sol.beta(), z0),
              primary->value, 1e-10 * std::abs(primary->value));
}

TEST(PaperFormulasTest, NodeExtremumEq28MagnitudeAndSign) {
  // lambda = -1, -2 (m=3, n=2), z0=(0,1): hand-computed extremum +1/4 at
  // t* = ln 2.  Eq. (28) as printed gives -1/4; we return sign(y0)|.|.
  const auto v = paper_node_extremum_value(-2.0, -1.0, {0.0, 1.0});
  ASSERT_TRUE(v);
  EXPECT_NEAR(*v, 0.25, 1e-12);
  const LinearSolution sol({3.0, 2.0}, {0.0, 1.0});
  const auto primary = sol.first_x_extremum();
  ASSERT_TRUE(primary);
  EXPECT_NEAR(*v, primary->value, 1e-12);
}

TEST(PaperFormulasTest, NodeExtremumAgreesAcrossInitialConditions) {
  for (const Vec2 z0 : {Vec2{0.5, 2.0}, Vec2{-0.5, 3.0}, Vec2{1.0, 0.5}}) {
    const LinearSolution sol({5.0, 4.0}, z0);  // lambda = -1, -4
    const auto primary = sol.first_x_extremum();
    const auto paper = paper_node_extremum_value(-4.0, -1.0, z0);
    if (!primary || !paper) continue;
    EXPECT_NEAR(*paper, primary->value, 1e-9 * std::abs(primary->value))
        << "z0=(" << z0.x << "," << z0.y << ")";
  }
}

TEST(PaperFormulasTest, DegenerateExtremumEq34Corrected) {
  // lambda=-1 (m=2, n=1), z0=(0,1): extremum x = 1/e at t = 1.  The
  // paper's printed exponent gives e instead; we implement the corrected
  // form and check against the primary path.
  const auto v = paper_degenerate_extremum_value(-1.0, {0.0, 1.0});
  ASSERT_TRUE(v);
  EXPECT_NEAR(*v, std::exp(-1.0), 1e-12);
  const LinearSolution sol({2.0, 1.0}, {0.0, 1.0});
  const auto primary = sol.first_x_extremum();
  ASSERT_TRUE(primary);
  EXPECT_NEAR(*v, primary->value, 1e-12);
}

TEST(PaperFormulasTest, DegenerateExtremumRejectsBackwardTime) {
  // Start past the extremum (t* = 1 - A3/A4 = -1 < 0) -> nullopt.
  EXPECT_FALSE(paper_degenerate_extremum_value(-1.0, {2.0, -1.0}));
}

}  // namespace
}  // namespace bcn::control
