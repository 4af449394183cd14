#include "ode/vector_rk4.h"

#include <cmath>

#include <gtest/gtest.h>

namespace bcn::ode {
namespace {

// Coupled 3-D linear system with known solution: independent decays.
const VectorRhs kDecay3 = [](double, const std::vector<double>& y,
                             std::vector<double>& dy) {
  dy[0] = -y[0];
  dy[1] = -2.0 * y[1];
  dy[2] = -0.5 * y[2];
};

// Advances `y` by `steps` steps of size h from t = 0.
void step_from_zero(const VectorRhs& f, int steps, double h,
                    std::vector<double>& y) {
  VectorRk4Scratch scratch;
  for (int i = 0; i < steps; ++i) vector_rk4_step(f, i * h, h, y, scratch);
}

TEST(VectorRk4Test, MatchesExactSolution) {
  std::vector<double> y{1.0, 1.0, 2.0};
  step_from_zero(kDecay3, 100, 0.01, y);
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-8);
  EXPECT_NEAR(y[1], std::exp(-2.0), 1e-8);
  EXPECT_NEAR(y[2], 2.0 * std::exp(-0.5), 1e-8);
}

TEST(VectorRk4Test, FourthOrderConvergence) {
  auto err_at = [](int steps) {
    std::vector<double> y{1.0, 1.0, 2.0};
    step_from_zero(kDecay3, steps, 1.0 / steps, y);
    return std::abs(y[1] - std::exp(-2.0));
  };
  const double coarse = err_at(25);
  const double fine = err_at(50);
  EXPECT_NEAR(coarse / fine, 16.0, 5.0);
}

TEST(VectorRk4Test, TimeDependentRhs) {
  // dy/dt = [t]; y(1) = 0.5 from y(0) = 0.
  const VectorRhs f = [](double t, const std::vector<double>&,
                         std::vector<double>& dy) { dy[0] = t; };
  std::vector<double> y{0.0};
  step_from_zero(f, 10, 0.1, y);
  EXPECT_NEAR(y[0], 0.5, 1e-12);
}

TEST(VectorRk4Test, HighDimensionalState) {
  // 100 coupled oscillator pairs: energy of each pair conserved by RK4 to
  // high accuracy over one period.
  const std::size_t pairs = 100;
  const VectorRhs f = [&](double, const std::vector<double>& y,
                          std::vector<double>& dy) {
    for (std::size_t i = 0; i < pairs; ++i) {
      dy[2 * i] = y[2 * i + 1];
      dy[2 * i + 1] = -y[2 * i];
    }
  };
  std::vector<double> y(2 * pairs);
  for (std::size_t i = 0; i < pairs; ++i) y[2 * i] = 1.0;
  step_from_zero(f, 628, 2.0 * M_PI / 628, y);
  for (std::size_t i = 0; i < pairs; ++i) {
    EXPECT_NEAR(y[2 * i], 1.0, 1e-7);
    EXPECT_NEAR(y[2 * i + 1], 0.0, 1e-7);
  }
}

}  // namespace
}  // namespace bcn::ode
