// Ablation (DESIGN.md section 5): event-detected switching vs naive
// fixed-step integration across the sigma = 0 line.  The naive scheme
// smears each switching instant over a step, which corrupts transient
// extrema and the measured contraction; the hybrid driver localizes
// crossings to high precision.
#include <cmath>

#include <gtest/gtest.h>

#include "core/analytic_tracer.h"
#include "core/simulate.h"
#include "ode/integrate.h"

namespace bcn::core {
namespace {

// Naive reference: one discontinuous RHS fed to a fixed-step RK4.
ode::Trajectory naive_fixed_step(const BcnParams& p, double duration,
                                 double step) {
  const BcnLaw law = FluidModel(p, ModelLevel::Linearized).law();
  const ode::Rhs switched = [law](double t, Vec2 z) {
    return law.rhs(law.mode_of(t, z), t, z);
  };
  ode::FixedStepOptions opts;
  opts.stepper = ode::Stepper::Rk4;
  opts.step = step;
  return ode::integrate_fixed(switched, 0.0, {-p.q0, 0.0}, duration, opts);
}

TEST(EventDetectionAblation, HybridMatchesClosedFormTighterThanNaive) {
  const BcnParams p = BcnParams::standard_draft();
  const double exact_max = AnalyticTracer(p).extrema().max_x;

  FluidRunOptions opts;
  opts.duration = 5e-4;
  const FluidRun hybrid =
      simulate_fluid(FluidModel(p, ModelLevel::Linearized), opts);
  const double hybrid_err = std::abs(hybrid.max_x - exact_max) / exact_max;

  // Naive fixed step sized to take about as many steps as the hybrid run.
  const double step = 5e-4 / static_cast<double>(hybrid.trajectory.size());
  const auto naive = naive_fixed_step(p, 5e-4, step);
  const double naive_err =
      std::abs(naive.max_component(0) - exact_max) / exact_max;

  EXPECT_LT(hybrid_err, 1e-3);
  EXPECT_LT(hybrid_err, naive_err);
}

TEST(EventDetectionAblation, NaiveConvergesOnlyAsStepShrinks) {
  const BcnParams p = BcnParams::standard_draft();
  const double exact_max = AnalyticTracer(p).extrema().max_x;
  const double coarse =
      std::abs(naive_fixed_step(p, 5e-4, 2e-6).max_component(0) - exact_max);
  const double fine =
      std::abs(naive_fixed_step(p, 5e-4, 2e-7).max_component(0) - exact_max);
  EXPECT_LT(fine, coarse);
}

TEST(EventDetectionAblation, SwitchLocalizationResidualIsTiny) {
  const BcnParams p = BcnParams::standard_draft();
  const FluidModel model(p, ModelLevel::Linearized);
  FluidRunOptions opts;
  opts.duration = 5e-4;
  const FluidRun run = simulate_fluid(model, opts);
  ASSERT_GE(run.switches.size(), 3u);
  for (const auto& sw : run.switches) {
    const double denom =
        std::abs(sw.z.x) + p.k() * std::abs(sw.z.y) + p.q0 * 1e-6;
    // The recorded point includes the deliberate escape nudge off the
    // surface, so the residual is small but non-zero.
    EXPECT_LT(std::abs(model.sigma(sw.z)) / denom, 1e-4);
  }
}

}  // namespace
}  // namespace bcn::core
