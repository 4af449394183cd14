#include "core/simulate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analytic_tracer.h"
#include "core/stability.h"
#include "digest.h"
#include "test_params.h"

namespace bcn::core {
namespace {

using namespace testing;

TEST(SimulateTest, LinearizedNumericMatchesAnalyticTracer) {
  const BcnParams p = case1_params();
  const FluidModel model(p, ModelLevel::Linearized);
  FluidRunOptions opts;
  opts.duration = 2e-3;
  opts.tol = {1e-10, 1e-10};
  const FluidRun run = simulate_fluid(model, opts);
  ASSERT_TRUE(run.completed);

  const auto trace = AnalyticTracer(p).trace();
  // Global transient extrema agree between the closed-form stitching and
  // event-localized numeric integration.
  EXPECT_NEAR(run.max_x, trace.max_x, 2e-4 * trace.max_x);
  EXPECT_NEAR(run.post_switch_min_x, trace.min_x,
              2e-4 * std::abs(trace.min_x));
  // Switch times agree with the analytic round durations.
  ASSERT_GE(run.switches.size(), 2u);
  ASSERT_TRUE(trace.rounds[0].duration);
  EXPECT_NEAR(run.switches[0].t, *trace.rounds[0].duration,
              1e-5 * *trace.rounds[0].duration);
}

TEST(SimulateTest, SwitchPointsLieOnSwitchingLine) {
  const BcnParams p = case1_params();
  const FluidModel model(p, ModelLevel::Nonlinear);
  FluidRunOptions opts;
  opts.duration = 1e-3;
  const FluidRun run = simulate_fluid(model, opts);
  ASSERT_GE(run.switches.size(), 2u);
  for (const auto& sw : run.switches) {
    const double sigma = model.sigma(sw.z);
    const double scale = std::abs(sw.z.x) + p.k() * std::abs(sw.z.y) + 1.0;
    EXPECT_NEAR(sigma / scale, 0.0, 1e-5) << "t=" << sw.t;
  }
}

TEST(SimulateTest, ConvergenceStopFires) {
  // Case 4 converges fast and monotonically.
  const BcnParams p = case4_params();
  const FluidModel model(p, ModelLevel::Linearized);
  FluidRunOptions opts;
  opts.duration = 10.0;
  opts.convergence_tol = 1e-6;
  const FluidRun run = simulate_fluid(model, opts);
  EXPECT_TRUE(run.converged);
  EXPECT_LT(run.trajectory.back().t, 10.0);
  const Vec2 zf = run.trajectory.back().z;
  EXPECT_LT(std::abs(zf.x) / p.q0 + std::abs(zf.y) / p.capacity, 1e-5);
}

TEST(SimulateTest, NonlinearOvershootSmallerThanLinearized) {
  // The (y + C) rate factor accelerates the decrease when rates are high,
  // so the nonlinear overshoot is below the linearized prediction for the
  // standard draft (a large-amplitude transient).
  const BcnParams p = case1_params();
  FluidRunOptions opts;
  opts.duration = 1e-3;
  const FluidRun lin =
      simulate_fluid(FluidModel(p, ModelLevel::Linearized), opts);
  const FluidRun non =
      simulate_fluid(FluidModel(p, ModelLevel::Nonlinear), opts);
  EXPECT_LT(non.max_x, lin.max_x);
  EXPECT_GT(non.max_x, 0.0);
}

TEST(SimulateTest, ClippedModelRespectsBufferWalls) {
  // Standard draft overshoots far beyond the buffer: the clipped model
  // must pin the queue inside [0, B].
  const BcnParams p = case1_params();
  const FluidModel model(p, ModelLevel::Clipped);
  FluidRunOptions opts;
  opts.duration = 2e-3;
  const FluidRun run = simulate_fluid(model, opts);
  ASSERT_TRUE(run.completed);
  const double tol = 1e-6 * p.buffer;
  EXPECT_LE(run.max_x, model.x_max() + tol);
  EXPECT_GE(run.min_x, model.x_min() - tol);
  // It must actually hit the full wall for these parameters.
  EXPECT_GT(run.max_x, model.x_max() - 0.01 * p.buffer);
}

TEST(SimulateTest, ClippedStartsInWarmupWallMode) {
  BcnParams p = case1_params();
  p.init_rate = 1e6;  // far below C/N: physical start deep on the empty wall
  const FluidModel model(p, ModelLevel::Clipped);
  FluidRunOptions opts;
  opts.duration = 5e-5;
  opts.z0 = model.physical_initial_point();
  const FluidRun run = simulate_fluid(model, opts);
  ASSERT_TRUE(run.completed);
  // During warm-up the queue stays empty while the rate climbs: x pinned.
  const auto& first = run.trajectory[1];
  EXPECT_NEAR(first.z.x, -p.q0, 1e-3 * p.q0);
  // y must have increased from the initial value.
  EXPECT_GT(run.trajectory.back().z.y,
            model.physical_initial_point().y);
}

TEST(SimulateTest, RecordIntervalControlsSampling) {
  const BcnParams p = case1_params();
  const FluidModel model(p, ModelLevel::Nonlinear);
  FluidRunOptions opts;
  opts.duration = 1e-4;
  opts.record_interval = 1e-6;
  const FluidRun run = simulate_fluid(model, opts);
  ASSERT_GE(run.trajectory.size(), 90u);
  EXPECT_NEAR(run.trajectory[1].t - run.trajectory[0].t, 1e-6, 1e-12);
}

TEST(SimulateTest, CustomInitialPoint) {
  const BcnParams p = case1_params();
  const FluidModel model(p, ModelLevel::Nonlinear);
  FluidRunOptions opts;
  opts.duration = 1e-5;
  opts.z0 = Vec2{0.0, 1e9};
  const FluidRun run = simulate_fluid(model, opts);
  EXPECT_EQ(run.trajectory.front().z, (Vec2{0.0, 1e9}));
}

// Every sample, switch and statistic of simulate_fluid at each level, bit
// for bit.  gd = 0.01 is deliberately not a power of two: with the
// draft's dyadic 1/128 a re-associated b C product rounds alike and the
// trajectories would not notice.
TEST(SimulateTest, TrajectoriesMatchPinnedDigest) {
  BcnParams p = case1_params();
  p.gd = 0.01;
  bcn::testing::Digest digest;
  std::size_t samples = 0;
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear,
                           ModelLevel::Clipped}) {
    const FluidRun run = simulate_fluid(FluidModel(p, level));
    for (const auto& s : run.trajectory.samples()) {
      digest.add(s.t).add(s.z.x).add(s.z.y);
    }
    for (const auto& sw : run.switches) {
      digest.add(sw.t)
          .add(sw.z.x)
          .add(sw.z.y)
          .add(sw.guard_index)
          .add(sw.from_mode)
          .add(sw.to_mode)
          .add(sw.bisection_iterations);
    }
    digest.add(run.steps_accepted)
        .add(run.steps_rejected)
        .add(run.min_step)
        .add(run.event_bisections)
        .add(run.max_x)
        .add(run.min_x)
        .add(run.max_y)
        .add(run.min_y)
        .add(run.post_switch_max_x)
        .add(run.post_switch_min_x)
        .add(run.completed)
        .add(run.converged);
    samples += run.trajectory.size();
  }
  EXPECT_EQ(samples, 49007u);
  EXPECT_EQ(digest.value(), 0x1b9d7818194337dbull);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_sample(const ode::Sample& a, const ode::Sample& b) {
  return same_bits(a.t, b.t) && same_bits(a.z.x, b.z.x) &&
         same_bits(a.z.y, b.z.y);
}

bool same_switch(const ode::ModeSwitch& a, const ode::ModeSwitch& b) {
  return same_bits(a.t, b.t) && same_bits(a.z.x, b.z.x) &&
         same_bits(a.z.y, b.z.y) && a.guard_index == b.guard_index &&
         a.from_mode == b.from_mode && a.to_mode == b.to_mode &&
         a.bisection_iterations == b.bisection_iterations;
}

// simulate_fluid runs BCN's Linearized and Nonlinear facets on the
// concrete BcnLaw; the facet's std::function system through
// ode::integrate_hybrid, with the same options, must give the same run
// bit for bit.
TEST(SimulateTest, TypedLawMatchesErasedSystem) {
  const std::vector<BcnParams> plants = typed_core_plants();
  std::size_t switches = 0;
  int converged = 0;
  for (std::size_t i = 0; i < plants.size(); ++i) {
    const BcnParams& p = plants[i];
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
      const FluidModel model(p, level);
      FluidRunOptions opts;
      opts.duration = verdict_horizon(model);
      opts.convergence_tol = 1e-8;
      const FluidRun typed = simulate_fluid(model, opts);

      ode::HybridOptions hopts;
      hopts.tol = opts.tol;
      hopts.max_steps = opts.max_steps;
      hopts.stop_when = [&](double /*t*/, Vec2 z) {
        return std::abs(z.x) / p.q0 + std::abs(z.y) / p.capacity <
               opts.convergence_tol;
      };
      const ode::HybridResult erased =
          ode::integrate_hybrid(model.hybrid_system(), 0.0,
                                model.analysis_initial_point(),
                                opts.duration, hopts);

      const auto& ts = typed.trajectory.samples();
      const auto& es = erased.trajectory.samples();
      const std::string where = "plant " + std::to_string(i) + " level " +
                                std::to_string(static_cast<int>(level));
      ASSERT_EQ(ts.size(), es.size()) << where;
      ASSERT_EQ(typed.switches.size(), erased.switches.size()) << where;
      EXPECT_TRUE(std::equal(ts.begin(), ts.end(), es.begin(), same_sample))
          << where;
      EXPECT_TRUE(std::equal(typed.switches.begin(), typed.switches.end(),
                             erased.switches.begin(), same_switch))
          << where;
      EXPECT_EQ(typed.steps_accepted, erased.steps_accepted) << where;
      EXPECT_EQ(typed.steps_rejected, erased.steps_rejected) << where;
      EXPECT_TRUE(same_bits(typed.min_step, erased.min_accepted_step))
          << where;
      EXPECT_EQ(typed.event_bisections, erased.event_bisection_iterations)
          << where;
      EXPECT_EQ(typed.completed, erased.completed) << where;
      EXPECT_EQ(typed.converged, erased.stopped_early) << where;
      switches += typed.switches.size();
      converged += typed.converged ? 1 : 0;
    }
  }
  // The draws exercise switching, and both converging and horizon-bound
  // runs.
  EXPECT_GT(switches, plants.size());
  EXPECT_GT(converged, 0);
  EXPECT_LT(converged, static_cast<int>(plants.size()));
}

}  // namespace
}  // namespace bcn::core
