#include "core/simulate.h"

#include <cmath>

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

// Folds every sample, switch and statistic of one run into `digest`.
void add_run(bcn::testing::Digest& digest, const FluidRun& run) {
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
    add_run(digest, run);
    samples += run.trajectory.size();
  }
  EXPECT_EQ(samples, 49007u);
  EXPECT_EQ(digest.value(), 0x378f2ecd6a3b97c2ull);
}

// The same pin for the qcn and rcp facets at every level.  QCN's default
// effective gain max_decrease/fb_scale is 1/128, dyadic, so both
// mechanisms run at gains that are not powers of two.  The second
// configuration drives both into the full wall at Clipped.
TEST(SimulateTest, QcnRcpTrajectoriesMatchPinnedDigest) {
  MechanismConfig calm;
  calm.qcn.active_increase = 3.7e6;
  calm.qcn.max_decrease = 0.37;
  calm.rcp.alpha = 0.45;
  calm.rcp.beta = 0.3;
  MechanismConfig hot = calm;
  hot.qcn.active_increase = 3.7e7;
  hot.rcp.alpha = 0.13;
  hot.rcp.beta = 0.03;
  hot.plant.buffer = 3e6;
  hot.plant.qsc = 2.8e6;
  bcn::testing::Digest digest;
  std::size_t samples = 0;
  std::size_t switches = 0;
  for (const MechanismConfig& cfg : {calm, hot}) {
    for (const char* name : {"qcn", "rcp"}) {
      for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear,
                               ModelLevel::Clipped}) {
        const FluidRun run =
            simulate_fluid(*make_fluid_mechanism(name, cfg, level));
        add_run(digest, run);
        samples += run.trajectory.size();
        switches += run.switches.size();
      }
    }
  }
  EXPECT_EQ(samples, 28216u);
  EXPECT_EQ(switches, 199u);
  EXPECT_EQ(digest.value(), 0x9bff59cb08c5eb9eull);
}

}  // namespace
}  // namespace bcn::core
