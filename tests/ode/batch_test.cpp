// SoA batched switched-system integrator: analytic accuracy, crossing
// localization, retirement/compaction bookkeeping, the
// zero-steady-state-allocation contract, and a pinned digest of every
// lane result on every vector pass the host can run.
#include "ode/batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "analysis/sweep.h"
#include "core/batch_verdict.h"
#include "digest.h"
#include "ode/batch_kernel.h"

namespace bcn::ode {
namespace {

// An undamped harmonic oscillator dx = y, dy = -omega^2 x expressed in
// the lane family: sigma = -(omega^2 x), dy = 1 * sigma.  Single law, so
// sigma's sign flips are not switching events.
BatchLane oscillator_lane(double omega, double x0, double t_end, double dt) {
  BatchLane lane;
  lane.law.sx = omega * omega;
  lane.law.sy = 0.0;
  lane.law.g0[0] = lane.law.g0[1] = 1.0;
  lane.law.switched = false;
  lane.x0 = x0;
  lane.y0 = 0.0;
  lane.t_end = t_end;
  lane.dt[0] = lane.dt[1] = dt;
  return lane;
}

TEST(BatchIntegratorTest, OscillatorAmplitudeMatchesAnalytic) {
  // x(t) = -A cos(omega t): max over the run is A, min is -A.  The
  // discrete sample set can miss the crest by at most (omega dt)^2/2 A.
  const double omega = 2.0 * std::numbers::pi;
  BatchIntegrator batch;
  batch.reset({oscillator_lane(omega, -3.0, 2.0, 1e-3)});
  batch.run_to_completion();
  const LaneResult& r = batch.results()[0];
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.converged);
  EXPECT_NEAR(r.max_x, 3.0, 1e-4);
  EXPECT_NEAR(r.min_x, -3.0, 1e-4);
  // Single-law lanes never report crossings even though sigma changes
  // sign twice per period.
  EXPECT_FALSE(r.crossed);
  EXPECT_EQ(r.crossings, 0u);
  EXPECT_EQ(r.post_switch_max_x, 0.0);
  EXPECT_EQ(r.post_switch_min_x, 0.0);
}

// sigma = -x; region 0 (sigma > 0, i.e. x < 0) is drift-only with
// y = 1, so x(t) = -1 + t crosses the surface exactly at t = 1 —
// mid-macro-step for any dt that does not divide 1.
BatchLane crossing_lane() {
  BatchLane lane;
  lane.law.sx = 1.0;
  lane.law.sy = 0.0;
  lane.law.drive[0] = 0.0;  // x' = y stays 1 while x < 0
  lane.law.drive[1] = -2.0;  // decelerate after the crossing
  lane.law.switched = true;
  lane.x0 = -1.0;
  lane.y0 = 1.0;
  lane.t_end = 1.2;
  lane.dt[0] = lane.dt[1] = 0.07;
  return lane;
}

// Damped oscillator dy = -omega^2 x - c y: sigma = -(omega^2 x + c y),
// with a horizon no step size below reaches, so it must early-stop.
BatchLane damped_lane() {
  BatchLane lane;
  lane.law.sx = 100.0;  // omega = 10
  lane.law.sy = 8.0;    // strong damping
  lane.law.g0[0] = lane.law.g0[1] = 1.0;
  lane.law.switched = false;
  lane.x0 = 1.0;
  lane.t_end = 1e9;
  lane.dt[0] = lane.dt[1] = 1e-3;
  lane.inv_x_scale = 1.0;
  lane.inv_y_scale = 0.1;
  lane.stop_tol = 1e-8;
  return lane;
}

// An exponentially exploding lane (dy = K x with K dt^2 >> 1) that
// overflows to inf within a few dozen macro steps.
BatchLane blowup_lane() {
  BatchLane lane;
  lane.law.sx = -1.0;  // sigma = x
  lane.law.g0[0] = lane.law.g0[1] = 1e6;  // dy = 1e6 * x
  lane.law.switched = false;
  lane.x0 = 1.0;
  lane.y0 = 0.0;
  lane.t_end = 1e9;
  lane.dt[0] = lane.dt[1] = 1.0;
  return lane;
}

TEST(BatchIntegratorTest, CrossingLocalizedToAnalyticTime) {
  BatchIntegrator batch;
  batch.reset({crossing_lane()});
  batch.run_to_completion();
  const LaneResult& r = batch.results()[0];
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.crossed);
  EXPECT_EQ(r.crossings, 1u);
  EXPECT_NEAR(r.first_crossing_t, 1.0, 1e-9);
  // Post-crossing kinematics: x(t) = (t-1) - (t-1)^2 for t in [1, 1.2].
  EXPECT_NEAR(r.post_switch_max_x, 0.2 - 0.04, 1e-9);
  EXPECT_NEAR(r.max_x, 0.2 - 0.04, 1e-9);
}

TEST(BatchIntegratorTest, ConvergenceStopRetiresEarly) {
  BatchIntegrator batch;
  batch.reset({damped_lane()});
  batch.run_to_completion();
  const LaneResult& r = batch.results()[0];
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.steps, 100000u);
}

TEST(BatchIntegratorTest, PerRegionStepSizesAreUsed) {
  // Identical lanes except for the step size must show step counts in
  // inverse proportion — the integrator reads the per-lane (and, for
  // switched lanes, per-region) dt rather than any shared clock.
  const double omega = 2.0 * std::numbers::pi;
  BatchLane fine = oscillator_lane(omega, -1.0, 0.04, 1e-4);
  BatchLane coarse = fine;
  coarse.dt[0] = coarse.dt[1] = 1e-3;
  BatchIntegrator batch;
  batch.reset({fine, coarse});
  batch.run_to_completion();
  EXPECT_EQ(batch.results()[0].steps, 400u);
  EXPECT_EQ(batch.results()[1].steps, 40u);
}

TEST(BatchIntegratorTest, ResultsKeyedByLaneIdAcrossCompaction) {
  // Lanes with staggered horizons retire in waves; swap-from-last
  // compaction must still land every result in its original slot.
  const double omega = 2.0 * std::numbers::pi;
  std::vector<BatchLane> lanes;
  for (int i = 0; i < 37; ++i) {
    const double amplitude = 1.0 + (i % 5);
    const double t_end = 0.51 + 0.01 * (i % 7);  // past the crest at t=0.5
    lanes.push_back(oscillator_lane(omega, -amplitude, t_end, 1e-3));
  }
  BatchIntegrator batch;
  batch.reset(lanes);
  batch.run_to_completion();
  ASSERT_EQ(batch.results().size(), lanes.size());
  for (int i = 0; i < 37; ++i) {
    EXPECT_NEAR(batch.results()[i].max_x, 1.0 + (i % 5), 1e-3)
        << "lane " << i;
  }
}

TEST(BatchIntegratorTest, SteadyStateAllocatesNothing) {
  const double omega = 2.0 * std::numbers::pi;
  // Whole vector blocks and a partial last block.
  for (const std::size_t n : {64, 37}) {
    std::vector<BatchLane> lanes(n, oscillator_lane(omega, -1.0, 0.5, 1e-3));
    BatchIntegrator batch;
    // First reset establishes the high-water capacity.
    batch.reset(lanes);
    batch.run_to_completion();

    const bcn::testing::AllocationCounter counter;
    batch.reset(lanes);
    batch.run_to_completion();
    EXPECT_EQ(counter.count(), 0u) << n << " lanes";
    EXPECT_TRUE(batch.results()[n - 1].completed) << n << " lanes";
  }
}

TEST(BatchIntegratorTest, RepeatRunsAreBitwiseIdentical) {
  const double omega = 2.0 * std::numbers::pi;
  std::vector<BatchLane> lanes;
  for (int i = 0; i < 8; ++i) {
    lanes.push_back(oscillator_lane(omega * (1.0 + 0.1 * i), -1.0, 0.5, 1e-3));
  }
  BatchIntegrator a, b;
  a.reset(lanes);
  a.run_to_completion();
  // Reuse b for an unrelated size first, to prove reset fully re-arms.
  b.reset(std::vector<BatchLane>(3, lanes[0]));
  b.run_to_completion();
  b.reset(lanes);
  b.run_to_completion();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_EQ(a.results()[i].max_x, b.results()[i].max_x);
    EXPECT_EQ(a.results()[i].min_x, b.results()[i].min_x);
    EXPECT_EQ(a.results()[i].steps, b.results()[i].steps);
  }
}

TEST(BatchIntegratorTest, NonfiniteLaneRetiresWithoutSpinningForever) {
  // The blow-up lane overflows to inf.  The non-finite guard must retire
  // it with completed = false; without the guard its clock would go NaN,
  // `t >= t_end` would never hold, and run_to_completion would spin
  // forever (regression for the NaN-lane infinite loop).
  const double omega = 2.0 * std::numbers::pi;
  const BatchLane healthy = oscillator_lane(omega, -2.0, 0.5, 1e-3);

  BatchIntegrator batch;
  batch.reset({blowup_lane(), healthy});
  batch.run_to_completion();

  const LaneResult& bad = batch.results()[0];
  EXPECT_TRUE(bad.nonfinite);
  EXPECT_FALSE(bad.completed);
  EXPECT_FALSE(bad.converged);
  EXPECT_TRUE(std::isfinite(bad.nonfinite_t));
  EXPECT_GE(bad.nonfinite_t, 0.0);
  EXPECT_LT(bad.steps, 1000u);  // retired fast, not at the 1e9 horizon

  // The poisoned lane must not leak into its batch neighbours.
  const LaneResult& good = batch.results()[1];
  EXPECT_TRUE(good.completed);
  EXPECT_FALSE(good.nonfinite);
  EXPECT_NEAR(good.max_x, 2.0, 1e-3);
}

// The pinned lane set: E22's plant on a 17x17 sub-grid of its 97x97
// (Gi, Gd) grid and 9x9 gain grids of three mechanisms, each at the
// Linearized and Nonlinear levels, plus the hand-built lanes above.
std::vector<BatchLane> pinned_lane_set() {
  core::BcnParams plant = core::BcnParams::standard_draft();
  plant.buffer = 12e6;
  plant.qsc = 11e6;
  const core::ModelLevel levels[] = {core::ModelLevel::Linearized,
                                     core::ModelLevel::Nonlinear};
  std::vector<BatchLane> lanes;
  const auto gi = analysis::logspace(0.125, 32.0, 97);
  const auto gd = analysis::logspace(1.0 / 1024.0, 0.5, 97);
  for (const auto level : levels) {
    for (std::size_t i = 0; i < gi.size(); i += 6) {
      for (std::size_t j = 0; j < gd.size(); j += 6) {
        core::BcnParams p = plant;
        p.gi = gi[i];
        p.gd = gd[j];
        lanes.push_back(
            core::make_batch_lane(core::make_bcn_verdict_lane(p, level)));
      }
    }
  }
  core::MechanismConfig config;
  config.plant = plant;
  for (const char* name : {"bcn-draft", "qcn", "rcp"}) {
    const core::MechanismInfo& info = *core::find_mechanism(name);
    const auto [d1, d2] = info.default_gains(config);
    const auto g1 = analysis::logspace(d1 / 8.0, d1 * 8.0, 9);
    const auto g2 = analysis::logspace(d2 / 8.0, d2 * 8.0, 9);
    for (const auto level : levels) {
      for (const double a : g1) {
        for (const double b : g2) {
          core::MechanismConfig cell = config;
          info.set_gains(cell, a, b);
          const auto lane = core::make_mechanism_verdict_lane(
              *core::make_fluid_mechanism(name, cell, level), 0.01);
          lanes.push_back(core::make_batch_lane(lane.value()));
        }
      }
    }
  }
  // Spread the hand-built lanes so each shares a 64-lane batch with
  // grid lanes (see the batch sizes below).
  const double omega = 2.0 * std::numbers::pi;
  const BatchLane special[] = {oscillator_lane(omega, -3.0, 2.0, 1e-3),
                               crossing_lane(), damped_lane(), blowup_lane()};
  for (std::size_t k = 0; k < std::size(special); ++k) {
    lanes.insert(lanes.begin() + 50 + 90 * k, special[k]);
  }
  return lanes;
}

std::uint64_t lane_digest(const std::vector<BatchLane>& lanes,
                          BatchIntegrator& batch) {
  // Consecutive batches of 1, 3, 5, 17 and 64 lanes, repeated: single
  // lanes, partial last blocks, and compaction across blocks.
  constexpr std::size_t kSizes[] = {1, 3, 5, 17, 64};
  bcn::testing::Digest digest;
  std::size_t lo = 0;
  for (std::size_t k = 0; lo < lanes.size(); ++k) {
    const std::size_t n =
        std::min(kSizes[k % std::size(kSizes)], lanes.size() - lo);
    batch.reset(lanes.data() + lo, n);
    batch.run_to_completion();
    for (const LaneResult& r : batch.results()) {
      digest.add(r.max_x)
          .add(r.min_x)
          .add(r.crossed)
          .add(r.first_crossing_t)
          .add(r.post_switch_max_x)
          .add(r.post_switch_min_x)
          .add(r.completed)
          .add(r.converged)
          .add(r.nonfinite)
          .add(r.nonfinite_t)
          .add(r.steps)
          .add(r.crossings);
    }
    lo += n;
  }
  return digest.value();
}

TEST(BatchIntegratorTest, LaneResultsMatchPinnedDigest) {
  // Every LaneResult field of a fixed lane set, bit for bit, on every
  // vector pass this host can run: a change to the stepping arithmetic,
  // its operation order (an FMA contraction, say) or the crossing,
  // retirement and compaction logic moves this digest.
  const std::vector<BatchLane> lanes = pinned_lane_set();
  ASSERT_EQ(lanes.size(), 1068u);
  for (const internal::BatchKernel* kernel : internal::host_batch_kernels()) {
    BatchIntegrator batch;
    kernel->install(batch);
    EXPECT_EQ(lane_digest(lanes, batch), 0x82e90c46b82978c0ull)
        << kernel->name;
  }
}

}  // namespace
}  // namespace bcn::ode
