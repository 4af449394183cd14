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
#include "common/rng.h"
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

// Folds every field of a lane result into `digest`.
void add_result(bcn::testing::Digest& digest, const LaneResult& r) {
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

// The digest of one lane result's fields.
std::uint64_t result_digest(const LaneResult& r) {
  bcn::testing::Digest digest;
  add_result(digest, r);
  return digest.value();
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
    for (const LaneResult& r : batch.results()) add_result(digest, r);
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

// A damped switched spiral, dy = -w (x + 0.1 y) on both sides of the
// line sigma = -(x + 0.1 y), that crosses it about twice per 2 pi.  Lane
// j perturbs its start, gains and step by parts in 1e6 from a seeded
// stream, starts mirrored in the other region when j % 5 < 2, and adds a
// small drive (j % 3 == 1) or a nonlinear gain term (j % 3 == 2), so a
// family of such lanes crosses on the same macro steps with different
// bits, and no two vectors of a group carry the same mix.  With
// `at_line` the lane starts 1e-9 before the line, heading across it, so
// its first root lies below the 1e-6 clamp.
BatchLane spiral_lane(std::size_t j, bool at_line) {
  bcn::Rng rng(1000 + j);
  const auto jitter = [&] { return 1.0 + 1e-6 * rng.uniform(-1.0, 1.0); };
  BatchLane lane;
  lane.law.sx = 1.0;
  lane.law.sy = 0.1;
  lane.law.g0[0] = jitter();
  lane.law.g0[1] = jitter();
  if (j % 3 == 1) lane.law.drive[0] = lane.law.drive[1] = 1e-6 * jitter();
  if (j % 3 == 2) lane.law.g1[1] = 1e-6 * jitter();
  lane.law.switched = true;
  const double side = j % 5 < 2 ? -1.0 : 1.0;
  if (at_line) {
    // sigma(x0, y0) = side 1e-9 while sigma falls (side 1) or rises.
    lane.y0 = side;
    lane.x0 = -lane.law.sy * lane.y0 - side * 1e-9 * jitter();
  } else {
    lane.x0 = -side * jitter();
  }
  lane.t_end = 30.0;
  lane.dt[0] = lane.dt[1] = 0.05 * jitter();
  return lane;
}

TEST(BatchIntegratorTest, CrossingGroupsMatchSingleLaneRuns) {
  // Batches of k lanes that cross the line on the same steps, for every
  // k up to two of the crossing pass's largest groups plus one: full
  // groups, single vectors, and a padded last vector.  Every lane must
  // reproduce its own one-lane run bit for bit.
  for (const internal::BatchKernel* kernel : internal::host_batch_kernels()) {
    const std::size_t most = 2 * kernel->group_lanes + 1;
    for (const bool at_line : {false, true}) {
      std::vector<BatchLane> lanes;
      std::vector<std::uint64_t> alone;
      BatchIntegrator single;
      kernel->install(single);
      for (std::size_t j = 0; j < most; ++j) {
        lanes.push_back(spiral_lane(j, at_line));
        single.reset(&lanes.back(), 1);
        single.run_to_completion();
        const LaneResult& r = single.results()[0];
        alone.push_back(result_digest(r));
        ASSERT_TRUE(r.completed);
        ASSERT_GE(r.crossings, 8u);
        if (at_line) {
          // The clamped root: the first step stopped at 1e-6 of dt.
          EXPECT_EQ(r.first_crossing_t, 1e-6 * lanes.back().dt[0]) << j;
        }
      }
      BatchIntegrator batch;
      kernel->install(batch);
      for (std::size_t k = 1; k <= most; ++k) {
        batch.reset(lanes.data(), k);
        batch.run_to_completion();
        for (std::size_t j = 0; j < k; ++j) {
          const LaneResult& r = batch.results()[j];
          EXPECT_EQ(result_digest(r), alone[j])
              << kernel->name << (at_line ? " at the line" : "") << ", " << k
              << " lanes, lane " << j;
          // The family crosses together: same step and crossing counts.
          EXPECT_EQ(r.steps, batch.results()[0].steps) << j;
          EXPECT_EQ(r.crossings, batch.results()[0].crossings) << j;
        }
      }
    }
  }
}

// A lane of the quiet-step family below, stepping at dt = 0.07 to
// t = 1.2 without crossing: an oscillator (single law) when j is even,
// else crossing_lane() started far enough left that it reaches the line
// only after its horizon.
BatchLane quiet_lane(std::size_t j) {
  if (j % 2 == 0) {
    return oscillator_lane(2.0 * std::numbers::pi * (1.0 + 0.01 * j),
                           -1.0 - 0.1 * j, 1.2, 0.07);
  }
  BatchLane lane = crossing_lane();
  lane.x0 = -2.0 - 0.01 * j;
  return lane;
}

TEST(BatchIntegratorTest, QuietStepsMatchSingleLaneRuns) {
  // Batches of quiet lanes plus one crossing lane and one retiring lane,
  // all stepping at dt = 0.07.  Steps 1-14 and 16-17 flag no lane, so
  // step_all returns right after the commit pass; step 15 crosses one
  // lane (x = 0 at t = 1) and retires the other (horizon 15 dt); step 18
  // retires the rest.  The two sit at every pair of positions in batches
  // of 2 to 11 lanes: in one vector block, in different blocks, and in a
  // partial last block.  Every lane must reproduce its one-lane run bit
  // for bit.
  constexpr double kDt = 0.07;
  constexpr std::size_t kMost = 11;
  const BatchLane crossing = crossing_lane();
  const BatchLane retiring = oscillator_lane(3.0, -0.5, 15 * kDt, kDt);
  for (const internal::BatchKernel* kernel : internal::host_batch_kernels()) {
    BatchIntegrator batch;
    kernel->install(batch);
    // A one-lane run, cut off after 100 steps (each lane needs at most
    // 18), so a step that fails to retire a lane fails here, not hangs.
    const auto alone = [&](const BatchLane& lane) {
      batch.reset(&lane, 1);
      for (int step = 0; step < 100 && batch.step_all() != 0; ++step) {
      }
      return batch.results()[0];
    };
    const LaneResult c = alone(crossing);
    ASSERT_EQ(c.steps, 18u);
    ASSERT_EQ(c.crossings, 1u);
    ASSERT_GT(c.first_crossing_t, 14 * kDt);
    ASSERT_LT(c.first_crossing_t, 15 * kDt);
    const LaneResult r = alone(retiring);
    ASSERT_EQ(r.steps, 15u);
    ASSERT_TRUE(r.completed);
    std::vector<std::uint64_t> quiet;
    for (std::size_t j = 0; j < kMost; ++j) {
      const LaneResult q = alone(quiet_lane(j));
      ASSERT_EQ(q.steps, 18u) << j;
      ASSERT_EQ(q.crossings, 0u) << j;
      quiet.push_back(result_digest(q));
    }

    for (std::size_t k = 2; k <= kMost; ++k) {
      for (std::size_t at_c = 0; at_c < k; ++at_c) {
        for (std::size_t at_r = 0; at_r < k; ++at_r) {
          if (at_r == at_c) continue;
          SCOPED_TRACE(::testing::Message()
                       << kernel->name << ", " << k << " lanes, crossing at "
                       << at_c << ", retiring at " << at_r);
          std::vector<BatchLane> lanes;
          for (std::size_t j = 0; j < k; ++j) {
            lanes.push_back(j == at_c   ? crossing
                            : j == at_r ? retiring
                                        : quiet_lane(j));
          }
          batch.reset(lanes);
          for (std::size_t step = 1; step <= 18; ++step) {
            const std::size_t want = step < 15 ? k : step < 18 ? k - 1 : 0;
            ASSERT_EQ(batch.step_all(), want) << "step " << step;
          }
          for (std::size_t j = 0; j < k; ++j) {
            const std::uint64_t want = j == at_c   ? result_digest(c)
                                       : j == at_r ? result_digest(r)
                                                   : quiet[j];
            EXPECT_EQ(result_digest(batch.results()[j]), want) << "lane " << j;
          }
        }
      }
    }
  }
}

TEST(BatchIntegratorTest, KernelNameIsTheWidestPassTheHostRuns) {
  // E22 prints this name for the pass every default BatchIntegrator
  // installs: AVX2 where the CPU has it, the baseline otherwise.
  const std::string name = batch_kernel_name();
  EXPECT_EQ(name, internal::host_batch_kernels().back()->name);
  EXPECT_TRUE(name == "avx2" || name == "baseline") << name;
}

}  // namespace
}  // namespace bcn::ode
