// Batched SoA verdicts vs the scalar adaptive pipeline: the two paths
// must agree on strong stability for every mechanism exposing a lane
// law, across gain grids straddling the stability boundary.  Also the
// slice size that splits a batch among the workers.
#include "core/batch_verdict.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sweep.h"
#include "exec/thread_pool.h"
#include "core/mechanism.h"
#include "core/stability.h"

namespace bcn::core {
namespace {

TEST(BatchVerdictTest, BcnAgreesWithScalarAcrossGainGrid) {
  // A log grid wide enough to contain stable spirals, unstable spirals
  // and node cases at both model levels.
  const auto gis = analysis::logspace(0.25, 16.0, 7);
  const auto gds = analysis::logspace(1.0 / 512.0, 0.25, 7);
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
    std::vector<VerdictLane> lanes;
    std::vector<NumericVerdict> scalar;
    for (const double gi : gis) {
      for (const double gd : gds) {
        BcnParams p = BcnParams::standard_draft();
        p.gi = gi;
        p.gd = gd;
        lanes.push_back(make_bcn_verdict_lane(p, level));
        scalar.push_back(numeric_strong_stability(p, {.level = level}));
      }
    }
    const auto batch = batch_numeric_verdicts(lanes);
    ASSERT_EQ(batch.size(), scalar.size());
    int stable = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].strongly_stable, scalar[i].strongly_stable)
          << "cell " << i << " level " << static_cast<int>(level);
      stable += batch[i].strongly_stable ? 1 : 0;
      // The overshoot itself must track the scalar run closely, not just
      // land on the right side of the threshold.
      const double scale = lanes[i].buffer;
      EXPECT_NEAR(batch[i].max_x, scalar[i].max_x, 0.01 * scale);
    }
    // Guard against a vacuous pass (all cells on one side).
    EXPECT_GT(stable, 0);
    EXPECT_LT(stable, static_cast<int>(batch.size()));
  }
}

TEST(BatchVerdictTest, EveryLaneLawMechanismAgreesWithScalarVerdict) {
  for (const MechanismInfo& info : mechanism_registry()) {
    if (!info.has_fluid) continue;
    MechanismConfig config;
    const auto [g1, g2] = info.default_gains(config);
    // Probe the default gains plus off-default corners of each axis.
    const double f1[] = {0.25, 1.0, 4.0};
    const double f2[] = {0.25, 1.0, 4.0};
    int compared = 0;
    for (const double a : f1) {
      for (const double b : f2) {
        info.set_gains(config, g1 * a, g2 * b);
        const auto mech =
            make_fluid_mechanism(info.name, config, ModelLevel::Nonlinear);
        ASSERT_NE(mech, nullptr) << info.name;
        const auto lane = make_mechanism_verdict_lane(*mech, 0.02);
        if (!lane) continue;  // no affine lane law (not under test here)
        const auto batch = batch_numeric_verdicts({*lane});
        const auto scalar = numeric_strong_stability(*mech, 0.02);
        EXPECT_EQ(batch[0].strongly_stable, scalar.strongly_stable)
            << info.name << " gains " << g1 * a << ", " << g2 * b;
        ++compared;
      }
    }
    // Every fluid mechanism currently exposes a lane law; a silent
    // blanket opt-out would hollow this test out.
    EXPECT_EQ(compared, 9) << info.name;
  }
}

TEST(BatchVerdictTest, ClippedLevelHasNoLane) {
  for (const char* name : {"bcn", "qcn", "rcp"}) {
    EXPECT_FALSE(make_mechanism_verdict_lane(
        *make_fluid_mechanism(name, {}, ModelLevel::Clipped)))
        << name;
    EXPECT_TRUE(make_mechanism_verdict_lane(
        *make_fluid_mechanism(name, {}, ModelLevel::Nonlinear)))
        << name;
  }
}

TEST(BatchVerdictTest, ThreadCountIsInvisible) {
  // A 33x33 grid: 1 089 lanes, more than two 512-lane slices and not a
  // multiple of four.  Its prefixes give fewer lanes than workers and
  // slices that end inside a vector block.
  const auto gis = analysis::logspace(0.25, 16.0, 33);
  const auto gds = analysis::logspace(1.0 / 512.0, 0.25, 33);
  std::vector<VerdictLane> grid;
  for (const double gi : gis) {
    for (const double gd : gds) {
      BcnParams p = BcnParams::standard_draft();
      p.gi = gi;
      p.gd = gd;
      grid.push_back(make_bcn_verdict_lane(p, ModelLevel::Nonlinear));
    }
  }
  for (const std::size_t n : {1, 2, 5, 83, 1089}) {
    const std::vector<VerdictLane> lanes(grid.begin(), grid.begin() + n);
    const auto serial = batch_numeric_verdicts(lanes, {.threads = 1});
    for (const int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << n << " lanes, " << threads << " threads");
      const auto parallel =
          batch_numeric_verdicts(lanes, {.threads = threads});
      ASSERT_EQ(serial.size(), parallel.size());
      for (std::size_t i = 0; i < n; ++i) {
        // Bitwise, not approximate: slicing must not change lane
        // arithmetic.
        EXPECT_EQ(serial[i].max_x, parallel[i].max_x) << i;
        EXPECT_EQ(serial[i].min_x, parallel[i].min_x) << i;
        EXPECT_EQ(serial[i].strongly_stable, parallel[i].strongly_stable)
            << i;
        EXPECT_EQ(serial[i].converged, parallel[i].converged) << i;
        EXPECT_EQ(serial[i].nonfinite, parallel[i].nonfinite) << i;
      }
    }
  }
}

TEST(BatchVerdictTest, SliceLanesGiveEachWorkerOneSliceOfAtMost512) {
  EXPECT_EQ(batch_slice_lanes(1000, 2), 500u);
  EXPECT_EQ(batch_slice_lanes(1001, 2), 501u);
  EXPECT_EQ(batch_slice_lanes(1089, 4), 273u);
  EXPECT_EQ(batch_slice_lanes(1089, 2), 512u);  // capped: three slices
  EXPECT_EQ(batch_slice_lanes(1089, 1), 512u);
  EXPECT_EQ(batch_slice_lanes(3, 8), 1u);
  EXPECT_EQ(batch_slice_lanes(0, 4), 1u);  // never zero
}

TEST(BatchVerdictTest, SlicesAreTheSmallestThatGiveEachWorkerOneWave) {
  for (const int threads : {0, 1, 2, 3, 4, 7}) {
    const auto workers =
        static_cast<std::size_t>(exec::resolve_threads(threads));
    for (std::size_t n = 1; n <= 5000; n += 37) {
      SCOPED_TRACE(::testing::Message()
                   << n << " lanes, " << threads << " threads");
      const std::size_t slice = batch_slice_lanes(n, threads);
      ASSERT_GE(slice, 1u);
      ASSERT_LE(slice, 512u);
      // Below the cap a worker gets at most one slice ...
      if (slice < 512) {
        EXPECT_LE((n + slice - 1) / slice, workers);
      }
      // ... and one lane less per slice would not do (at the cap: one
      // slice per worker would hold more than 512 lanes).
      EXPECT_GT(n, (slice - 1) * workers);
    }
  }
}

}  // namespace
}  // namespace bcn::core
