#include "analysis/stability_map.h"

#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "../support/digest.h"
#include "analysis/sweep.h"

namespace bcn::analysis {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Every field of two closed-form reports, doubles by their bits.
::testing::AssertionResult same_report(const core::StabilityReport& a,
                                       const core::StabilityReport& b) {
  const auto& ca = a.classification;
  const auto& cb = b.classification;
  const auto same_subsystem = [](const control::SubsystemReport& u,
                                 const control::SubsystemReport& v) {
    return same_bits(u.m, v.m) && same_bits(u.n, v.n) &&
           u.equilibrium == v.equilibrium &&
           u.hurwitz_stable == v.hurwitz_stable;
  };
  if (ca.paper_case == cb.paper_case &&
      ca.increase_kind == cb.increase_kind &&
      ca.decrease_kind == cb.decrease_kind &&
      same_bits(ca.increase_discriminant, cb.increase_discriminant) &&
      same_bits(ca.decrease_discriminant, cb.decrease_discriminant) &&
      same_bits(a.predicted_max_x, b.predicted_max_x) &&
      same_bits(a.predicted_min_x, b.predicted_min_x) &&
      a.closed_form_rounds == b.closed_form_rounds &&
      a.proposition_satisfied == b.proposition_satisfied &&
      a.proposition == b.proposition &&
      same_bits(a.theorem1_required_buffer, b.theorem1_required_buffer) &&
      a.theorem1_satisfied == b.theorem1_satisfied &&
      same_subsystem(a.baseline.increase, b.baseline.increase) &&
      same_subsystem(a.baseline.decrease, b.baseline.decrease) &&
      a.baseline.declared_stable == b.baseline.declared_stable) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "\n  " << a.summary() << "\n  " << b.summary();
}

// E22's plant (bench/map_throughput.cpp).
core::BcnParams e22_plant() {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  return base;
}

TEST(StabilityMapTest, GridShapeAndCells) {
  const auto base = core::BcnParams::standard_draft();
  const auto gi = linspace(1.0, 8.0, 3);
  const auto gd = logspace(1.0 / 256.0, 1.0 / 32.0, 2);
  const auto map = compute_stability_map(base, gi, gd);
  EXPECT_EQ(map.cells.size(), 6u);
  EXPECT_EQ(map.gi_values.size(), 3u);
  EXPECT_EQ(map.gd_values.size(), 2u);
  // Row-major layout: gi outer, gd inner.
  EXPECT_DOUBLE_EQ(map.cells[0].gi, gi[0]);
  EXPECT_DOUBLE_EQ(map.cells[0].gd, gd[0]);
  EXPECT_DOUBLE_EQ(map.cells[1].gi, gi[0]);
  EXPECT_DOUBLE_EQ(map.cells[1].gd, gd[1]);
}

TEST(StabilityMapTest, AggregatesConsistent) {
  const auto base = core::BcnParams::standard_draft();
  const auto map = compute_stability_map(base, linspace(1.0, 8.0, 3),
                                         logspace(1.0 / 256.0, 0.1, 3));
  int t1 = 0, num = 0, prop = 0;
  for (const auto& c : map.cells) {
    if (c.report.theorem1_satisfied) ++t1;
    if (c.numeric.strongly_stable) ++num;
    if (c.report.proposition_satisfied) ++prop;
  }
  EXPECT_EQ(t1, map.theorem1_stable);
  EXPECT_EQ(num, map.numeric_stable);
  EXPECT_EQ(prop, map.proposition_stable);
}

TEST(StabilityMapTest, Theorem1SoundOnLinearizedNumeric) {
  // Theorem 1 must have zero false positives against the linearized
  // ground truth (it is a sufficient condition for that model).
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  const auto map =
      compute_stability_map(base, linspace(0.25, 6.0, 4),
                            logspace(1.0 / 256.0, 0.5, 4),
                            {.numeric_level = core::ModelLevel::Linearized});
  EXPECT_EQ(map.theorem1_false_positive, 0);
  // Theorem 1 is only sufficient: it must not out-count the ground truth.
  EXPECT_LE(map.theorem1_stable, map.numeric_stable);
}

TEST(StabilityMapTest, ParallelBitwiseIdenticalToSerial) {
  // The determinism contract of the exec layer: threads=4 must place the
  // exact same bits in every cell as the legacy serial path.
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  const auto gi = linspace(0.25, 8.0, 5);
  const auto gd = logspace(1.0 / 256.0, 0.5, 5);
  StabilityMapOptions serial_opts;
  serial_opts.numeric_level = core::ModelLevel::Linearized;
  serial_opts.threads = 1;
  StabilityMapOptions parallel_opts = serial_opts;
  parallel_opts.threads = 4;
  const auto serial = compute_stability_map(base, gi, gd, serial_opts);
  const auto parallel = compute_stability_map(base, gi, gd, parallel_opts);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const auto& s = serial.cells[i];
    const auto& p = parallel.cells[i];
    // EXPECT_EQ on doubles is exact (bitwise up to -0.0 == 0.0), not a
    // tolerance comparison.
    EXPECT_EQ(s.gi, p.gi) << "cell " << i;
    EXPECT_EQ(s.gd, p.gd) << "cell " << i;
    EXPECT_EQ(s.numeric.strongly_stable, p.numeric.strongly_stable);
    EXPECT_EQ(s.numeric.converged, p.numeric.converged);
    EXPECT_EQ(s.numeric.max_x, p.numeric.max_x) << "cell " << i;
    EXPECT_EQ(s.numeric.min_x, p.numeric.min_x) << "cell " << i;
    EXPECT_EQ(s.report.theorem1_satisfied, p.report.theorem1_satisfied);
    EXPECT_EQ(s.report.proposition_satisfied, p.report.proposition_satisfied);
    EXPECT_EQ(s.report.predicted_max_x, p.report.predicted_max_x);
    EXPECT_EQ(s.report.predicted_min_x, p.report.predicted_min_x);
  }
  EXPECT_EQ(serial.theorem1_stable, parallel.theorem1_stable);
  EXPECT_EQ(serial.numeric_stable, parallel.numeric_stable);
  EXPECT_EQ(serial.proposition_stable, parallel.proposition_stable);
  EXPECT_EQ(serial.theorem1_false_positive, parallel.theorem1_false_positive);
  EXPECT_EQ(serial.proposition_false_positive,
            parallel.proposition_false_positive);
}

TEST(StabilityMapTest, HardwareThreadsMatchesSerialToo) {
  // threads = 0 (all hardware threads) goes through the same contract.
  const auto base = core::BcnParams::standard_draft();
  const auto gi = linspace(1.0, 8.0, 3);
  const auto gd = logspace(1.0 / 256.0, 0.1, 3);
  StabilityMapOptions auto_opts;
  auto_opts.threads = 0;
  const auto serial = compute_stability_map(base, gi, gd);
  const auto parallel = compute_stability_map(base, gi, gd, auto_opts);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].numeric.max_x, parallel.cells[i].numeric.max_x);
    EXPECT_EQ(serial.cells[i].numeric.min_x, parallel.cells[i].numeric.min_x);
  }
}

TEST(StabilityMapTest, LargerBufferNeverHurts) {
  core::BcnParams small = core::BcnParams::standard_draft();
  core::BcnParams large = small;
  large.buffer = 40e6;
  large.qsc = 36e6;
  const auto gi = linspace(1.0, 8.0, 3);
  const auto gd = logspace(1.0 / 256.0, 0.1, 3);
  const auto ms = compute_stability_map(small, gi, gd,
                                        {.numeric_level = core::ModelLevel::Linearized});
  const auto ml = compute_stability_map(large, gi, gd,
                                        {.numeric_level = core::ModelLevel::Linearized});
  EXPECT_GE(ml.numeric_stable, ms.numeric_stable);
  EXPECT_GE(ml.theorem1_stable, ms.theorem1_stable);
}

TEST(StabilityMapTest, MapModeParsing) {
  MapMode mode = MapMode::Scalar;
  EXPECT_TRUE(parse_map_mode("batch", &mode));
  EXPECT_EQ(mode, MapMode::Batch);
  EXPECT_TRUE(parse_map_mode("adaptive", &mode));
  EXPECT_EQ(mode, MapMode::Adaptive);
  EXPECT_TRUE(parse_map_mode("scalar", &mode));
  EXPECT_EQ(mode, MapMode::Scalar);
  mode = MapMode::Batch;
  EXPECT_FALSE(parse_map_mode("turbo", &mode));
  EXPECT_EQ(mode, MapMode::Batch);  // untouched on failure
  EXPECT_EQ(to_string(MapMode::Adaptive), "adaptive");
}

TEST(StabilityMapTest, BatchModeMatchesScalarVerdicts) {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  const auto gi = logspace(0.25, 16.0, 9);
  const auto gd = logspace(1.0 / 512.0, 0.5, 9);
  StabilityMapOptions scalar_opts;
  scalar_opts.numeric_level = core::ModelLevel::Linearized;
  StabilityMapOptions batch_opts = scalar_opts;
  batch_opts.mode = MapMode::Batch;
  const auto scalar = compute_stability_map(base, gi, gd, scalar_opts);
  const auto batch = compute_stability_map(base, gi, gd, batch_opts);

  ASSERT_EQ(scalar.cells.size(), batch.cells.size());
  for (std::size_t i = 0; i < scalar.cells.size(); ++i) {
    EXPECT_EQ(scalar.cells[i].numeric.strongly_stable,
              batch.cells[i].numeric.strongly_stable)
        << "cell " << i;
    // The analytic report side is computed identically in every mode.
    EXPECT_EQ(scalar.cells[i].report.theorem1_satisfied,
              batch.cells[i].report.theorem1_satisfied);
  }
  EXPECT_EQ(scalar.numeric_stable, batch.numeric_stable);
  EXPECT_EQ(scalar.theorem1_false_positive, batch.theorem1_false_positive);
  // Guard against a vacuous grid (all cells one verdict).
  EXPECT_GT(batch.numeric_stable, 0);
  EXPECT_LT(batch.numeric_stable, static_cast<int>(batch.cells.size()));
  EXPECT_EQ(batch.integrated_cells, batch.cells.size());
  EXPECT_EQ(batch.refinement_waves, 1);
}

TEST(StabilityMapTest, AdaptiveModeMatchesBatchWithFewerIntegrations) {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  // Large enough for a coarse grid plus real refinement waves.
  const auto gi = logspace(0.125, 32.0, 33);
  const auto gd = logspace(1.0 / 1024.0, 0.5, 33);
  StabilityMapOptions batch_opts;
  batch_opts.numeric_level = core::ModelLevel::Linearized;
  batch_opts.mode = MapMode::Batch;
  StabilityMapOptions adaptive_opts = batch_opts;
  adaptive_opts.mode = MapMode::Adaptive;
  const auto batch = compute_stability_map(base, gi, gd, batch_opts);
  const auto adaptive = compute_stability_map(base, gi, gd, adaptive_opts);

  ASSERT_EQ(batch.cells.size(), adaptive.cells.size());
  std::size_t integrated = 0;
  for (std::size_t i = 0; i < batch.cells.size(); ++i) {
    EXPECT_EQ(batch.cells[i].numeric.strongly_stable,
              adaptive.cells[i].numeric.strongly_stable)
        << "cell " << i;
    integrated += adaptive.cells[i].integrated ? 1 : 0;
  }
  EXPECT_EQ(batch.numeric_stable, adaptive.numeric_stable);
  // The refinement must have skipped a substantial share of the grid and
  // accounted for its waves honestly.
  EXPECT_EQ(adaptive.integrated_cells, integrated);
  EXPECT_LT(adaptive.integrated_cells, adaptive.cells.size() / 2);
  EXPECT_GE(adaptive.refinement_waves, 2);
  std::size_t wave_sum = 0;
  for (const std::size_t w : adaptive.wave_cells) wave_sum += w;
  EXPECT_EQ(wave_sum, adaptive.integrated_cells);
  // Batch mode integrates everything.
  EXPECT_EQ(batch.integrated_cells, batch.cells.size());
  for (const auto& c : batch.cells) EXPECT_TRUE(c.integrated);
}

TEST(StabilityMapTest, ClippedLevelFallsBackToScalar) {
  // The affine lane family cannot express buffer walls; Batch/Adaptive
  // must silently deliver the scalar Clipped map.
  const auto base = core::BcnParams::standard_draft();
  const auto gi = linspace(1.0, 8.0, 3);
  const auto gd = logspace(1.0 / 256.0, 0.1, 3);
  StabilityMapOptions scalar_opts;
  scalar_opts.numeric_level = core::ModelLevel::Clipped;
  StabilityMapOptions batch_opts = scalar_opts;
  batch_opts.mode = MapMode::Batch;
  const auto scalar = compute_stability_map(base, gi, gd, scalar_opts);
  const auto batch = compute_stability_map(base, gi, gd, batch_opts);
  ASSERT_EQ(scalar.cells.size(), batch.cells.size());
  for (std::size_t i = 0; i < scalar.cells.size(); ++i) {
    EXPECT_EQ(scalar.cells[i].numeric.max_x, batch.cells[i].numeric.max_x);
    EXPECT_EQ(scalar.cells[i].numeric.strongly_stable,
              batch.cells[i].numeric.strongly_stable);
  }
  EXPECT_EQ(batch.refinement_waves, 0);
  EXPECT_EQ(batch.mode, MapMode::Scalar);
}

// The raw bits of the repo benchmark's map: E22's plant on its 97x97
// (Gi, Gd) grid in Adaptive mode on two threads, at both interior levels.
// Its per-worker slices of 84-367 lanes cross the switching line about
// 180 lanes at a time, in full groups that the lane digest's small
// batches (tests/ode/batch_test.cpp) rarely fill, so a change to how the
// batch integrator localizes a group of crossings moves this digest.
TEST(StabilityMapTest, E22MapsMatchPinnedDigest) {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  const auto gi = logspace(0.125, 32.0, 97);
  const auto gd = logspace(1.0 / 1024.0, 0.5, 97);
  bcn::testing::Digest digest;
  std::size_t integrated[2] = {0, 0};
  int index = 0;
  for (const auto level :
       {core::ModelLevel::Linearized, core::ModelLevel::Nonlinear}) {
    const auto map = compute_stability_map(
        base, gi, gd,
        {.numeric_level = level, .threads = 2, .mode = MapMode::Adaptive});
    for (const MapCell& cell : map.cells) {
      digest.add(cell.numeric.max_x)
          .add(cell.numeric.min_x)
          .add(cell.numeric.strongly_stable)
          .add(cell.numeric.converged)
          .add(cell.numeric.nonfinite)
          .add(cell.integrated);
    }
    integrated[index++] = map.integrated_cells;
  }
  EXPECT_EQ(integrated[0], 1447u);
  EXPECT_EQ(integrated[1], 837u);
  EXPECT_EQ(digest.value(), 0xf233444db1845d60ull);
}

// A map's closed-form half is analyze_stability of each cell's plant, to
// the bit, on E22's grid and on a grid that reaches all four paper
// cases, at one thread and at two.
TEST(StabilityMapTest, ClosedFormCellsMatchAnalyzeStabilityBitwise) {
  const core::BcnParams base = e22_plant();
  // The spiral thresholds a = 4/k^2 (over Gi) and b C = 4/k^2 (over Gd):
  // 2.5e7 and 1e6 on this plant.
  const double gi_threshold =
      base.spiral_threshold() / (base.ru * base.num_sources);
  const double gd_threshold = base.spiral_threshold() / base.capacity;
  struct Grid {
    std::vector<double> gi, gd;
  };
  const Grid grids[] = {
      {logspace(0.125, 32.0, 97), logspace(1.0 / 1024.0, 0.5, 97)},
      {logspace(gi_threshold / 16.0, 16.0 * gi_threshold, 33),
       logspace(gd_threshold / 16.0, 16.0 * gd_threshold, 33)},
  };
  int per_case[2][5] = {};
  int node_ends[2] = {0, 0};
  int rounds_max[2] = {0, 0};
  for (int g = 0; g < 2; ++g) {
    for (const int threads : {1, 2}) {
      const auto map = compute_stability_map(
          base, grids[g].gi, grids[g].gd,
          {.numeric_level = core::ModelLevel::Linearized,
           .threads = threads,
           .mode = MapMode::Adaptive});
      ASSERT_EQ(map.cells.size(), grids[g].gi.size() * grids[g].gd.size());
      int mismatches = 0;
      for (const MapCell& cell : map.cells) {
        core::BcnParams p = base;
        p.gi = cell.gi;
        p.gd = cell.gd;
        const auto verdict =
            same_report(cell.report, core::analyze_stability(p));
        if (!verdict && ++mismatches == 1) {
          ADD_FAILURE() << "grid " << g << ", " << threads
                        << " thread(s), Gi " << cell.gi << " Gd " << cell.gd
                        << verdict.message();
        }
        if (threads == 1) {
          const auto paper_case = cell.report.classification.paper_case;
          ++per_case[g][static_cast<int>(paper_case)];
          // A walk that ends after two rounds: round 1 never crosses
          // back, the orbit settles inside a node region.
          const int rounds = cell.report.closed_form_rounds;
          if (rounds == 2) ++node_ends[g];
          rounds_max[g] = std::max(rounds_max[g], rounds);
        }
      }
      EXPECT_EQ(mismatches, 0) << "grid " << g << ", " << threads
                               << " thread(s)";
    }
  }
  EXPECT_EQ(per_case[0][0], 97 * 97);  // E22: every cell is Case 1
  EXPECT_EQ(node_ends[0], 0);
  EXPECT_EQ(rounds_max[0], 3);  // E22's closed_form_rounds_max
  EXPECT_EQ(per_case[1][0], 289);
  EXPECT_EQ(per_case[1][1], 272);
  EXPECT_EQ(per_case[1][2], 272);
  EXPECT_EQ(per_case[1][3], 256);
  EXPECT_EQ(per_case[1][4], 0);
  EXPECT_EQ(node_ends[1], 561);
}

// The raw bits of every closed-form report field over the repo
// benchmark's map (E22's 97x97 grid, Adaptive, two threads).
TEST(StabilityMapTest, E22ReportsMatchPinnedDigest) {
  const auto map = compute_stability_map(
      e22_plant(), logspace(0.125, 32.0, 97), logspace(1.0 / 1024.0, 0.5, 97),
      {.numeric_level = core::ModelLevel::Linearized,
       .threads = 2,
       .mode = MapMode::Adaptive});
  bcn::testing::Digest digest;
  const auto add_subsystem = [&](const control::SubsystemReport& s) {
    digest.add(s.m).add(s.n).add(s.equilibrium).add(s.hurwitz_stable);
  };
  for (const MapCell& cell : map.cells) {
    const core::StabilityReport& r = cell.report;
    digest.add(r.classification.paper_case)
        .add(r.classification.increase_kind)
        .add(r.classification.decrease_kind)
        .add(r.classification.increase_discriminant)
        .add(r.classification.decrease_discriminant)
        .add(r.predicted_max_x)
        .add(r.predicted_min_x)
        .add(r.proposition_satisfied)
        .add(r.proposition)
        .add(r.theorem1_required_buffer)
        .add(r.theorem1_satisfied);
    add_subsystem(r.baseline.increase);
    add_subsystem(r.baseline.decrease);
    digest.add(r.baseline.declared_stable);
  }
  EXPECT_EQ(digest.value(), 0x74ed51ce7ce0730bull);
}

}  // namespace
}  // namespace bcn::analysis
