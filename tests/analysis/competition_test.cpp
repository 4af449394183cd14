// Heterogeneous-competition fluid model: two mechanism groups on one
// bottleneck (analysis/competition.h).  Checks the homogeneous baseline,
// boundedness of the mixed pairs the E21 bench reports, share accounting
// under asymmetric splits, determinism, and the packet-only degenerate
// case.
#include <cstddef>

#include <gtest/gtest.h>

#include "analysis/competition.h"
#include "core/mechanism.h"

namespace bcn::analysis {
namespace {

core::MechanismConfig slow_regime() {
  core::MechanismConfig cfg;
  cfg.plant.num_sources = 8;
  cfg.plant.capacity = 10e9;
  cfg.plant.q0 = 2.5e6;
  cfg.plant.buffer = 30e6;
  cfg.plant.qsc = 28e6;
  cfg.plant.w = 2.0;
  cfg.plant.pm = 0.2;
  cfg.plant.gi = 0.5;
  cfg.plant.gd = 1.0 / 128.0;
  cfg.plant.ru = 8e6;
  return cfg;
}

CompetitionOptions short_run() {
  CompetitionOptions opts;
  opts.duration = 0.03;
  return opts;
}

TEST(CompetitionTest, HomogeneousBcnIsTheFairnessBaseline) {
  const auto run =
      simulate_fluid_competition("bcn", "bcn", slow_regime(), short_run());
  ASSERT_FALSE(run.t.empty());
  EXPECT_EQ(run.mech_a, "bcn");
  EXPECT_EQ(run.mech_b, "bcn");
  EXPECT_TRUE(run.bounded);
  // Two identical groups: symmetric dynamics, near-perfect share split
  // and the queue settling at q0 (x = 0).
  EXPECT_GT(run.fairness, 0.99);
  EXPECT_GT(run.tail_queue_mean, 0.5 * 2.5e6);
  EXPECT_LT(run.tail_queue_mean, 2.0 * 2.5e6);
  EXPECT_DOUBLE_EQ(run.share_a, run.share_b);
}

TEST(CompetitionTest, MixedPairsStayBoundedInTheStrip) {
  for (const auto& [a, b] : {std::pair<const char*, const char*>{"bcn", "qcn"},
                             {"bcn", "rcp"},
                             {"qcn", "rcp"}}) {
    const auto run = simulate_fluid_competition(a, b, slow_regime(),
                                                short_run());
    ASSERT_FALSE(run.t.empty()) << a << " vs " << b;
    EXPECT_TRUE(run.bounded) << a << " vs " << b;
    EXPECT_GT(run.fairness, 0.0) << a << " vs " << b;
    EXPECT_LE(run.fairness, 1.0 + 1e-12) << a << " vs " << b;
    // Both groups keep sending: neither aggregate collapses to zero.
    EXPECT_GT(run.tail_rate_a, 0.0) << a << " vs " << b;
    EXPECT_GT(run.tail_rate_b, 0.0) << a << " vs " << b;
  }
}

TEST(CompetitionTest, SplitControlsTheCapacityShares) {
  auto opts = short_run();
  opts.split = 0.25;  // 2 of the 8 sources in group A
  const auto run =
      simulate_fluid_competition("bcn", "bcn", slow_regime(), opts);
  ASSERT_FALSE(run.t.empty());
  EXPECT_DOUBLE_EQ(run.share_a, 10e9 * 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(run.share_b, 10e9 * 6.0 / 8.0);
  // Fairness is share-normalized, so the asymmetric homogeneous split
  // still scores as fair.
  EXPECT_TRUE(run.bounded);
  EXPECT_GT(run.fairness, 0.95);
}

TEST(CompetitionTest, RunsAreDeterministic) {
  const auto a =
      simulate_fluid_competition("bcn", "rcp", slow_regime(), short_run());
  const auto b =
      simulate_fluid_competition("bcn", "rcp", slow_regime(), short_run());
  ASSERT_FALSE(a.t.empty());
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.ya, b.ya);
  EXPECT_EQ(a.yb, b.yb);
  EXPECT_DOUBLE_EQ(a.fairness, b.fairness);
  EXPECT_DOUBLE_EQ(a.tail_x_p2p, b.tail_x_p2p);
}

TEST(CompetitionTest, SeriesAreAlignedAndInsideTheWalls) {
  const auto run =
      simulate_fluid_competition("bcn", "qcn", slow_regime(), short_run());
  ASSERT_FALSE(run.t.empty());
  ASSERT_EQ(run.t.size(), run.x.size());
  ASSERT_EQ(run.t.size(), run.ya.size());
  ASSERT_EQ(run.t.size(), run.yb.size());
  const double lo = -2.5e6;
  const double hi = 30e6 - 2.5e6;
  for (std::size_t i = 0; i < run.t.size(); ++i) {
    EXPECT_GE(run.x[i], lo - 1.0);
    EXPECT_LE(run.x[i], hi + 1.0);
    if (i > 0) {
      EXPECT_GT(run.t[i], run.t[i - 1]);
    }
  }
  EXPECT_LE(run.max_x, hi + 1.0);
  EXPECT_GE(run.min_x, lo - 1.0);
}

TEST(CompetitionTest, PacketOnlyMechanismYieldsAnEmptyRun) {
  // fera has no fluid facet; the run is named but carries no series and
  // no verdict.
  for (const auto& [a, b] : {std::pair<const char*, const char*>{"fera", "bcn"},
                             {"bcn", "fera"},
                             {"bcn", "nope"}}) {
    const auto run =
        simulate_fluid_competition(a, b, slow_regime(), short_run());
    EXPECT_TRUE(run.t.empty()) << a << " vs " << b;
    EXPECT_FALSE(run.bounded) << a << " vs " << b;
  }
}

TEST(CompetitionTest, BatchIsBitwiseEqualToScalarRuns) {
  // The batched entry point steps lanes in lockstep over shared storage;
  // the contract is that every per-lane series and statistic is the
  // exact scalar sequence, at any thread count.
  const std::vector<CompetitionPair> pairs = {
      {"bcn", "bcn", slow_regime()},
      {"bcn", "qcn", slow_regime()},
      {"qcn", "rcp", slow_regime()},
      {"rcp", "bcn", slow_regime()},
      {"bcn", "nope", slow_regime()},  // invalid pairs ride along empty
  };
  const auto opts = short_run();
  for (const int threads : {1, 4}) {
    const auto batch = simulate_fluid_competition_batch(pairs, opts, threads);
    ASSERT_EQ(batch.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto scalar = simulate_fluid_competition(
          pairs[i].mech_a, pairs[i].mech_b, pairs[i].config, opts);
      const auto& b = batch[i];
      ASSERT_EQ(b.t.size(), scalar.t.size()) << i;
      for (std::size_t s = 0; s < scalar.t.size(); ++s) {
        // EXPECT_EQ on doubles is exact, not a tolerance comparison.
        EXPECT_EQ(b.t[s], scalar.t[s]);
        EXPECT_EQ(b.x[s], scalar.x[s]);
        EXPECT_EQ(b.ya[s], scalar.ya[s]);
        EXPECT_EQ(b.yb[s], scalar.yb[s]);
      }
      EXPECT_EQ(b.max_x, scalar.max_x) << i;
      EXPECT_EQ(b.min_x, scalar.min_x) << i;
      EXPECT_EQ(b.bounded, scalar.bounded) << i;
      EXPECT_EQ(b.tail_queue_mean, scalar.tail_queue_mean) << i;
      EXPECT_EQ(b.tail_x_p2p, scalar.tail_x_p2p) << i;
      EXPECT_EQ(b.tail_rate_a, scalar.tail_rate_a) << i;
      EXPECT_EQ(b.tail_rate_b, scalar.tail_rate_b) << i;
      EXPECT_EQ(b.fairness, scalar.fairness) << i;
      EXPECT_EQ(b.share_a, scalar.share_a) << i;
      EXPECT_EQ(b.share_b, scalar.share_b) << i;
    }
  }
}

}  // namespace
}  // namespace bcn::analysis
