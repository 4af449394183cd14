#include "core/analytic_tracer.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sweep.h"
#include "common/rng.h"
#include "test_params.h"

namespace bcn::core {
namespace {

using namespace testing;

// E22's plant and gain ranges (bench/map_throughput.cpp) on an n x n grid.
std::vector<BcnParams> e22_grid(int n) {
  BcnParams base = BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  std::vector<BcnParams> plants;
  for (const double gi : analysis::logspace(0.125, 32.0, n)) {
    for (const double gd : analysis::logspace(1.0 / 1024.0, 0.5, n)) {
      BcnParams p = base;
      p.gi = gi;
      p.gd = gd;
      plants.push_back(p);
    }
  }
  return plants;
}

double log_uniform(Rng& rng, double lo, double hi) {
  return lo * std::pow(hi / lo, rng.uniform());
}

// A plant drawn log-uniformly over every quantity the region laws and
// the switching line depend on, wide enough to reach Cases 1-4.
BcnParams random_plant(Rng& rng) {
  BcnParams p = BcnParams::standard_draft();
  p.gi = log_uniform(rng, 1e-3, 1e3);
  p.gd = log_uniform(rng, 1e-4, 1e4);
  p.pm = log_uniform(rng, 1e-3, 1.0);
  p.w = log_uniform(rng, 0.1, 1e3);
  p.num_sources = log_uniform(rng, 1.0, 1e3);
  p.capacity = log_uniform(rng, 1e6, 1e11);
  return p;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(AnalyticTracerTest, StandardDraftFirstRound) {
  const BcnParams p = case1_params();
  const AnalyticTracer tracer(p);
  const auto trace = tracer.trace();
  ASSERT_GE(trace.rounds.size(), 3u);
  const auto& r0 = trace.rounds[0];
  EXPECT_EQ(r0.region, Region::Increase);
  EXPECT_EQ(r0.kind, control::SolutionKind::Spiral);
  EXPECT_EQ(r0.z_start, (Vec2{-p.q0, 0.0}));
  ASSERT_TRUE(r0.duration);
  // The first increase round must end on the switching line.
  ASSERT_TRUE(r0.z_end);
  EXPECT_NEAR(r0.z_end->x + p.k() * r0.z_end->y, 0.0,
              1e-6 * std::abs(r0.z_end->y));
  // No interior extremum in round 1 (x rises monotonically from -q0).
  EXPECT_FALSE(r0.extremum.has_value());
}

TEST(AnalyticTracerTest, RegionsAlternate) {
  const auto trace = AnalyticTracer(case1_params()).trace();
  for (std::size_t i = 1; i < trace.rounds.size(); ++i) {
    EXPECT_NE(trace.rounds[i].region, trace.rounds[i - 1].region);
  }
}

TEST(AnalyticTracerTest, RoundsChainContinuously) {
  const auto trace = AnalyticTracer(case1_params()).trace();
  for (std::size_t i = 1; i < trace.rounds.size(); ++i) {
    const auto& prev = trace.rounds[i - 1];
    const auto& cur = trace.rounds[i];
    ASSERT_TRUE(prev.z_end);
    EXPECT_EQ(cur.z_start, *prev.z_end);
    ASSERT_TRUE(prev.duration);
    EXPECT_NEAR(cur.t_start, prev.t_start + *prev.duration, 1e-12);
  }
}

TEST(AnalyticTracerTest, Case1ExtremaAlternate) {
  const auto trace = AnalyticTracer(case1_params()).trace();
  // Round 1 (decrease) holds the global max; round 2 (increase) the min.
  ASSERT_GE(trace.rounds.size(), 3u);
  ASSERT_TRUE(trace.rounds[1].extremum);
  EXPECT_TRUE(trace.rounds[1].extremum->is_maximum);
  EXPECT_NEAR(trace.rounds[1].extremum->value, trace.max_x, 1e-9 * trace.max_x);
  ASSERT_TRUE(trace.rounds[2].extremum);
  EXPECT_FALSE(trace.rounds[2].extremum->is_maximum);
  EXPECT_NEAR(trace.rounds[2].extremum->value, trace.min_x,
              1e-9 * std::abs(trace.min_x));
}

TEST(AnalyticTracerTest, ContractionRatioBelowOneForLinearizedSystem) {
  // The switched linearized system always contracts (both subsystem
  // segments are stable), so limit cycles are impossible at this model
  // level -- a key structural fact the Poincare analysis relies on.
  const auto trace = AnalyticTracer(case1_params()).trace();
  const auto ratio = trace.contraction_ratio();
  ASSERT_TRUE(ratio);
  EXPECT_LT(*ratio, 1.0);
  EXPECT_GT(*ratio, 0.0);
}

TEST(AnalyticTracerTest, ContractionRatioPropertyAcrossRandomCase1Params) {
  Rng rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    BcnParams p = case1_params();
    p.gi = rng.uniform(0.5, 20.0);
    p.gd = rng.uniform(1.0 / 512.0, 1.0 / 16.0);
    p.num_sources = std::floor(rng.uniform(2.0, 100.0));
    if (classify_case(p).paper_case != PaperCase::Case1) continue;
    const auto trace = AnalyticTracer(p).trace();
    const auto ratio = trace.contraction_ratio();
    if (!ratio) continue;
    EXPECT_LT(*ratio, 1.0) << p.describe();
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

TEST(AnalyticTracerTest, Case3TerminatesInsideDecreaseRegion) {
  const auto trace = AnalyticTracer(case3_params()).trace();
  EXPECT_TRUE(trace.terminated_in_region);
  EXPECT_TRUE(trace.converged);
  ASSERT_GE(trace.rounds.size(), 2u);
  EXPECT_EQ(trace.rounds.back().region, Region::Decrease);
  EXPECT_FALSE(trace.rounds.back().duration.has_value());
  // Paper Case 3: the queue never overshoots the reference q0 (max_x <= 0
  // up to the crossing point's tiny positive x).
  EXPECT_LT(trace.max_x, 0.05 * case3_params().q0);
}

TEST(AnalyticTracerTest, Case4TerminatesAndIsMonotoneish) {
  const auto trace = AnalyticTracer(case4_params()).trace();
  EXPECT_TRUE(trace.converged);
  EXPECT_TRUE(trace.terminated_in_region);
  EXPECT_GT(trace.min_x, -case4_params().q0);
}

TEST(AnalyticTracerTest, TraceFromCustomPoint) {
  const BcnParams p = case1_params();
  const Vec2 z0{0.5 * p.q0, 2e9};  // decrease region
  const auto trace = AnalyticTracer(p).trace_from(z0);
  ASSERT_FALSE(trace.rounds.empty());
  EXPECT_EQ(trace.rounds[0].region, Region::Decrease);
  EXPECT_EQ(trace.rounds[0].z_start, z0);
}

TEST(AnalyticTracerTest, ConvergenceStopsTracing) {
  const BcnParams p = case1_params();
  AnalyticTraceOptions opts;
  opts.convergence_tol = 1e-3;  // loose: stops after a few rounds
  const auto loose = AnalyticTracer(p).trace(opts);
  opts.convergence_tol = 1e-9;
  const auto tight = AnalyticTracer(p).trace(opts);
  EXPECT_LE(loose.rounds.size(), tight.rounds.size());
}

// extrema() skips the rounds after the first proven contraction; the
// extrema it returns must still be trace()'s to the last bit.
TEST(AnalyticTracerTest, ExtremaMatchFullTraceBitwise) {
  std::vector<BcnParams> plants = e22_grid(97);
  Rng rng(15);
  int per_case[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    plants.push_back(random_plant(rng));
    ++per_case[static_cast<int>(classify_case(plants.back()).paper_case)];
  }
  // Within 1e-3 of the increase-spiral threshold a = 4/k^2, where the
  // increase round turns from a slow spiral into a node.
  for (int i = 0; i < 2000; ++i) {
    BcnParams p = random_plant(rng);
    p.gi = p.spiral_threshold() * (1.0 + rng.uniform(-1e-3, 1e-3)) /
           (p.ru * p.num_sources);
    plants.push_back(p);
  }
  for (const PaperCase c : {PaperCase::Case1, PaperCase::Case2,
                            PaperCase::Case3, PaperCase::Case4}) {
    EXPECT_GE(per_case[static_cast<int>(c)], 1000) << to_string(c);
  }

  int mismatches = 0;
  for (const BcnParams& p : plants) {
    const AnalyticTracer tracer(p);
    const AnalyticTrace trace = tracer.trace();
    const AnalyticExtrema extrema = tracer.extrema();
    if (same_bits(extrema.max_x, trace.max_x) &&
        same_bits(extrema.min_x, trace.min_x)) {
      continue;
    }
    if (++mismatches == 1) {
      ADD_FAILURE() << "max_x " << extrema.max_x << " vs " << trace.max_x
                    << ", min_x " << extrema.min_x << " vs " << trace.min_x
                    << " at " << p.describe();
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << plants.size() << " plants";
}

// A (Gi, Gd) map walks round 0 once per Gi row and finishes each cell
// through its column's decrease flow; every cell must still read its own
// tracer's extrema() to the bit, in every paper case.
TEST(AnalyticTracerTest, ResumedExtremaMatchOwnTracerBitwise) {
  Rng rng(27);
  int per_case[5] = {0, 0, 0, 0, 0};
  int mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    const BcnParams row = random_plant(rng);
    BcnParams column = row;
    column.gi = log_uniform(rng, 1e-3, 1e3);
    column.gd = log_uniform(rng, 1e-4, 1e4);
    BcnParams cell = row;
    cell.gd = column.gd;
    ++per_case[static_cast<int>(classify_case(cell).paper_case)];
    const AnalyticTracer row_tracer(row);
    const AnalyticExtrema resumed =
        row_tracer.extrema(row_tracer.first_round(), AnalyticTracer(column));
    const AnalyticExtrema own = AnalyticTracer(cell).extrema();
    if (same_bits(resumed.max_x, own.max_x) &&
        same_bits(resumed.min_x, own.min_x) && resumed.rounds == own.rounds) {
      continue;
    }
    if (++mismatches == 1) {
      ADD_FAILURE() << "max_x " << resumed.max_x << " vs " << own.max_x
                    << ", min_x " << resumed.min_x << " vs " << own.min_x
                    << ", rounds " << resumed.rounds << " vs " << own.rounds
                    << " at " << cell.describe();
    }
  }
  EXPECT_EQ(mismatches, 0);
  for (const PaperCase c : {PaperCase::Case1, PaperCase::Case2,
                            PaperCase::Case3, PaperCase::Case4}) {
    EXPECT_GE(per_case[static_cast<int>(c)], 1000) << to_string(c);
  }
}

TEST(AnalyticTracerTest, ExtremaStopAfterOneReturn) {
  const std::vector<BcnParams> grid = e22_grid(97);
  const std::size_t last = grid.size() - 1;
  for (const BcnParams& p : {BcnParams::standard_draft(), grid[0],
                             grid[96], grid[last - 96], grid[last]}) {
    ASSERT_EQ(classify_case(p).paper_case, PaperCase::Case1)
        << p.describe();
    const AnalyticTracer tracer(p);
    EXPECT_LE(tracer.extrema().rounds, 4) << p.describe();
    // trace() itself still runs to its round limit on these slowly
    // contracting spirals.
    EXPECT_EQ(tracer.trace().rounds.size(), 256u) << p.describe();
  }
}

}  // namespace
}  // namespace bcn::core
