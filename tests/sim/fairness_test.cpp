#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/stats.h"

namespace bcn::sim {
namespace {

TEST(JainIndexTest, PerfectFairness) {
  SimStats s;
  for (SourceId i = 0; i < 4; ++i) s.add_delivered(i, 1000.0);
  EXPECT_DOUBLE_EQ(s.jain_fairness_index(), 1.0);
}

TEST(JainIndexTest, MaximallyUnfair) {
  SimStats s;
  s.add_delivered(0, 1000.0);
  for (SourceId i = 1; i < 4; ++i) s.add_delivered(i, 0.0);
  EXPECT_NEAR(s.jain_fairness_index(), 0.25, 1e-12);
}

TEST(JainIndexTest, EmptyIsFair) {
  SimStats s;
  EXPECT_DOUBLE_EQ(s.jain_fairness_index(), 1.0);
}

TEST(JainIndexTest, IntermediateValue) {
  SimStats s;
  s.add_delivered(0, 2000.0);
  s.add_delivered(1, 1000.0);
  // (3000)^2 / (2 * (4e6 + 1e6)) = 9e6 / 1e7 = 0.9
  EXPECT_NEAR(s.jain_fairness_index(), 0.9, 1e-12);
}

TEST(FairnessNetworkTest, HomogeneousBcnSourcesShareFairly) {
  // The paper adopts AIMD because it is "stable, convergent and fair"
  // [Chiu & Jain]; homogeneous sources must end up with near-equal
  // delivered volume.
  NetworkConfig cfg;
  core::BcnParams p;
  p.num_sources = 8;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.pm = 0.2;
  p.gi = 0.5;
  cfg.params = p;
  cfg.initial_rate = 2e9;  // 16 Gbps burst into 10 Gbps
  Network net(cfg);
  net.run(60 * kMillisecond);
  EXPECT_EQ(net.stats().per_source_bits_sorted().size(), 8u);
  EXPECT_GT(net.stats().jain_fairness_index(), 0.95);
}

TEST(FairnessNetworkTest, UnequalStartsConvergeTowardFairShare) {
  // AIMD's fairness claim: sources starting at very different rates drift
  // toward equal shares.  Compare late-window regulator rates.
  NetworkConfig cfg;
  core::BcnParams p;
  p.num_sources = 2;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.pm = 0.2;
  p.gi = 0.5;
  cfg.params = p;
  cfg.initial_rate = 0.0;  // use per-params init below
  cfg.params.init_rate = 1e9;
  Network net(cfg);
  // Manually skew one source by feeding it an early positive adjustment:
  // simplest skew is asymmetric start -- run briefly, then compare decay
  // of the imbalance instead.  (Homogeneous Network API: both start at
  // init_rate; the imbalance comes from sampling luck.)
  net.run(80 * kMillisecond);
  const auto& sources = net.sources();
  ASSERT_EQ(sources.size(), 2u);
  const double r0 = sources[0]->rate();
  const double r1 = sources[1]->rate();
  const double imbalance =
      std::abs(r0 - r1) / std::max({r0, r1, 1.0});
  EXPECT_LT(imbalance, 0.4);
  EXPECT_GT(net.stats().jain_fairness_index(), 0.98);
}

}  // namespace
}  // namespace bcn::sim
