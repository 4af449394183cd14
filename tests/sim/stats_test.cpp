#include "sim/stats.h"

#include <gtest/gtest.h>

#include "../support/metrics_export.h"

namespace bcn::sim {
namespace {

TEST(SimStatsTest, QueueAggregates) {
  SimStats s;
  s.record(0, 0.0, 1e9);
  s.record(10, 5e5, 1.2e9);
  s.record(20, 2e5, 0.8e9);
  s.record(30, 8e5, 1e9);
  EXPECT_DOUBLE_EQ(s.max_queue(), 8e5);
  EXPECT_DOUBLE_EQ(s.mean_queue(), (0.0 + 5e5 + 2e5 + 8e5) / 4.0);
}

// With no trace recorded the lifetime counters over the caller's horizon
// are the only information available (legacy behavior).
TEST(SimStatsTest, ThroughputWithoutTraceUsesHorizon) {
  SimStats s;
  s.counters.bits_delivered = 1e9;
  EXPECT_DOUBLE_EQ(s.throughput(kSecond), 1e9);
  EXPECT_DOUBLE_EQ(s.throughput(kSecond / 2), 2e9);
  EXPECT_DOUBLE_EQ(s.throughput(0), 0.0);
  EXPECT_DOUBLE_EQ(s.throughput(-kSecond), 0.0);
}

// Regression: the old implementation divided lifetime bits_delivered by
// whatever horizon the caller passed.  A horizon longer than the run
// diluted the rate; a horizon shorter than the run inflated it.
TEST(SimStatsTest, ThroughputClampsHorizonToTraceSpan) {
  SimStats s;
  s.record(0, 0.0, 0.0);
  s.counters.bits_delivered = 1e9;
  s.record(kSecond, 0.0, 0.0);  // snapshots bits_delivered = 1e9 at t = 1 s

  // Over-long horizon: clamped to the 1 s trace span, not divided by 2 s.
  EXPECT_DOUBLE_EQ(s.throughput(2 * kSecond), 1e9);
  // Exact horizon unchanged.
  EXPECT_DOUBLE_EQ(s.throughput(kSecond), 1e9);
}

TEST(SimStatsTest, ThroughputWindowsDeliveredBits) {
  SimStats s;
  s.record(0, 0.0, 0.0);
  s.counters.bits_delivered = 4e8;
  s.record(kSecond / 2, 0.0, 0.0);
  s.counters.bits_delivered = 1e9;
  s.record(kSecond, 0.0, 0.0);

  // A half-span horizon reads the bits delivered *by then* (4e8), not
  // the lifetime total over the half horizon (which would be 2e9).
  EXPECT_DOUBLE_EQ(s.throughput(kSecond / 2), 8e8);
  EXPECT_DOUBLE_EQ(s.throughput(kSecond), 1e9);
}

TEST(SimStatsTest, PhaseTrajectoryConversion) {
  SimStats s;
  s.record(0, 0.0, 1e10);
  s.record(kMillisecond, 3e6, 1.1e10);
  const auto traj = s.to_phase_trajectory(2.5e6, 1e10);
  ASSERT_EQ(traj.size(), 2u);
  EXPECT_DOUBLE_EQ(traj[0].t, 0.0);
  EXPECT_DOUBLE_EQ(traj[0].z.x, -2.5e6);
  EXPECT_DOUBLE_EQ(traj[0].z.y, 0.0);
  EXPECT_DOUBLE_EQ(traj[1].t, 1e-3);
  EXPECT_DOUBLE_EQ(traj[1].z.x, 0.5e6);
  EXPECT_DOUBLE_EQ(traj[1].z.y, 1e9);
}

// Per-source accounting lives in an unordered_map; the sorted view must
// be deterministic (ascending SourceId) regardless of insertion order.
TEST(SimStatsTest, PerSourceBitsSortedIsDeterministic) {
  SimStats scrambled;
  for (const SourceId id : {7u, 0u, 42u, 3u, 19u, 1u}) {
    scrambled.add_delivered(id, 1000.0 * (id + 1));
  }
  SimStats ordered;
  for (const SourceId id : {0u, 1u, 3u, 7u, 19u, 42u}) {
    ordered.add_delivered(id, 1000.0 * (id + 1));
  }
  const auto a = scrambled.per_source_bits_sorted();
  const auto b = ordered.per_source_bits_sorted();
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1].first, a[i].first);
  }
  EXPECT_EQ(a.front().first, 0u);
  EXPECT_DOUBLE_EQ(a.back().second, 43000.0);
}

TEST(SimStatsTest, ExportMetricsSnapshotsCountersAndSigma) {
  SimStats s;
  s.counters.frames_sent = 10;
  s.counters.frames_delivered = 8;
  s.counters.bcn_negative = 3;
  s.counters.bits_delivered = 96000.0;
  s.record(0, 0.0, 0.0);
  s.record_sigma(-1e6);
  s.record_sigma(2e5);
  s.add_delivered(1, 96000.0);

  obs::MetricsRegistry reg;
  s.export_metrics(reg, "sim.");
  ASSERT_NE(reg.find_counter("sim.frames_sent"), nullptr);
  EXPECT_EQ(reg.find_counter("sim.frames_sent")->value(), 10u);
  EXPECT_EQ(reg.find_counter("sim.frames_delivered")->value(), 8u);
  EXPECT_EQ(reg.find_counter("sim.bcn_negative")->value(), 3u);
  const FlatJson exported = bcn::testing::exported(reg);
  EXPECT_EQ(exported.number("sim.flow.1.bits_delivered"), 96000.0);
  EXPECT_EQ(exported.number("sim.sigma_bits.count"), 2.0);
}

}  // namespace
}  // namespace bcn::sim
