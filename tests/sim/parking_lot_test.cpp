// Parking-lot (dual congestion point) scenarios: CPID association must
// land on the true bottleneck and the rate allocation must follow the
// classic parking-lot shares.
#include <gtest/gtest.h>

#include "digest.h"
#include "sim/parking_lot.h"

namespace bcn::sim {
namespace {

TEST(ParkingLotTest, SharedBottleneckAtCp2) {
  // C1 wide open: CP2 is the bottleneck for all 8 flows.
  ParkingLotConfig cfg;  // C1 = C2 = 10G, 4 + 4 sources at 2 Gbps
  const auto r = run_parking_lot(cfg);
  // Every group-A regulator associated with CP2, none with CP1.
  EXPECT_EQ(r.group_a_on_cp1, 0);
  EXPECT_EQ(r.group_a_on_cp2, cfg.group_a);
  // CP1 never congests: no negative feedback from it, tiny queue.
  EXPECT_EQ(r.cp1_negatives, 0u);
  EXPECT_LT(r.cp1_peak_queue, 0.1e6);
  EXPECT_GT(r.cp2_negatives, 0u);
  // Rates near the 10G/8 fair share.
  EXPECT_NEAR(r.group_a_rate, 1.25e9, 0.4e9);
  EXPECT_NEAR(r.group_b_rate, 1.25e9, 0.4e9);
  EXPECT_EQ(r.drops, 0u);
}

TEST(ParkingLotTest, UpstreamBottleneckAtCp1) {
  // C1 = 2G: group A is bottlenecked upstream; B has CP2 almost to itself.
  ParkingLotConfig cfg;
  cfg.capacity1 = 2e9;
  cfg.initial_rate = 2.5e9;  // B alone would oversubscribe CP2
  const auto r = run_parking_lot(cfg);
  EXPECT_EQ(r.group_a_on_cp1, cfg.group_a);
  EXPECT_EQ(r.group_a_on_cp2, 0);
  // Group A converges to ~C1/4 = 0.5 Gbps.
  EXPECT_NEAR(r.group_a_rate, 0.5e9, 0.2e9);
  // Group B ends well above group A (it only shares CP2).
  EXPECT_GT(r.group_b_rate, 2.5 * r.group_a_rate);
  EXPECT_EQ(r.drops, 0u);
}

TEST(ParkingLotTest, MatchingRuleBlocksForeignPositives) {
  // In the upstream-bottleneck case CP2 stays below q0 and would emit
  // positive feedback -- but group A's tags carry CP1's id, so CP2 sends
  // them nothing (and B, untagged by CP2 unless it congests, likewise).
  ParkingLotConfig cfg;
  cfg.capacity1 = 2e9;
  cfg.initial_rate = 2e9;  // CP2 exactly full: never congests
  const auto r = run_parking_lot(cfg);
  EXPECT_EQ(r.cp2_negatives, 0u);
  EXPECT_EQ(r.cp2_positives, 0u);  // nothing tagged with CPID 2
  EXPECT_GT(r.cp1_positives, 0u);  // CP1 recovers its own flows
}

TEST(ParkingLotTest, DeterministicAcrossRuns) {
  ParkingLotConfig cfg;
  const auto a = run_parking_lot(cfg);
  const auto b = run_parking_lot(cfg);
  EXPECT_DOUBLE_EQ(a.group_a_rate, b.group_a_rate);
  EXPECT_EQ(a.cp2_negatives, b.cp2_negatives);
}

// Trajectory pins: one FNV-1a digest over every ParkingLotResult field
// per scenario (see multihop_test.cpp).
std::uint64_t digest(const ParkingLotResult& r) {
  return testing::Digest()
      .add(r.group_a_rate)
      .add(r.group_b_rate)
      .add(r.cp1_peak_queue)
      .add(r.cp2_peak_queue)
      .add(r.cp1_negatives)
      .add(r.cp2_negatives)
      .add(r.cp1_positives)
      .add(r.cp2_positives)
      .add(r.group_a_on_cp1)
      .add(r.group_a_on_cp2)
      .add(r.drops)
      .add(static_cast<std::uint64_t>(r.events_executed))
      .add(r.fault_counters)
      .value();
}

ParkingLotConfig upstream_bottleneck() {
  ParkingLotConfig cfg;
  cfg.capacity1 = 2e9;
  cfg.initial_rate = 2.5e9;
  return cfg;
}

TEST(ParkingLotTest, SharedBottleneckMatchesPinnedDigest) {
  EXPECT_EQ(digest(run_parking_lot(ParkingLotConfig{})),
            0x221dc7fb29aad594ull);
}

TEST(ParkingLotTest, UpstreamBottleneckMatchesPinnedDigest) {
  EXPECT_EQ(digest(run_parking_lot(upstream_bottleneck())),
            0x4293fdc07af2e589ull);
}

TEST(ParkingLotTest, ArmedFaultsMatchPinnedDigest) {
  ParkingLotConfig cfg = upstream_bottleneck();
  const auto plan = parse_fault_plan(
      "bcn_drop=0.2,bcn_dup=0.1,bcn_delay=0.3:100us,data_drop=0.01,"
      "flap=10ms+2ms/30ms+1ms");
  ASSERT_TRUE(plan);
  cfg.faults = *plan;
  const ParkingLotResult r = run_parking_lot(cfg);
  EXPECT_GT(r.fault_counters.bcn_dropped, 0u);
  EXPECT_GT(r.fault_counters.bcn_delayed, 0u);
  EXPECT_GT(r.fault_counters.data_dropped, 0u);
  EXPECT_EQ(r.fault_counters.link_flaps, 2u);
  EXPECT_EQ(digest(r), 0x1077705c01ac23daull);
}

}  // namespace
}  // namespace bcn::sim
