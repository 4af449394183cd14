// The congestion-rollback (victim flow) scenario from the paper's
// introduction: hop-by-hop PAUSE spreads congestion to innocent flows;
// BCN confines it to the culprits.
#include <string>

#include <gtest/gtest.h>

#include "digest.h"
#include "sim/multihop.h"
#include "sim/stats.h"

namespace bcn::sim {
namespace {

TEST(MultihopTest, PauseOnlyCollapsesVictim) {
  MultihopConfig cfg;
  cfg.enable_pause = true;
  cfg.enable_bcn = false;
  const auto r = run_victim_scenario(cfg);
  // The victim shares E1 with the culprits and gets paused along with
  // them: it loses the overwhelming majority of its 1 Gbps.
  EXPECT_LT(r.victim_throughput, 0.2 * cfg.offered_rate);
  // PAUSE rolled back both hops.
  EXPECT_GT(r.pauses_core_to_edge, 0u);
  EXPECT_GT(r.pauses_edge_to_sources, 0u);
  // The hot port itself stays fully utilized.
  EXPECT_GT(r.culprit_throughput, 0.9 * cfg.hot_rate);
}

TEST(MultihopTest, BcnRestoresVictim) {
  MultihopConfig cfg;
  cfg.enable_pause = true;
  cfg.enable_bcn = true;
  const auto r = run_victim_scenario(cfg);
  EXPECT_GT(r.victim_throughput, 0.9 * cfg.offered_rate);
  EXPECT_GT(r.bcn_messages, 0u);
  // After convergence PAUSE stops firing toward the sources.
  EXPECT_EQ(r.pauses_edge_to_sources, 0u);
  EXPECT_GT(r.culprit_throughput, 0.9 * cfg.hot_rate);
}

TEST(MultihopTest, BcnOnlyAlsoProtectsVictim) {
  MultihopConfig cfg;
  cfg.enable_pause = false;
  cfg.enable_bcn = true;
  const auto r = run_victim_scenario(cfg);
  EXPECT_GT(r.victim_throughput, 0.9 * cfg.offered_rate);
  EXPECT_EQ(r.pauses_core_to_edge, 0u);
  EXPECT_EQ(r.pauses_edge_to_sources, 0u);
}

TEST(MultihopTest, EdgeQueueStaysSmallWithBcn) {
  MultihopConfig with_pause;
  with_pause.enable_pause = true;
  with_pause.enable_bcn = false;
  MultihopConfig with_bcn;
  with_bcn.enable_pause = false;
  with_bcn.enable_bcn = true;
  const auto rp = run_victim_scenario(with_pause);
  const auto rb = run_victim_scenario(with_bcn);
  // PAUSE pushes the backlog into E1; BCN keeps it at the congested port.
  EXPECT_GT(rp.edge_peak_queue, 5.0 * rb.edge_peak_queue);
}

TEST(MultihopTest, NoCongestionNoInterference) {
  MultihopConfig cfg;
  cfg.num_culprits = 2;        // 2 Gbps offered into... a fast hot port
  cfg.hot_rate = 10e9;         // no bottleneck at all
  cfg.enable_pause = true;
  cfg.enable_bcn = true;
  const auto r = run_victim_scenario(cfg);
  EXPECT_GT(r.victim_throughput, 0.95 * cfg.offered_rate);
  EXPECT_EQ(r.core_drops, 0u);
  EXPECT_EQ(r.edge_drops, 0u);
  EXPECT_EQ(r.pauses_core_to_edge, 0u);
}

TEST(MultihopTest, DeterministicAcrossRuns) {
  MultihopConfig cfg;
  const auto a = run_victim_scenario(cfg);
  const auto b = run_victim_scenario(cfg);
  EXPECT_DOUBLE_EQ(a.victim_throughput, b.victim_throughput);
  EXPECT_EQ(a.pauses_edge_to_sources, b.pauses_edge_to_sources);
}

// Trajectory pins: one FNV-1a digest over every MultihopResult field per
// scenario, so a change to the ports, sources or wiring that moves any
// packet shows up here even when the shape checks above still pass.
std::uint64_t digest(const MultihopResult& r) {
  return testing::Digest()
      .add(r.victim_throughput)
      .add(r.culprit_throughput)
      .add(r.core_drops)
      .add(r.edge_drops)
      .add(r.pauses_core_to_edge)
      .add(r.pauses_edge_to_sources)
      .add(r.bcn_messages)
      .add(r.edge_peak_queue)
      .add(r.hot_peak_queue)
      .add(static_cast<std::uint64_t>(r.events_executed))
      .add(r.fault_counters)
      .value();
}

MultihopConfig mode(bool pause, bool bcn) {
  MultihopConfig cfg;
  cfg.enable_pause = pause;
  cfg.enable_bcn = bcn;
  return cfg;
}

MultihopConfig with_faults(MultihopConfig cfg, const std::string& spec) {
  const auto plan = parse_fault_plan(spec);
  EXPECT_TRUE(plan) << spec;
  if (plan) cfg.faults = *plan;
  return cfg;
}

TEST(MultihopTest, PauseOnlyMatchesPinnedDigest) {
  EXPECT_EQ(digest(run_victim_scenario(mode(true, false))),
            0xa30237ba6202ae34ull);
}

TEST(MultihopTest, PauseAndBcnMatchesPinnedDigest) {
  EXPECT_EQ(digest(run_victim_scenario(mode(true, true))),
            0xadbce50bfd781c50ull);
}

TEST(MultihopTest, BcnOnlyMatchesPinnedDigest) {
  EXPECT_EQ(digest(run_victim_scenario(mode(false, true))),
            0x7343107bbaa9eeb8ull);
}

TEST(MultihopTest, ReversePathFaultsMatchPinnedDigest) {
  const MultihopConfig cfg =
      with_faults(mode(true, true), "pause_drop=0.5,bcn_drop=0.2");
  const MultihopResult r = run_victim_scenario(cfg);
  EXPECT_GT(r.fault_counters.pause_dropped, 0u);
  EXPECT_GT(r.fault_counters.bcn_dropped, 0u);
  EXPECT_EQ(digest(r), 0x4e3886417804ff02ull);
}

TEST(MultihopTest, ForwardLinkFaultsMatchPinnedDigest) {
  const MultihopConfig cfg = with_faults(
      mode(true, true), "data_drop=0.01,flap=10ms+2ms/30ms+1ms");
  const MultihopResult r = run_victim_scenario(cfg);
  EXPECT_EQ(r.fault_counters.link_flaps, 2u);
  EXPECT_GT(r.fault_counters.flap_dropped, 0u);
  EXPECT_GT(r.fault_counters.data_dropped, 0u);
  EXPECT_EQ(digest(r), 0xc83e328ce74a42f0ull);
}

// The observed PAUSE + BCN run (E15's artifact run): its causal event
// trace and sigma histogram, row by row.
TEST(MultihopTest, ObservedTraceMatchesPinnedDigest) {
  SimStats observed;
  MultihopConfig cfg = mode(true, true);
  cfg.observer = &observed;
  run_victim_scenario(cfg);
  testing::Digest d;
  for (const obs::TraceEvent& e : observed.events().events()) d.add(e);
  d.add(observed.sigma_histogram());
  EXPECT_GT(observed.events().size(), 0u);
  EXPECT_EQ(d.value(), 0x2e7ef68db8446c78ull);
}

// The observed run's SimStats carries the run's real counters: port
// tallies summed over the edge, hot and cold ports, deliveries (frames,
// bits, per-source bits) only where frames leave the fabric -- the hot
// and cold ports -- and frames_sent over the sources.
TEST(MultihopTest, ObservedRunReportsItsCounters) {
  SimStats observed;
  MultihopConfig cfg = mode(true, true);
  cfg.observer = &observed;
  const MultihopResult r = run_victim_scenario(cfg);
  const Counters& c = observed.counters;
  EXPECT_GT(r.bcn_messages, 0u);
  EXPECT_EQ(c.bcn_negative, r.bcn_messages);
  EXPECT_EQ(c.bcn_positive, 0u);
  EXPECT_GT(r.pauses_core_to_edge, 0u);
  EXPECT_EQ(c.pause_frames, r.pauses_core_to_edge + r.pauses_edge_to_sources);
  EXPECT_EQ(c.frames_dropped, r.core_drops + r.edge_drops);
  EXPECT_EQ(c.frames_sampled, observed.sigma_histogram().count());

  const double seconds = to_seconds(cfg.duration);
  const double exit_bits =
      (r.victim_throughput + r.culprit_throughput) * seconds;
  EXPECT_NEAR(c.bits_delivered, exit_bits, 1e-9 * exit_bits);
  EXPECT_DOUBLE_EQ(c.bits_delivered,
                   static_cast<double>(c.frames_delivered) * cfg.frame_bits);
  double per_source = 0.0;
  for (const auto& [id, bits] : observed.per_source_bits_sorted()) {
    per_source += bits;
  }
  EXPECT_DOUBLE_EQ(per_source, c.bits_delivered);
  EXPECT_EQ(observed.delivered_source_count(),
            static_cast<std::size_t>(cfg.num_culprits + 1));
  EXPECT_GT(c.frames_sent, 0u);
  EXPECT_LE(c.frames_delivered, c.frames_sent);
  // The victim out-delivers each culprit: the allocation is not fair.
  EXPECT_LT(observed.jain_fairness_index(), 1.0);
}

}  // namespace
}  // namespace bcn::sim
