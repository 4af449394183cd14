#include "sim/switch_port.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "recorder.h"

namespace bcn::sim {
namespace {

using testing::Recorder;

Frame make_frame(SourceId src = 0, double bits = 12000.0, bool rrt = false,
                 CongestionPointId cpid = 1) {
  Frame f;
  f.source = src;
  f.size_bits = bits;
  f.has_rrt = rrt;
  f.rrt_cpid = cpid;
  return f;
}

// A port with its BCN and PAUSE outputs recorded over zero-delay links
// and no sink, so departures are deliveries.
struct Harness {
  explicit Harness(SwitchPortConfig c,
                   PacketMechanism* mechanism = &default_bcn_mechanism())
      : port(sim, c, stats) {
    port.set_mechanism(mechanism);
    port.set_bcn_sender(rec.link());
    port.set_pause_sender(rec.link());
  }

  Simulator sim;
  SimStats stats;
  Recorder rec{sim};
  SwitchPort port;
};

// The paper's congestion point in miniature.
SwitchPortConfig small_config() {
  SwitchPortConfig c;
  c.cpid = 1;
  c.capacity = 1e9;
  c.buffer_bits = 120000.0;      // 10 frames
  c.q0 = 60000.0;                // 5 frames
  c.pause_threshold = 96000.0;   // qsc: 8 frames
  c.w = 2.0;
  c.pm = 0.5;  // sample every 2nd frame
  c.positive_requires_rrt = false;
  return c;
}

TEST(SwitchPortTest, EnqueueAndDrain) {
  Harness h(small_config());
  h.port.on_frame(make_frame(0));
  EXPECT_DOUBLE_EQ(h.port.queue_bits(), 12000.0);
  // Drain at 1 Gbps: 12 us per frame.
  h.sim.run_until(12 * kMicrosecond);
  EXPECT_DOUBLE_EQ(h.port.queue_bits(), 0.0);
  EXPECT_EQ(h.stats.counters.frames_delivered, 1u);
  EXPECT_DOUBLE_EQ(h.stats.counters.bits_delivered, 12000.0);
}

TEST(SwitchPortTest, DropsWhenBufferFull) {
  Harness h(small_config());
  for (int i = 0; i < 12; ++i) h.port.on_frame(make_frame(0));
  // 10 fit (120000 bits), 2 dropped.
  EXPECT_EQ(h.stats.counters.frames_enqueued, 10u);
  EXPECT_EQ(h.stats.counters.frames_dropped, 2u);
  EXPECT_DOUBLE_EQ(h.port.queue_bits(), 120000.0);
}

TEST(SwitchPortTest, SamplesEveryNthFrame) {
  Harness h(small_config());  // pm = 0.5 -> every 2nd
  for (int i = 0; i < 10; ++i) h.port.on_frame(make_frame(0));
  EXPECT_EQ(h.stats.counters.frames_sampled, 5u);
}

TEST(SwitchPortTest, NegativeBcnWhenCongested) {
  Harness h(small_config());
  // Fill to 8 frames quickly: q = 96000 > q0 = 60000, delta_q > 0 ->
  // sigma < 0 on the later samples.
  for (int i = 0; i < 8; ++i) h.port.on_frame(make_frame(3));
  h.rec.flush();
  EXPECT_GT(h.stats.counters.bcn_negative, 0u);
  ASSERT_FALSE(h.rec.bcn().empty());
  EXPECT_EQ(h.rec.bcn().back().target, 3u);
  EXPECT_LT(h.rec.bcn().back().sigma, 0.0);
  EXPECT_EQ(h.rec.bcn().back().cpid, 1u);
}

TEST(SwitchPortTest, SigmaFollowsEq1) {
  Harness h(small_config());
  // First two arrivals: sample fires on the 2nd with q = 12000 (one frame
  // enqueued before sampling of the 2nd happens pre-enqueue), delta_q =
  // 12000 - 0.  sigma = (q0 - q) - w dq = (60000-12000) - 2*12000 = 24000.
  h.port.on_frame(make_frame(0));
  h.port.on_frame(make_frame(0));
  h.rec.flush();
  ASSERT_EQ(h.rec.bcn().size(), 1u);
  EXPECT_DOUBLE_EQ(h.rec.bcn()[0].sigma, 24000.0);
}

TEST(SwitchPortTest, PositiveBcnOnlyBelowQ0) {
  Harness h(small_config());
  h.port.on_frame(make_frame(5));
  h.port.on_frame(make_frame(5));  // sampled: q = 12000 < q0, sigma > 0
  h.rec.flush();
  ASSERT_EQ(h.rec.bcn().size(), 1u);
  EXPECT_GT(h.rec.bcn()[0].sigma, 0.0);
  EXPECT_EQ(h.stats.counters.bcn_positive, 1u);
}

TEST(SwitchPortTest, PositiveRequiresRrtWhenConfigured) {
  SwitchPortConfig c = small_config();
  c.positive_requires_rrt = true;
  Harness h(c);
  h.port.on_frame(make_frame(0));
  h.port.on_frame(make_frame(0));  // sampled, untagged -> no positive BCN
  h.rec.flush();
  EXPECT_TRUE(h.rec.bcn().empty());
  // Tagged frame with matching CPID gets positive feedback.
  h.port.on_frame(make_frame(0, 12000.0, true, 1));
  h.port.on_frame(make_frame(0, 12000.0, true, 1));
  h.sim.run_until(80 * kMicrosecond);  // drain below q0
  h.port.on_frame(make_frame(0, 12000.0, true, 1));
  h.port.on_frame(make_frame(0, 12000.0, true, 1));
  EXPECT_GE(h.stats.counters.bcn_positive, 1u);
}

TEST(SwitchPortTest, MismatchedCpidGetsNoPositive) {
  SwitchPortConfig c = small_config();
  c.positive_requires_rrt = true;
  Harness h(c);
  h.port.on_frame(make_frame(0, 12000.0, true, 99));
  h.port.on_frame(make_frame(0, 12000.0, true, 99));
  EXPECT_EQ(h.stats.counters.bcn_positive, 0u);
}

TEST(SwitchPortTest, PauseAboveQsc) {
  Harness h(small_config());
  for (int i = 0; i < 9; ++i) h.port.on_frame(make_frame(0));
  h.rec.flush();
  EXPECT_GE(h.stats.counters.pause_frames, 1u);
  ASSERT_FALSE(h.rec.pauses().empty());
  EXPECT_GT(h.rec.pauses()[0].duration, 0);
}

TEST(SwitchPortTest, PauseCooldownLimitsRate) {
  Harness h(small_config());
  for (int i = 0; i < 10; ++i) h.port.on_frame(make_frame(0));
  // All arrivals above qsc land within the cooldown window.
  EXPECT_EQ(h.stats.counters.pause_frames, 1u);
}

TEST(SwitchPortTest, PauseDisabled) {
  SwitchPortConfig c = small_config();
  c.pause_threshold = 0.0;
  Harness h(c);
  for (int i = 0; i < 10; ++i) h.port.on_frame(make_frame(0));
  h.rec.flush();
  EXPECT_EQ(h.stats.counters.pause_frames, 0u);
  EXPECT_TRUE(h.rec.pauses().empty());
}

TEST(SwitchPortTest, ServiceKeepsDrainingBackToBack) {
  Harness h(small_config());
  for (int i = 0; i < 5; ++i) h.port.on_frame(make_frame(0));
  h.sim.run_until(60 * kMicrosecond);  // 5 frames x 12 us
  EXPECT_EQ(h.stats.counters.frames_delivered, 5u);
  EXPECT_DOUBLE_EQ(h.port.queue_bits(), 0.0);
}

TEST(SwitchPortTest, ForwardsToSink) {
  Simulator sim;
  SimStats stats;
  Recorder rec(sim);
  SwitchPortConfig cfg;
  cfg.capacity = 1e9;  // 12 us per frame
  SwitchPort port(sim, cfg, stats);
  port.set_sink(rec.link());
  port.on_frame(make_frame(3));
  port.on_frame(make_frame(4));
  sim.run_until(24 * kMicrosecond);
  ASSERT_EQ(rec.frames().size(), 2u);
  EXPECT_EQ(rec.frames()[0].source, 3u);
  EXPECT_EQ(rec.frames()[1].source, 4u);
  EXPECT_EQ(port.counters().frames_delivered, 2u);
  // Forwarded frames have not left the fabric: the shared stats count no
  // delivery and no per-source bits.
  EXPECT_EQ(stats.counters.frames_delivered, 0u);
  EXPECT_TRUE(stats.per_source_bits_sorted().empty());
}

TEST(SwitchPortTest, DropTail) {
  Simulator sim;
  SimStats stats;
  SwitchPortConfig cfg;
  cfg.capacity = 1e9;
  cfg.buffer_bits = 24000.0;  // two frames
  SwitchPort port(sim, cfg, stats);
  for (int i = 0; i < 4; ++i) port.on_frame(make_frame());
  EXPECT_EQ(port.counters().frames_enqueued, 2u);
  EXPECT_EQ(port.counters().frames_dropped, 2u);
}

TEST(SwitchPortTest, PauseStopsServiceAndResumes) {
  Simulator sim;
  SimStats stats;
  Recorder rec(sim);
  SwitchPortConfig cfg;
  cfg.capacity = 1e9;
  SwitchPort port(sim, cfg, stats);
  port.set_sink(rec.link());
  port.on_frame(make_frame());
  port.on_frame(make_frame());
  // Pause arrives mid-service of the first frame: the in-flight frame
  // completes (it is already on the wire), the second one must wait.
  sim.run_until(5 * kMicrosecond);
  port.on_pause({100 * kMicrosecond, sim.now()});
  sim.run_until(100 * kMicrosecond);
  ASSERT_EQ(rec.frames().size(), 1u);  // only the in-flight frame got out
  EXPECT_EQ(rec.entries()[0].at, 12 * kMicrosecond);
  sim.run_until(200 * kMicrosecond);
  ASSERT_EQ(rec.frames().size(), 2u);  // resumed after the pause window
  EXPECT_GE(rec.entries()[1].at, 105 * kMicrosecond);
}

TEST(SwitchPortTest, UpstreamPauseFiresAtThreshold) {
  Simulator sim;
  SimStats stats;
  Recorder rec(sim);
  SwitchPortConfig cfg;
  cfg.capacity = 1e6;  // slow drain so the queue builds
  cfg.buffer_bits = 1e6;
  cfg.pause_threshold = 48000.0;  // 4 frames
  SwitchPort port(sim, cfg, stats);
  port.set_pause_sender(rec.link());
  for (int i = 0; i < 3; ++i) port.on_frame(make_frame());
  rec.flush();
  EXPECT_TRUE(rec.pauses().empty());
  for (int i = 0; i < 3; ++i) port.on_frame(make_frame());
  rec.flush();
  EXPECT_EQ(rec.pauses().size(), 1u);  // cooldown limits to one
}

TEST(SwitchPortTest, QcnSendsNegativeOnly) {
  const std::unique_ptr<PacketMechanism> qcn = make_packet_mechanism("qcn");
  SwitchPortConfig cfg;
  cfg.capacity = 1e6;
  cfg.buffer_bits = 1e6;
  cfg.pm = 0.5;     // sample every 2nd frame
  cfg.q0 = 60000.0;  // first sample: sigma = 48000 - 2 * 12000 > 0
  cfg.cpid = 9;
  Harness h(cfg, qcn.get());
  for (int i = 0; i < 10; ++i) h.port.on_frame(make_frame(5));
  h.rec.flush();
  ASSERT_FALSE(h.rec.bcn().empty());
  EXPECT_EQ(h.rec.bcn().back().cpid, 9u);
  EXPECT_EQ(h.rec.bcn().back().target, 5u);
  EXPECT_LT(h.rec.bcn().back().sigma, 0.0);
  // Negative-only: the first sample (sigma > 0) sent nothing.
  EXPECT_EQ(h.port.counters().bcn_negative, h.rec.bcn().size());
  EXPECT_EQ(h.port.counters().bcn_positive, 0u);
  EXPECT_LT(h.rec.bcn().size(), h.port.counters().frames_sampled);
}

TEST(SwitchPortTest, NoBcnWhenSamplingDisabled) {
  SwitchPortConfig cfg;
  cfg.pm = 0.0;
  Harness h(cfg);
  for (int i = 0; i < 20; ++i) h.port.on_frame(make_frame());
  h.rec.flush();
  EXPECT_TRUE(h.rec.bcn().empty());
  EXPECT_EQ(h.stats.counters.frames_sampled, 0u);
}

// The bcn_delay fault holds a notification back by its extra delay on top
// of the link's propagation delay (zero here).
TEST(SwitchPortTest, BcnDelayFaultDelaysDelivery) {
  const auto plan = parse_fault_plan("bcn_delay=1:100us");
  ASSERT_TRUE(plan);
  FaultCounters fault_counters;
  FaultInjector faults(*plan, 1, &fault_counters);
  Harness h(small_config());
  h.port.set_fault_injector(&faults);
  h.port.on_frame(make_frame(0));
  h.port.on_frame(make_frame(0));  // sampled at t = 0
  h.rec.flush();
  EXPECT_TRUE(h.rec.bcn().empty());
  h.sim.run_until(100 * kMicrosecond);
  ASSERT_EQ(h.rec.bcn().size(), 1u);
  EXPECT_EQ(h.rec.entries().back().at, 100 * kMicrosecond);
  EXPECT_EQ(fault_counters.bcn_delayed, 1u);
}

}  // namespace
}  // namespace bcn::sim
