#include "sim/source.h"

#include <vector>

#include <gtest/gtest.h>

#include "recorder.h"

namespace bcn::sim {
namespace {

using testing::Recorder;

SourceConfig basic_config() {
  SourceConfig c;
  c.id = 4;
  c.frame_bits = 12000.0;
  c.initial_rate = 1e9;  // 12 us per frame
  c.regulator.min_rate = 1e6;
  c.regulator.max_rate = 10e9;
  return c;
}

TEST(SourceTest, PacesAtConfiguredRate) {
  Simulator sim;
  Source src(sim, basic_config());
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(120 * kMicrosecond);
  for (const Frame& f : rec.frames()) {
    EXPECT_EQ(f.source, 4u);
    EXPECT_DOUBLE_EQ(f.size_bits, 12000.0);
  }
  // 1 Gbps, 12000-bit frames: one every 12 us -> ~11 frames in 120 us.
  const std::vector<SimTime> times = rec.times();
  ASSERT_GE(times.size(), 10u);
  EXPECT_EQ(times[1] - times[0], 12 * kMicrosecond);
  EXPECT_EQ(times[2] - times[1], 12 * kMicrosecond);
}

TEST(SourceTest, FramesCarrySequentialSeq) {
  Simulator sim;
  Source src(sim, basic_config());
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(60 * kMicrosecond);
  const std::vector<Frame>& frames = rec.frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].seq, i);
  }
  EXPECT_EQ(src.frames_sent(), frames.size());
}

TEST(SourceTest, NegativeBcnSlowsPacing) {
  Simulator sim;
  Source src(sim, basic_config());
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(24 * kMicrosecond);
  const std::size_t before = rec.frames().size();
  // Halve-ish the rate via a strong negative sigma.
  BcnMessage msg{1, 4, -88723.0, 0};  // exp(gd*sigma*dt) shaped by dt
  src.on_bcn(msg);
  sim.run_until(240 * kMicrosecond);
  const double late_rate = src.rate();
  EXPECT_LT(late_rate, 1e9);
  EXPECT_GT(rec.frames().size(), before);  // still sending, just slower
}

TEST(SourceTest, RrtTagAppearsAfterAssociation) {
  Simulator sim;
  Source src(sim, basic_config());
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(20 * kMicrosecond);
  EXPECT_FALSE(rec.frames().back().has_rrt);
  src.on_bcn({9, 4, -1000.0, 0});
  sim.run_until(60 * kMicrosecond);
  EXPECT_TRUE(rec.frames().back().has_rrt);
  EXPECT_EQ(src.regulator().cpid(), 9u);
}

TEST(SourceTest, PauseSuspendsTransmission) {
  Simulator sim;
  Source src(sim, basic_config());
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(12 * kMicrosecond);
  const auto before = rec.frames().size();
  src.on_pause({100 * kMicrosecond, sim.now()});
  sim.run_until(100 * kMicrosecond);
  EXPECT_EQ(rec.frames().size(), before);  // nothing during the pause window
  sim.run_until(200 * kMicrosecond);
  EXPECT_GT(rec.frames().size(), before);  // resumed afterwards
}

TEST(SourceTest, OverlappingPausesExtendNotShorten) {
  Simulator sim;
  Source src(sim, basic_config());
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(kMicrosecond);
  src.on_pause({100 * kMicrosecond, sim.now()});
  sim.run_until(2 * kMicrosecond);
  src.on_pause({10 * kMicrosecond, sim.now()});  // shorter: must not shrink
  const auto before = rec.frames().size();
  sim.run_until(100 * kMicrosecond);
  EXPECT_EQ(rec.frames().size(), before);
}

TEST(SourceTest, StartDelayHonored) {
  Simulator sim;
  SourceConfig c = basic_config();
  c.start_at = 50 * kMicrosecond;
  Source src(sim, c);
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(200 * kMicrosecond);
  ASSERT_FALSE(rec.entries().empty());
  EXPECT_GE(rec.entries().front().at, 50 * kMicrosecond);
}

}  // namespace
}  // namespace bcn::sim
