// Flow churn: the fluid model holds N constant; these tests exercise
// on/off traffic where the active-flow count varies, and check that a
// buffer sized by Theorem 1 for the worst-case N stays strongly stable.
#include <gtest/gtest.h>

#include "recorder.h"
#include "sim/network.h"

namespace bcn::sim {
namespace {

using testing::Recorder;

TEST(OnOffSourceTest, RespectsDutyCycle) {
  Simulator sim;
  SourceConfig sc;
  sc.id = 0;
  sc.initial_rate = 1e9;  // 12 us/frame
  sc.pattern = TrafficPattern::OnOff;
  sc.on_time = 1 * kMillisecond;
  sc.off_time = 1 * kMillisecond;
  sc.regulator.max_rate = 1e9;
  Source src(sim, sc);
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(4 * kMillisecond);
  ASSERT_FALSE(rec.entries().empty());
  int in_on = 0, in_off = 0;
  for (const SimTime t : rec.times()) {
    const SimTime phase = t % (2 * kMillisecond);
    (phase < kMillisecond ? in_on : in_off)++;
  }
  EXPECT_GT(in_on, 100);   // ~83 frames per on-window x 2 windows
  EXPECT_EQ(in_off, 0);    // nothing during silences
}

TEST(OnOffSourceTest, SaturatingIgnoresOnOffKnobs) {
  Simulator sim;
  SourceConfig sc;
  sc.initial_rate = 1e9;
  sc.pattern = TrafficPattern::Saturating;
  sc.on_time = kMillisecond;
  sc.off_time = kMillisecond;
  sc.regulator.max_rate = 1e9;
  Source src(sim, sc);
  Recorder rec(sim);
  src.start(rec.link());
  sim.run_until(4 * kMillisecond);
  EXPECT_GT(rec.frames().size(), 300u);  // continuous ~83 frames/ms
}

TEST(ChurnTest, WorstCaseSizedBufferSurvivesChurn) {
  // Buffer sized per Theorem 1 for the full N = 20: with half the flows
  // silent at any moment the effective N is smaller and the criterion
  // only gets safer -- no drops, queue bounded.
  NetworkConfig cfg;
  core::BcnParams p;
  p.num_sources = 20;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.pm = 0.2;
  p.gi = 0.5;
  p.buffer = 1.2 * p.theorem1_required_buffer();
  p.qsc = 0.95 * p.buffer;
  cfg.params = p;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.pattern = TrafficPattern::OnOff;
  cfg.on_time = 4 * kMillisecond;
  cfg.off_time = 4 * kMillisecond;
  cfg.stagger = 400 * kMicrosecond;  // interleaved duty cycles
  Network net(cfg);
  net.run(60 * kMillisecond);
  const auto& st = net.stats();
  EXPECT_EQ(st.counters.frames_dropped, 0u);
  EXPECT_LT(st.max_queue(), p.buffer);
  EXPECT_GT(st.counters.frames_delivered, 0u);
}

TEST(ChurnTest, ChurnPerturbsQueueMoreThanSteadyTraffic) {
  auto late_excursion = [](TrafficPattern pattern) {
    NetworkConfig cfg;
    core::BcnParams p;
    p.num_sources = 10;
    p.capacity = 10e9;
    p.q0 = 2.5e6;
    p.buffer = 30e6;
    p.qsc = 28e6;
    p.pm = 0.2;
    p.gi = 0.5;
    cfg.params = p;
    cfg.initial_rate = p.capacity / p.num_sources;
    cfg.pattern = pattern;
    cfg.on_time = 3 * kMillisecond;
    cfg.off_time = 3 * kMillisecond;
    cfg.stagger = 300 * kMicrosecond;
    Network net(cfg);
    net.run(60 * kMillisecond);
    double lo = 1e18, hi = -1e18;
    for (const auto& tp : net.stats().trace()) {
      if (tp.t < 30 * kMillisecond) continue;
      lo = std::min(lo, tp.queue_bits);
      hi = std::max(hi, tp.queue_bits);
    }
    return hi - lo;
  };
  EXPECT_GT(late_excursion(TrafficPattern::OnOff),
            1.5 * late_excursion(TrafficPattern::Saturating));
}

TEST(ChurnTest, StaggeredStartsDelaySources) {
  NetworkConfig cfg;
  core::BcnParams p;
  p.num_sources = 4;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  cfg.params = p;
  cfg.initial_rate = 1e9;
  cfg.stagger = 5 * kMillisecond;
  Network net(cfg);
  net.run(2 * kMillisecond);
  // Only source 0 has started.
  std::uint64_t active = 0;
  for (const auto& src : net.sources()) {
    if (src->frames_sent() > 0) ++active;
  }
  EXPECT_EQ(active, 1u);
}

}  // namespace
}  // namespace bcn::sim
