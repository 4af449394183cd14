// Determinism of the discrete-event core (satellite of the event-queue
// rewrite): simultaneous events fire in scheduling order, and a fixed-seed
// single-hop run produces byte-identical SimStats every time.  The pinned
// digest is the regression anchor for "the rewrite must not change packet
// trajectories" -- it was captured on the pre-rewrite scheduler and must
// survive every future optimization of the event core.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.h"

namespace bcn::sim {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The packet_vs_fluid-style reference scenario: 5 sources into one 10G
// bottleneck, paper-table BCN parameters, 40 ms horizon.
NetworkConfig reference_config() {
  core::BcnParams p;
  p.num_sources = 5;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  NetworkConfig cfg;
  cfg.params = p;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.record_interval = 20 * kMicrosecond;
  return cfg;
}

struct RunDigest {
  std::uint64_t hash = 0;
  Counters counters;
  std::size_t events_executed = 0;
};

RunDigest run_reference() {
  Network net(reference_config());
  net.run(from_seconds(0.04));
  RunDigest d;
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& tp : net.stats().trace()) h = fnv1a(h, &tp, sizeof(tp));
  h = fnv1a(h, &net.stats().counters, sizeof(net.stats().counters));
  d.hash = h;
  d.counters = net.stats().counters;
  d.events_executed = net.simulator().executed();
  return d;
}

TEST(DeterminismTest, SimultaneousEventsFireInSchedulingOrder) {
  // Tags name the expected firing position.  The t=7 event (tag 1)
  // schedules one more t=10 tie from its handler (tag 5).
  class Recorder : public EventTarget {
   public:
    explicit Recorder(Simulator& sim) : sim_(sim) {}
    void on_event(const SimEvent& event) override {
      order_.push_back(static_cast<int>(event.tag));
      if (event.tag == 1) sim_.schedule_event(10, this, EventKind::Tick, 5);
    }
    const std::vector<int>& order() const { return order_; }

   private:
    Simulator& sim_;
    std::vector<int> order_;
  };

  Simulator sim;
  Recorder rec(sim);
  // Schedule out of time order, with a burst of ties at t=10; ties must
  // fire in the order they were scheduled, regardless of heap shape.
  sim.schedule_event(10, &rec, EventKind::Tick, 2);
  sim.schedule_event(5, &rec, EventKind::Tick, 0);
  sim.schedule_event(10, &rec, EventKind::Tick, 3);
  sim.schedule_event(10, &rec, EventKind::Tick, 4);
  // Scheduled from a handler, still lands behind the earlier t=10 ties.
  sim.schedule_event(7, &rec, EventKind::Tick, 1);
  sim.run_until(100);
  EXPECT_EQ(rec.order(), (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(DeterminismTest, FixedSeedRunsAreByteIdentical) {
  const RunDigest a = run_reference();
  const RunDigest b = run_reference();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(DeterminismTest, ReferenceTrajectoryMatchesPinnedDigest) {
  const RunDigest d = run_reference();
  // Captured on the pre-rewrite scheduler; identical trajectories are the
  // acceptance bar for every event-core change.
  EXPECT_EQ(d.hash, 0x521a746626762d88ull);
  EXPECT_EQ(d.counters.frames_sent, 33540u);
  EXPECT_EQ(d.counters.frames_delivered, 33332u);
  EXPECT_EQ(d.counters.frames_dropped, 0u);
  EXPECT_EQ(d.counters.frames_sampled, 6707u);
  EXPECT_EQ(d.counters.bcn_positive, 4376u);
  EXPECT_EQ(d.counters.bcn_negative, 2183u);
  EXPECT_EQ(d.counters.pause_frames, 0u);
  EXPECT_DOUBLE_EQ(d.counters.bits_delivered, 399984000.0);
  EXPECT_EQ(d.events_executed, 108970u);
}

}  // namespace
}  // namespace bcn::sim
