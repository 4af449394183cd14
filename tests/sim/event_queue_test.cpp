#include "sim/event_queue.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "recorder.h"

namespace bcn::sim {
namespace {

using testing::Recorder;

TEST(SimTimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(kMicrosecond), 1e-6);
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(from_seconds(to_seconds(12345)), 12345);
}

TEST(SimTimeTest, TransmissionTimeRoundsUp) {
  // 12000 bits at 10 Gbps = 1200 ns exactly.
  EXPECT_EQ(transmission_time(12000.0, 10e9), 1200);
  // 1 bit at 10 Gbps = 0.1 ns -> rounds up to 1 ns.
  EXPECT_EQ(transmission_time(1.0, 10e9), 1);
  EXPECT_EQ(transmission_time(0.0, 10e9), 0);
  // Zero rate never completes (huge sentinel).
  EXPECT_GT(transmission_time(1.0, 0.0), kSecond);
}

// Tags carry the expected firing position, so a recorder's tag sequence
// is the observed order.
std::vector<std::uint32_t> tags(const Recorder& rec) {
  std::vector<std::uint32_t> out;
  for (const Recorder::Entry& e : rec.entries()) out.push_back(e.tag);
  return out;
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_event(30, &rec, EventKind::Tick, 3);
  sim.schedule_event(10, &rec, EventKind::Tick, 1);
  sim.schedule_event(20, &rec, EventKind::Tick, 2);
  sim.run_until(100);
  EXPECT_EQ(tags(rec), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, SimultaneousEventsFifo) {
  Simulator sim;
  Recorder rec(sim);
  for (std::uint32_t i = 0; i < 5; ++i) {
    sim.schedule_event(10, &rec, EventKind::Tick, i);
  }
  sim.run_until(10);
  EXPECT_EQ(tags(rec), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.schedule_event(20, &rec, EventKind::Tick, 1);
  sim.run_until(15);
  EXPECT_EQ(rec.entries().size(), 1u);
  EXPECT_EQ(sim.now(), 15);
  sim.run_until(25);
  EXPECT_EQ(rec.entries().size(), 2u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  Recorder rec(sim);
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.schedule_event(20, &rec, EventKind::Tick, 1);
  sim.cancel(id);
  sim.run_until(100);
  EXPECT_EQ(tags(rec), (std::vector<std::uint32_t>{1}));
}

TEST(SimulatorTest, CancelInvalidAndFiredIsNoop) {
  Simulator sim;
  Recorder rec(sim);
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.run_until(50);
  sim.cancel(id);             // already fired
  sim.cancel(kInvalidEvent);  // invalid handle
  EXPECT_EQ(rec.entries().size(), 1u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EventsScheduledInPastClampToNow) {
  Simulator sim;
  Recorder rec(sim);
  sim.run_until(50);
  sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.run_until(60);
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{50}));
}

TEST(SimulatorTest, EventsCanScheduleChains) {
  // Each firing schedules the next link 5 ns after the current time.
  class Chain : public EventTarget {
   public:
    explicit Chain(Simulator& sim) : sim_(sim) {}
    void on_event(const SimEvent&) override {
      fired_at_.push_back(sim_.now());
      if (fired_at_.size() < 10) {
        sim_.schedule_event(sim_.now() + 5, this, EventKind::Tick, 0);
      }
    }
    const std::vector<SimTime>& fired_at() const { return fired_at_; }

   private:
    Simulator& sim_;
    std::vector<SimTime> fired_at_;
  };

  Simulator sim;
  Chain chain(sim);
  sim.schedule_event(0, &chain, EventKind::Tick, 0);
  const std::size_t executed = sim.run_until(1000);
  ASSERT_EQ(chain.fired_at().size(), 10u);
  EXPECT_EQ(chain.fired_at().back(), 45);
  EXPECT_EQ(executed, 10u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, IdleReflectsLiveEvents) {
  Simulator sim;
  Recorder rec(sim);
  EXPECT_TRUE(sim.idle());
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  EXPECT_FALSE(sim.idle());
  sim.cancel(id);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace bcn::sim
