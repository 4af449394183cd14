// The typed-event pool and indexed heap: handle lifecycle, in-place
// cancel/reschedule, FIFO tie-breaking, slot recycling, the presorted
// lane and the delay FIFO beside the heap, and the zero-allocation
// steady state.
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "../support/metrics_export.h"
#include "alloc_counter.h"
#include "obs/metrics.h"
#include "recorder.h"
#include "sim/event_queue.h"

namespace bcn::sim {
namespace {

using testing::Recorder;

TEST(EventHeapTest, TypedEventsCarryKindTagAndPayload) {
  Simulator sim;
  Recorder rec(sim);

  Frame frame;
  frame.source = 7;
  frame.size_bits = 12000.0;
  frame.seq = 42;
  sim.schedule_frame(10, &rec, 1, frame);
  sim.run_until(10);
  ASSERT_EQ(rec.entries().size(), 1u);
  EXPECT_EQ(rec.last().kind, EventKind::FrameArrival);
  EXPECT_EQ(rec.last().tag, 1u);
  EXPECT_EQ(rec.last().payload.frame.source, 7u);
  EXPECT_EQ(rec.last().payload.frame.seq, 42u);

  BcnMessage bcn;
  bcn.target = 3;
  bcn.sigma = -1.5;
  sim.schedule_bcn(20, &rec, 2, bcn);
  sim.run_until(20);
  EXPECT_EQ(rec.last().kind, EventKind::BcnDelivery);
  EXPECT_EQ(rec.last().payload.bcn.target, 3u);
  EXPECT_DOUBLE_EQ(rec.last().payload.bcn.sigma, -1.5);

  PauseFrame pause;
  pause.duration = 999;
  sim.schedule_pause(30, &rec, 3, pause);
  sim.run_until(30);
  EXPECT_EQ(rec.last().kind, EventKind::PauseDelivery);
  EXPECT_EQ(rec.last().payload.pause.duration, 999);
}

TEST(EventHeapTest, CancelRemovesFromHeapImmediately) {
  Simulator sim;
  Recorder rec(sim);
  const EventId a = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.schedule_event(20, &rec, EventKind::Tick, 1);
  EXPECT_EQ(sim.heap_size(), 2u);
  sim.cancel(a);
  // In-place heap removal: no tombstone waits to be popped later.
  EXPECT_EQ(sim.heap_size(), 1u);
  EXPECT_EQ(sim.cancelled_count(), 1u);
  sim.run_until(100);
  ASSERT_EQ(rec.entries().size(), 1u);
  EXPECT_EQ(rec.entries()[0].tag, 1u);
}

// Regression: cancelling an event after it fired used to leave a tombstone
// in a cancelled-set that grew without bound.  Stale cancels must be
// no-ops and the pool must stay compact.
TEST(EventHeapTest, CancelAfterFireLeavesNoResidue) {
  Simulator sim;
  Recorder rec(sim);
  std::vector<EventId> fired_ids;
  for (int round = 0; round < 10'000; ++round) {
    const EventId id =
        sim.schedule_event(sim.now() + 1, &rec, EventKind::Tick, 0);
    sim.run_until(sim.now() + 1);
    sim.cancel(id);  // stale: event already fired
    sim.cancel(id);  // repeated stale cancel, still a no-op
  }
  EXPECT_EQ(sim.heap_size(), 0u);
  EXPECT_TRUE(sim.idle());
  // One live event at a time -> the slab never needed more than one slot,
  // and every slot is back on the free list.
  EXPECT_LE(sim.pool_slots(), 2u);
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
  // Stale cancels counted nothing.
  EXPECT_EQ(sim.cancelled_count(), 0u);
  EXPECT_EQ(sim.executed(), 10'000u);
}

TEST(EventHeapTest, RescheduleMovesEventInPlace) {
  Simulator sim;
  Recorder rec(sim);
  const EventId id = sim.schedule_event(100, &rec, EventKind::Tick, 0);
  sim.schedule_event(50, &rec, EventKind::Tick, 1);
  EXPECT_TRUE(sim.reschedule(id, 10));  // move ahead of the tag-1 event
  EXPECT_EQ(sim.heap_size(), 2u);      // moved, not re-inserted
  sim.run_until(200);
  ASSERT_EQ(rec.entries().size(), 2u);
  EXPECT_EQ(rec.entries()[0].tag, 0u);
  EXPECT_EQ(rec.entries()[0].at, 10);
  EXPECT_EQ(rec.entries()[1].tag, 1u);
  EXPECT_EQ(sim.rescheduled_count(), 1u);
}

TEST(EventHeapTest, RescheduleReentersFifoOrder) {
  Simulator sim;
  Recorder rec(sim);
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.schedule_event(10, &rec, EventKind::Tick, 1);
  // Rescheduling to the same instant is a cancel + fresh schedule: the
  // moved event now fires after the tag-1 event it originally preceded.
  EXPECT_TRUE(sim.reschedule(id, 10));
  sim.run_until(10);
  ASSERT_EQ(rec.entries().size(), 2u);
  EXPECT_EQ(rec.entries()[0].tag, 1u);
  EXPECT_EQ(rec.entries()[1].tag, 0u);
}

TEST(EventHeapTest, RescheduleStaleHandleFails) {
  Simulator sim;
  Recorder rec(sim);
  const EventId id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.run_until(10);
  EXPECT_FALSE(sim.reschedule(id, 20));
  const EventId cancelled = sim.schedule_event(30, &rec, EventKind::Tick, 1);
  sim.cancel(cancelled);
  EXPECT_FALSE(sim.reschedule(cancelled, 40));
  sim.run_until(100);
  EXPECT_EQ(rec.entries().size(), 1u);
}

// A recurring timer that re-arms from inside its own handler keeps one
// pool slot for its whole lifetime.
TEST(EventHeapTest, SelfRearmingTimerReusesItsSlot) {
  Simulator sim;

  class Timer : public EventTarget {
   public:
    explicit Timer(Simulator& sim) : sim_(sim) {}
    void start() { id_ = sim_.schedule_event(1, this, EventKind::Tick, 0); }
    void on_event(const SimEvent& event) override {
      ++ticks_;
      ASSERT_TRUE(sim_.reschedule(event.id, sim_.now() + 1));
    }
    int ticks() const { return ticks_; }

   private:
    Simulator& sim_;
    EventId id_ = kInvalidEvent;
    int ticks_ = 0;
  };

  Timer timer(sim);
  timer.start();
  sim.run_until(5000);
  EXPECT_EQ(timer.ticks(), 5000);
  EXPECT_EQ(sim.pool_slots(), 1u);
  EXPECT_EQ(sim.heap_size(), 1u);  // still armed
}

TEST(EventHeapTest, ArmReschedulesLiveAndSchedulesStale) {
  Simulator sim;
  Recorder rec(sim);
  EventId id = kInvalidEvent;
  // Stale/invalid handle: arm schedules fresh.
  id = sim.arm(id, 10, &rec, EventKind::Tick, 0);
  EXPECT_NE(id, kInvalidEvent);
  // Live handle: arm moves it, same handle stays valid.
  const EventId same = sim.arm(id, 20, &rec, EventKind::Tick, 0);
  EXPECT_EQ(same, id);
  sim.run_until(100);
  ASSERT_EQ(rec.entries().size(), 1u);
  EXPECT_EQ(rec.entries()[0].at, 20);
}

TEST(EventHeapTest, RecycledSlotStalesOldHandles) {
  Simulator sim;
  Recorder rec(sim);
  const EventId old_id = sim.schedule_event(10, &rec, EventKind::Tick, 0);
  sim.cancel(old_id);
  // The freed slot is reused; the old handle must not touch the new event.
  const EventId new_id = sim.schedule_event(20, &rec, EventKind::Tick, 1);
  sim.cancel(old_id);
  EXPECT_FALSE(sim.reschedule(old_id, 30));
  EXPECT_EQ(sim.heap_size(), 1u);
  sim.run_until(100);
  ASSERT_EQ(rec.entries().size(), 1u);
  EXPECT_EQ(rec.entries()[0].tag, 1u);
  (void)new_id;
}

TEST(EventHeapTest, RandomizedOrderIsNondecreasingWithFifoTieBreak) {
  Simulator sim;
  Recorder rec(sim);
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // tag carries the scheduling index so ties are checkable.
  std::vector<SimTime> when(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    when[i] = static_cast<SimTime>(next() % 64);  // dense: many ties
    sim.schedule_event(when[i], &rec, EventKind::Tick, i);
  }
  sim.run_until(64);
  ASSERT_EQ(rec.entries().size(), 1000u);
  for (std::size_t i = 1; i < rec.entries().size(); ++i) {
    const auto& prev = rec.entries()[i - 1];
    const auto& cur = rec.entries()[i];
    ASSERT_LE(prev.at, cur.at);
    if (prev.at == cur.at) {
      ASSERT_LT(prev.tag, cur.tag);  // FIFO among simultaneous events
    }
  }
}

// The allocation guarantee: once the pool is warm, scheduling and
// dispatching typed events performs no heap allocation at all -- heap
// timers, lane appends, and delayed events in a delay FIFO that never
// drains.
TEST(EventHeapTest, SteadyStateTypedEventsAllocateNothing) {
  Simulator sim;
  // A sink that only counts: the recording target's own vector growth must
  // not be attributed to the scheduler.
  class CountingTarget : public EventTarget {
   public:
    void on_event(const SimEvent&) override { ++count_; }
    std::uint64_t count() const { return count_; }

   private:
    std::uint64_t count_ = 0;
  };
  CountingTarget rec;
  Frame frame;
  frame.size_bits = 12000.0;
  EventPayload payload;
  payload.frame = frame;
  // One round of the working set, 10 ns of simulated time.  The delayed
  // pair is due 100 rounds out, so the FIFO always holds ~100 events:
  // the longer delay appends to it, and the shorter one, due ahead of
  // that tail, takes the heap.
  const auto round = [&] {
    for (int i = 0; i < 32; ++i) {
      sim.schedule_frame(sim.now() + 1 + i % 7, &rec, 0, frame);
      sim.append_sorted(sim.now() + 1 + i / 4, &rec, EventKind::FrameArrival,
                        payload);
    }
    const EventId moved =
        sim.schedule_event(sim.now() + 9, &rec, EventKind::Tick, 1);
    sim.reschedule(moved, sim.now() + 3);
    const EventId dropped =
        sim.schedule_event(sim.now() + 5, &rec, EventKind::Tick, 2);
    sim.cancel(dropped);
    sim.schedule_after(1000, &rec, EventKind::FrameDeparture);
    sim.schedule_after(995, &rec, EventKind::FrameDeparture);
    sim.run_until(sim.now() + 10);
  };
  // Warm-up: grow the slab, the heap array, the free list, the lane and
  // the FIFO ring to their working-set sizes.
  for (int i = 0; i < 200; ++i) round();
  ASSERT_FALSE(sim.idle());

  const bcn::testing::AllocationCounter counter;
  for (int i = 0; i < 1000; ++i) round();
  const std::uint64_t allocs = counter.count();
  EXPECT_EQ(allocs, 0u);
  EXPECT_FALSE(sim.idle());
  sim.run_until(sim.now() + 1000);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(rec.count(), 1200u * 67u);
}

// The lane and the heap draw seqs from one counter, so a lane event ties
// with a heap event at the same instant exactly as two heap events would:
// whichever was scheduled or appended first fires first.
TEST(EventHeapTest, LaneMergesWithHeapInScheduleOrder) {
  Simulator sim;
  Recorder rec(sim);
  EventPayload payload;
  payload.frame = Frame{};
  payload.frame.seq = 7;
  sim.schedule_event(10, &rec, EventKind::Tick, 1);
  sim.append_sorted(10, &rec, EventKind::FrameArrival, payload);
  sim.schedule_event(10, &rec, EventKind::Tick, 2);
  sim.append_sorted(20, &rec, EventKind::FrameArrival, payload);
  sim.schedule_event(15, &rec, EventKind::Tick, 3);
  EXPECT_EQ(sim.run_until(100), 5u);
  EXPECT_EQ(sim.executed(), 5u);
  const std::vector<EventKind> kinds = {
      EventKind::Tick, EventKind::FrameArrival, EventKind::Tick,
      EventKind::Tick, EventKind::FrameArrival};
  const std::vector<SimTime> times = {10, 10, 10, 15, 20};
  ASSERT_EQ(rec.entries().size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(rec.entries()[i].kind, kinds[i]) << i;
    EXPECT_EQ(rec.entries()[i].at, times[i]) << i;
  }
  EXPECT_EQ(rec.entries()[2].tag, 2u);
  // A lane event fires once, with tag 0 and no handle.
  EXPECT_EQ(rec.last().tag, 0u);
  EXPECT_EQ(rec.last().id, kInvalidEvent);
  EXPECT_EQ(rec.frames().back().seq, 7u);
  // No pool slot was taken for either lane event.
  EXPECT_EQ(sim.pool_slots(), 3u);
  EXPECT_TRUE(sim.idle());
}

TEST(EventHeapTest, PendingLaneEventKeepsTheSimulatorBusy) {
  Simulator sim;
  Recorder rec(sim);
  EventPayload payload;
  payload.bcn = BcnMessage{};
  sim.append_sorted(500, &rec, EventKind::BcnDelivery, payload);
  sim.schedule_event(50, &rec, EventKind::Tick, 0);
  EXPECT_EQ(sim.next_event_time(), 50);
  sim.run_until(100);
  ASSERT_EQ(rec.entries().size(), 1u);
  // Only the lane holds an event now, beyond `until`.
  EXPECT_EQ(sim.heap_size(), 0u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), 500);
  EXPECT_EQ(sim.now(), 100);
  sim.run_until(500);
  EXPECT_EQ(rec.entries().size(), 2u);
  EXPECT_TRUE(sim.idle());
}

// The lane never clamps or reorders: an out-of-order append is a caller
// bug and throws, leaving the lane as it was.
TEST(EventHeapTest, LaneAppendOutOfOrderThrows) {
  Simulator sim;
  Recorder rec(sim);
  EventPayload payload;
  payload.frame = Frame{};
  sim.schedule_event(100, &rec, EventKind::Tick, 0);
  sim.run_until(100);
  EXPECT_THROW(sim.append_sorted(99, &rec, EventKind::FrameArrival, payload),
               std::logic_error);
  sim.append_sorted(100, &rec, EventKind::FrameArrival, payload);
  sim.append_sorted(300, &rec, EventKind::FrameArrival, payload);
  EXPECT_THROW(sim.append_sorted(299, &rec, EventKind::FrameArrival, payload),
               std::logic_error);
  sim.append_sorted(300, &rec, EventKind::FrameArrival, payload);
  EXPECT_EQ(sim.run_until(1000), 3u);
  EXPECT_EQ(rec.entries().size(), 4u);
}

// The delay FIFO shares the seq counter too: delayed, scheduled and
// appended events due at one instant fire in the order they were set.
TEST(EventHeapTest, DelayFifoMergesWithHeapAndLaneInScheduleOrder) {
  Simulator sim;
  Recorder rec(sim);
  EventPayload payload;
  payload.frame = Frame{};
  sim.schedule_after(10, &rec, EventKind::FrameDeparture);
  sim.schedule_event(10, &rec, EventKind::Tick, 1);
  sim.append_sorted(10, &rec, EventKind::FrameArrival, payload);
  sim.schedule_after(10, &rec, EventKind::FrameDeparture);
  sim.schedule_event(10, &rec, EventKind::Tick, 2);
  sim.schedule_after(20, &rec, EventKind::FrameDeparture);
  sim.append_sorted(15, &rec, EventKind::FrameArrival, payload);
  sim.schedule_event(12, &rec, EventKind::Tick, 3);
  EXPECT_EQ(sim.run_until(100), 8u);
  EXPECT_EQ(sim.executed(), 8u);
  const std::vector<EventKind> kinds = {
      EventKind::FrameDeparture, EventKind::Tick,
      EventKind::FrameArrival,   EventKind::FrameDeparture,
      EventKind::Tick,           EventKind::Tick,
      EventKind::FrameArrival,   EventKind::FrameDeparture};
  const std::vector<SimTime> times = {10, 10, 10, 10, 10, 12, 15, 20};
  ASSERT_EQ(rec.entries().size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(rec.entries()[i].kind, kinds[i]) << i;
    EXPECT_EQ(rec.entries()[i].at, times[i]) << i;
  }
  // A FIFO event fires once, with tag 0 and no handle, and takes no slot.
  EXPECT_EQ(rec.last().tag, 0u);
  EXPECT_EQ(rec.last().id, kInvalidEvent);
  EXPECT_EQ(sim.pool_slots(), 3u);
  EXPECT_TRUE(sim.idle());
}

// A delayed event counts as pending wherever it waits: next_event_time()
// and idle() see it beyond `until`, and executed() counts it once fired.
TEST(EventHeapTest, PendingDelayedEventKeepsTheSimulatorBusy) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_after(30, &rec, EventKind::FrameDeparture);
  sim.schedule_after(500, &rec, EventKind::FrameDeparture);
  sim.schedule_event(50, &rec, EventKind::Tick, 0);
  EXPECT_EQ(sim.next_event_time(), 30);
  EXPECT_EQ(sim.run_until(100), 2u);
  // Only the FIFO holds an event now, beyond `until`.
  EXPECT_EQ(sim.heap_size(), 0u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), 500);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.run_until(499), 0u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.run_until(500), 1u);
  EXPECT_EQ(sim.executed(), 3u);
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{30, 50, 500}));
  EXPECT_TRUE(sim.idle());
}

// The ring wraps, and grows while wrapped, without reordering; a delay
// due ahead of the FIFO's tail takes the heap and still fires in order.
TEST(EventHeapTest, DelayFifoWrapsGrowsAndFallsBackInOrder) {
  Simulator sim;
  Recorder rec(sim);
  for (SimTime t = 0; t < 12; ++t) {
    sim.run_until(t);
    sim.schedule_after(100, &rec, EventKind::FrameDeparture);
  }
  EXPECT_EQ(sim.run_until(105), 6u);  // the head moves off the ring's start
  for (SimTime i = 0; i < 20; ++i) {
    sim.schedule_after(7 + i, &rec, EventKind::FrameDeparture);  // 112 + i
  }
  sim.schedule_after(1, &rec, EventKind::FrameDeparture);  // 106: the heap
  EXPECT_EQ(sim.pool_slots(), 1u);
  EXPECT_EQ(sim.run_until(1000), 27u);
  std::vector<SimTime> want;
  for (SimTime t = 100; t <= 106; ++t) want.push_back(t);
  for (SimTime t = 106; t < 132; ++t) want.push_back(t);
  EXPECT_EQ(rec.times(), want);
  EXPECT_TRUE(sim.idle());
}

// A negative delay is a caller bug: it throws and sets nothing.
TEST(EventHeapTest, ScheduleAfterRejectsNegativeDelay) {
  Simulator sim;
  Recorder rec(sim);
  sim.run_until(50);
  EXPECT_THROW(sim.schedule_after(-1, &rec, EventKind::FrameDeparture),
               std::invalid_argument);
  EXPECT_TRUE(sim.idle());
  sim.schedule_after(0, &rec, EventKind::FrameDeparture);
  EXPECT_EQ(sim.next_event_time(), 50);
  EXPECT_EQ(sim.run_until(50), 1u);
  EXPECT_TRUE(sim.idle());
}

// A negative horizon is a caller bug too: it throws before firing
// anything, so heap, lane and FIFO events stay pending and now() stays.
TEST(EventHeapTest, RunUntilRejectsNegativeHorizon) {
  Simulator sim;
  Recorder rec(sim);
  EventPayload payload;
  payload.frame = Frame{};
  sim.schedule_event(1000, &rec, EventKind::Tick, 0);
  sim.append_sorted(3000, &rec, EventKind::FrameArrival, payload);
  sim.schedule_after(5000, &rec, EventKind::FrameDeparture);
  EXPECT_EQ(sim.run_until(100), 0u);
  EXPECT_THROW(sim.run_until(-1), std::invalid_argument);
  EXPECT_TRUE(rec.entries().empty());
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.heap_size(), 1u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), 1000);
  EXPECT_EQ(sim.run_until(5000), 3u);
  EXPECT_EQ(rec.times(), (std::vector<SimTime>{1000, 3000, 5000}));
  EXPECT_TRUE(sim.idle());
}

TEST(EventHeapTest, PastDeadlineClampsAndCounts) {
  Simulator sim;
  Recorder rec(sim);
  sim.schedule_event(50, &rec, EventKind::Tick, 0);
  sim.run_until(50);
  sim.schedule_event(10, &rec, EventKind::Tick, 1);  // strictly in the past
  EXPECT_EQ(sim.clamped_count(), 1u);
  sim.run_until(50);  // fires at now, not in the past
  ASSERT_EQ(rec.entries().size(), 2u);
  EXPECT_EQ(rec.entries()[1].at, 50);
}

TEST(EventHeapTest, ExportMetricsPublishesSchedulerCounters) {
  Simulator sim;
  Recorder rec(sim);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_event(10 + i, &rec, EventKind::Tick, 0);
  }
  const EventId id = sim.schedule_event(100, &rec, EventKind::Tick, 1);
  sim.cancel(id);
  sim.run_until(1000);

  obs::MetricsRegistry registry;
  sim.export_metrics(registry);
  const FlatJson gauges = bcn::testing::exported(registry);
  EXPECT_EQ(gauges.number("sim.heap_high_water"), 9.0);
  EXPECT_EQ(gauges.number("sim.pool_slots"),
            static_cast<double>(sim.pool_slots()));
  EXPECT_EQ(gauges.number("sim.pool_in_use"), 0.0);
  ASSERT_NE(registry.find_counter("sim.events_executed"), nullptr);
  EXPECT_EQ(registry.find_counter("sim.events_executed")->value(), 8u);
  ASSERT_NE(registry.find_counter("sim.events_cancelled"), nullptr);
  EXPECT_EQ(registry.find_counter("sim.events_cancelled")->value(), 1u);
  ASSERT_NE(registry.find_counter("sim.schedule_clamped"), nullptr);
  EXPECT_EQ(registry.find_counter("sim.schedule_clamped")->value(), 0u);
}

TEST(EventHeapTest, EventLinkForwardsAfterFixedDelay) {
  Simulator sim;
  Recorder rec(sim);
  const EventLink link(sim, &rec, 5, /*delay=*/250);
  EXPECT_TRUE(static_cast<bool>(link));
  EXPECT_FALSE(static_cast<bool>(EventLink{}));
  sim.run_until(100);
  Frame frame;
  frame.source = 1;
  link.send(frame);
  sim.run_until(1000);
  ASSERT_EQ(rec.entries().size(), 1u);
  EXPECT_EQ(rec.entries()[0].kind, EventKind::FrameArrival);
  EXPECT_EQ(rec.entries()[0].tag, 5u);
  EXPECT_EQ(rec.entries()[0].at, 350);
}

}  // namespace
}  // namespace bcn::sim
