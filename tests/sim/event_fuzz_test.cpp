// Randomized stress of the pooled indexed-heap scheduler against a naive
// sorted-vector reference model.  The model mirrors the Simulator's
// contract exactly: events fire in (when, seq) order, cancel removes a
// pending event and no-ops on stale handles, reschedule re-enters the FIFO
// order with a fresh sequence number, and deadlines clamp to >= now.  A
// sorted lane append and a schedule_after are, to the model, one more
// schedule: each takes the next sequence number and is never cancelled or
// rescheduled, whether the simulator keeps it in the lane, the delay FIFO
// or the heap.
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"

namespace bcn::sim {
namespace {

struct ModelEvent {
  SimTime when = 0;
  std::uint64_t seq = 0;      // model-side FIFO order, monotone per op
  std::uint32_t marker = 0;   // unique per schedule, carried in the tag
  bool live = true;
};

// The naive reference: a flat vector scanned and sorted on demand.
class Model {
 public:
  // Returns the index used as the model's handle.
  std::size_t schedule(SimTime when, std::uint32_t marker) {
    events_.push_back({clamp(when), next_seq_++, marker, true});
    return events_.size() - 1;
  }

  bool cancel(std::size_t handle) {
    if (handle >= events_.size() || !events_[handle].live) return false;
    events_[handle].live = false;
    return true;
  }

  bool reschedule(std::size_t handle, SimTime when) {
    if (handle >= events_.size() || !events_[handle].live) return false;
    events_[handle].when = clamp(when);
    events_[handle].seq = next_seq_++;
    return true;
  }

  // The deadline of a pending event, or -1 once it fired or was
  // cancelled.
  SimTime pending_when(std::size_t handle) const {
    return events_[handle].live ? events_[handle].when : -1;
  }

  // Fires everything due by `until` into `fired`, in (when, seq) order.
  void run_until(SimTime until, std::vector<std::uint32_t>& fired) {
    std::vector<std::size_t> due;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].live && events_[i].when <= until) due.push_back(i);
    }
    std::sort(due.begin(), due.end(), [&](std::size_t a, std::size_t b) {
      if (events_[a].when != events_[b].when)
        return events_[a].when < events_[b].when;
      return events_[a].seq < events_[b].seq;
    });
    for (const std::size_t i : due) {
      now_ = events_[i].when;
      events_[i].live = false;
      fired.push_back(events_[i].marker);
    }
    now_ = std::max(now_, until);
  }

  std::size_t live_count() const {
    std::size_t n = 0;
    for (const auto& e : events_) n += e.live ? 1 : 0;
    return n;
  }

 private:
  SimTime clamp(SimTime when) const { return std::max(when, now_); }

  std::vector<ModelEvent> events_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
};

// Heap events carry their marker in the tag; lane events fire with tag 0
// and no handle, so theirs rides in the frame payload.
class FiringRecorder : public EventTarget {
 public:
  void on_event(const SimEvent& event) override {
    if (event.kind == EventKind::FrameArrival) {
      EXPECT_EQ(event.tag, 0u);
      EXPECT_EQ(event.id, kInvalidEvent);
      fired_.push_back(static_cast<std::uint32_t>(event.payload.frame.seq));
    } else {
      fired_.push_back(event.tag);
    }
  }
  std::vector<std::uint32_t>& fired() { return fired_; }

 private:
  std::vector<std::uint32_t> fired_;
};

// A schedule_after event carries no payload and tag 0, so each one gets a
// target of its own that logs its marker into the shared record.
class MarkedTarget : public EventTarget {
 public:
  MarkedTarget(FiringRecorder& log, std::uint32_t marker)
      : log_(log), marker_(marker) {}
  void on_event(const SimEvent& event) override {
    EXPECT_EQ(event.tag, 0u);
    log_.fired().push_back(marker_);
  }

 private:
  FiringRecorder& log_;
  std::uint32_t marker_;
};

TEST(EventFuzzTest, RandomizedOpsMatchSortedVectorReference) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull, 987654321ull}) {
    Simulator sim;
    FiringRecorder rec;
    Model model;
    std::vector<std::uint32_t> model_fired;

    std::uint64_t rng = seed;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };

    // Parallel handle tables: the same index always holds the pair of
    // handles for one scheduled event (or a stale pair after it fired).
    // Lane appends have no handle and never enter them.
    std::vector<EventId> sim_ids;
    std::vector<std::size_t> model_ids;
    std::uint32_t marker = 0;
    SimTime lane_tail = 0;  // deadline of the last lane append
    // schedule_after draws from a few delays, so a shorter one often
    // follows a longer one and lands ahead of the delay FIFO's tail.
    constexpr std::array<SimTime, 3> kDelays = {0, 40, 90};
    std::deque<MarkedTarget> delayed;  // stable addresses
    SimTime fifo_tail = 0;  // deadline of the last FIFO append
    int fifo_appends = 0, heap_fallbacks = 0;

    for (int op = 0; op < 20'000; ++op) {
      const std::uint64_t roll = next() % 100;
      if (roll >= 40 && roll < 50) {
        // Delayed: the FIFO takes it unless it is due before the FIFO's
        // tail.  A drained FIFO's last deadline is at or before now(), so
        // the last append's deadline predicts the choice either way.
        const SimTime delay = kDelays[next() % kDelays.size()];
        const SimTime when = sim.now() + delay;
        if (when >= fifo_tail) {
          fifo_tail = when;
          ++fifo_appends;
        } else {
          ++heap_fallbacks;
        }
        sim.schedule_after(delay, &delayed.emplace_back(rec, marker),
                           EventKind::FrameDeparture);
        model.schedule(when, marker);
        ++marker;
      } else if (roll < 40 || sim_ids.empty()) {
        // Schedule: mostly near-future, sometimes deliberately in the past
        // (both sides clamp to now).
        const SimTime when =
            sim.now() + static_cast<SimTime>(next() % 200) - 20;
        sim_ids.push_back(
            sim.schedule_event(when, &rec, EventKind::Tick, marker));
        model_ids.push_back(model.schedule(when, marker));
        ++marker;
      } else if (roll < 63) {
        // Cancel a random pair; fired pairs exercise the stale-handle path.
        const std::size_t pick = next() % sim_ids.size();
        sim.cancel(sim_ids[pick]);
        model.cancel(model_ids[pick]);
      } else if (roll < 76) {
        // Sorted append, often tied with a pending heap event's deadline:
        // the later seq must fire after it, never ahead of it.
        const SimTime floor = std::max(sim.now(), lane_tail);
        SimTime when = floor + static_cast<SimTime>(next() % 40);
        const SimTime tied = model.pending_when(
            model_ids[next() % model_ids.size()]);
        if (tied >= floor && next() % 4 != 0) when = tied;
        Frame frame;
        frame.seq = marker;
        EventPayload payload;
        payload.frame = frame;
        sim.append_sorted(when, &rec, EventKind::FrameArrival, payload);
        model.schedule(when, marker);
        lane_tail = when;
        ++marker;
      } else if (roll < 88) {
        // Reschedule a random pair (no-op when stale on both sides).
        const std::size_t pick = next() % sim_ids.size();
        const SimTime when =
            sim.now() + static_cast<SimTime>(next() % 150) - 10;
        const bool sim_ok = sim.reschedule(sim_ids[pick], when);
        const bool model_ok = model.reschedule(model_ids[pick], when);
        ASSERT_EQ(sim_ok, model_ok) << "seed=" << seed << " op=" << op;
      } else {
        // Advance time and drain.
        const SimTime until = sim.now() + static_cast<SimTime>(next() % 120);
        sim.run_until(until);
        model.run_until(until, model_fired);
        ASSERT_EQ(rec.fired(), model_fired)
            << "seed=" << seed << " op=" << op;
      }
    }

    // Final drain far past every deadline.
    sim.run_until(sim.now() + 1'000'000);
    model.run_until(sim.now(), model_fired);
    ASSERT_EQ(rec.fired(), model_fired) << "seed=" << seed;
    EXPECT_TRUE(sim.idle());
    EXPECT_EQ(model.live_count(), 0u);
    // Every slot back on the free list: no leaked pool entries.
    EXPECT_EQ(sim.pool_free(), sim.pool_slots());
    // Both schedule_after paths ran.
    EXPECT_GT(fifo_appends, 100) << "seed=" << seed;
    EXPECT_GT(heap_fallbacks, 100) << "seed=" << seed;
  }
}

// Handlers that schedule, cancel, and re-arm from inside dispatch -- the
// paths the scenario objects (sources re-pacing, switches chaining
// service) hit constantly.
TEST(EventFuzzTest, HandlersMutatingScheduleStayConsistent) {
  Simulator sim;

  class Chaos : public EventTarget {
   public:
    explicit Chaos(Simulator& sim) : sim_(sim) {}

    void seed_events() {
      for (int i = 0; i < 16; ++i) {
        ids_.push_back(sim_.schedule_event(
            static_cast<SimTime>(next() % 50), this, EventKind::Tick, 0));
      }
    }

    void on_event(const SimEvent& event) override {
      ++fired_;
      last_at_ = sim_.now();
      const std::uint64_t roll = next() % 4;
      if (roll == 0 && fired_ < 30'000) {
        // Re-arm self: same slot, later deadline.
        sim_.reschedule(event.id, sim_.now() + 1 + next() % 20);
      } else if (roll == 1) {
        // Cancel a random other handle (possibly stale, possibly self --
        // self is already past its firing check, so this is a no-op or a
        // plain removal, never a crash).
        sim_.cancel(ids_[next() % ids_.size()]);
      } else if (roll == 2 && fired_ < 30'000) {
        ids_.push_back(sim_.schedule_event(sim_.now() + next() % 30, this,
                                           EventKind::Tick, 0));
      }
    }

    int fired() const { return fired_; }
    SimTime last_at() const { return last_at_; }

   private:
    std::uint64_t next() {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      return rng_;
    }

    Simulator& sim_;
    std::uint64_t rng_ = 0x2545F4914F6CDD1Dull;
    std::vector<EventId> ids_;
    int fired_ = 0;
    SimTime last_at_ = 0;
  };

  Chaos chaos(sim);
  chaos.seed_events();
  SimTime prev_now = 0;
  while (!sim.idle()) {
    sim.run_until(sim.now() + 1000);
    // Time never runs backwards across drain batches.
    ASSERT_GE(sim.now(), prev_now);
    prev_now = sim.now();
    ASSERT_LT(chaos.fired(), 100'000);  // guaranteed to terminate
  }
  EXPECT_GT(chaos.fired(), 16);
  EXPECT_EQ(sim.pool_free(), sim.pool_slots());
  EXPECT_EQ(sim.heap_size(), 0u);
}

}  // namespace
}  // namespace bcn::sim
