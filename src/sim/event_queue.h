// Discrete-event simulation core: typed pooled events on an indexed 4-ary
// min-heap with stable FIFO ordering for simultaneous events, plus two
// presorted FIFOs beside the heap for events that arrive in order.
//
// Design (the simulator fast path):
//   * Event records live in a slab of pool slots recycled through a free
//     list, so steady-state simulation performs zero allocations.
//   * The pending set is a 4-ary min-heap of slot indices ordered by
//     (when, seq); each slot stores its heap position, so cancel and
//     reschedule are O(log n) in-place operations on live handles --
//     there is no tombstone set to grow without bound.
//   * Handles carry a generation: once an event fires or is cancelled its
//     slot's generation advances and the old handle goes stale.  cancel()
//     and reschedule() on a stale handle are cheap no-ops.
//   * Recurring timers re-arm their own slot via reschedule() (valid from
//     inside the handler), keeping one slot per timer for the lifetime of
//     the simulation instead of allocating a fresh event every tick.
//   * A caller that already holds events in (when) order -- the sharded
//     engine's canonically sorted epoch handoffs -- appends them to the
//     lane instead: no slot, no heap push, no full-depth pop.  The lane is
//     a vector plus a head index, cleared (keeping its capacity) whenever
//     it drains.
//   * A fire-once event due a fixed delay from now -- a port's departure,
//     one service time out -- goes through schedule_after.
//     Most such deadlines are no earlier than the last one scheduled, so
//     they append to the delay FIFO, again with no slot and no sift; one
//     that would land ahead of the FIFO's tail (a shorter delay after a
//     longer one) is scheduled into the heap instead.  The FIFO is a
//     power-of-two ring that grows only when full, so its memory is
//     bounded by its peak pending count even if it never drains.
//   * Every lane append and schedule_after draws its seq from the same
//     counter as every schedule_*, so each event keeps the (when, seq)
//     key the heap would have given it, and both FIFOs stay sorted by
//     that key.  run_until fires the least of the heap root, the lane
//     head and the FIFO head; each is the minimum of its sorted set, so
//     the merge fires every event in exactly the order a single heap
//     would.  Lane and FIFO events fire once, with tag 0 and no handle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.h"
#include "sim/event.h"
#include "sim/time.h"

namespace bcn::obs {
class MetricsRegistry;
}

namespace bcn::sim {

class Simulator {
 public:
  Simulator() = default;

  SimTime now() const { return now_; }

  // --- typed scheduling ---------------------------------------------------
  // All absolute times are clamped to >= now(); a strictly-past deadline
  // additionally counts into the sim.schedule_clamped metric and logs a
  // rate-limited warning (a past deadline means a mis-scheduled timer).
  // Events scheduled for the same instant fire in scheduling order.
  EventId schedule_event(SimTime when, EventTarget* target, EventKind kind,
                         std::uint32_t tag);
  EventId schedule_frame(SimTime when, EventTarget* target, std::uint32_t tag,
                         const Frame& frame);
  EventId schedule_bcn(SimTime when, EventTarget* target, std::uint32_t tag,
                       const BcnMessage& message);
  EventId schedule_pause(SimTime when, EventTarget* target, std::uint32_t tag,
                         const PauseFrame& pause);

  // Cancels a live event in place (O(log n) heap removal) and recycles its
  // slot.  A no-op on stale or invalid handles -- repeated cancel after
  // fire leaves no residue and the handle table stays compact.
  void cancel(EventId id);

  // Moves a live event to `when` (clamped to >= now) with a fresh FIFO
  // sequence number, exactly as if it had been cancelled and re-scheduled,
  // but reusing its slot.  Callable from inside the event's own handler to
  // re-arm a recurring timer.  Returns false on a stale/invalid handle.
  bool reschedule(EventId id, SimTime when);

  // reschedule-or-schedule: re-arms `id` when still valid, otherwise
  // schedules a fresh typed event; returns the live handle.  The common
  // idiom for timers that sometimes go idle (e.g. a server with an empty
  // queue).
  EventId arm(EventId id, SimTime when, EventTarget* target, EventKind kind,
              std::uint32_t tag);

  // --- presorted lane -----------------------------------------------------
  // Appends a fire-once event to the lane with the next seq, exactly as
  // schedule_* would number it.  It is dispatched with tag 0 and id
  // kInvalidEvent, and cannot be cancelled or rescheduled.  Throws
  // std::logic_error when `when` is before now() or before the lane's
  // last pending event: the lane never clamps or reorders.
  void append_sorted(SimTime when, EventTarget* target, EventKind kind,
                     const EventPayload& payload);

  // --- delay FIFO ---------------------------------------------------------
  // Schedules a fire-once event at now() + `delay` with the next seq,
  // exactly as schedule_event would number it.  It joins the delay FIFO
  // when that deadline is not earlier than the FIFO's last pending one,
  // and the heap otherwise; either way it fires in the single-heap order,
  // dispatched with tag 0.  The caller gets no handle, so the event
  // cannot be cancelled or rescheduled, and its handler must not read
  // event.id.  Throws std::invalid_argument on a negative delay.
  void schedule_after(SimTime delay, EventTarget* target, EventKind kind);

  // Runs until the queue drains or simulated time exceeds `until`.
  // Returns the number of events executed, lane and FIFO events
  // included.  Advances now() to `until`.  Throws std::invalid_argument
  // on a negative `until`, before firing anything or moving now().
  std::size_t run_until(SimTime until);

  // True when no live events remain in the heap, the lane or the delay
  // FIFO.  (The firing event stays in the heap while its handler runs, so
  // an empty heap means no heap event is pending.)
  bool idle() const {
    return heap_.empty() && lane_.empty() && fifo_size_ == 0;
  }

  // Deadline of the earliest pending event, in the heap, the lane or the
  // delay FIFO; only meaningful when not idle().  The sharded engine's
  // single-shard fast path peeks it to jump over empty epochs
  // (sim/shard/engine.cpp).
  SimTime next_event_time() const {
    return key_when(std::min({heap_key(), lane_key(), fifo_key()}));
  }

  std::size_t executed() const { return executed_; }

  // --- introspection (tests, metrics) ------------------------------------
  std::size_t heap_size() const { return heap_.size(); }
  std::size_t heap_high_water() const { return heap_high_water_; }
  // Slots ever created (the pool's slab size) and slots currently free.
  std::size_t pool_slots() const { return slots_.size(); }
  std::size_t pool_free() const { return free_.size(); }
  std::uint64_t cancelled_count() const { return cancelled_; }
  std::uint64_t rescheduled_count() const { return rescheduled_; }
  std::uint64_t clamped_count() const { return clamp_warnings_.count(); }

  // Scheduler gauges/counters into `registry` under `prefix`:
  //   <prefix>heap_high_water, <prefix>pool_slots, <prefix>pool_in_use,
  //   <prefix>events_executed, <prefix>events_cancelled,
  //   <prefix>events_rescheduled, <prefix>schedule_clamped.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "sim.") const;

 private:
  static constexpr std::int32_t kSlotFree = -1;

  struct Slot {
    SimTime when = 0;
    std::uint64_t seq = 0;
    EventTarget* target = nullptr;
    std::uint32_t generation = 1;  // advances when the slot is recycled
    std::int32_t heap_index = kSlotFree;
    EventKind kind = EventKind::FrameArrival;
    std::uint32_t tag = 0;
    EventPayload payload;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot + 1) << 32) | generation;
  }
  // Returns the slot index for a handle whose generation still matches,
  // or -1 for stale/invalid handles.
  std::int64_t resolve(EventId id) const;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  EventId insert(SimTime when, std::uint32_t slot_index);
  SimTime clamp_deadline(SimTime when);

  // Heap entries carry the ordering key alongside the slot index so sift
  // comparisons stay inside the contiguous heap array instead of
  // dereferencing 100+-byte pool slots.  The (when, seq) pair is packed
  // into one 128-bit integer -- when in the high half, seq in the low --
  // so the lexicographic order collapses to a single branchless compare.
  struct HeapEntry {
    unsigned __int128 key;
    std::uint32_t slot;
  };
  static unsigned __int128 make_key(SimTime when, std::uint64_t seq) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(when))
            << 64) |
           seq;
  }
  static SimTime key_when(unsigned __int128 key) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
  }
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    return a.key < b.key;
  }
  // The key of an empty set: after every real key, since a real key's
  // `when` is a non-negative SimTime and so leaves the top bit clear.
  static constexpr unsigned __int128 kNoKey =
      ~static_cast<unsigned __int128>(0);
  void heap_push(const HeapEntry& entry);
  void heap_remove(std::int32_t heap_index);
  void pop_root();
  void sift_up(std::int32_t i);
  void sift_down(std::int32_t i);

  // A lane event: its key, as the heap would order it, and its dispatch.
  struct LaneEntry {
    unsigned __int128 key;
    EventTarget* target;
    EventKind kind;
    EventPayload payload;
  };
  void fire_lane_head();

  // A delay-FIFO event: its key and its dispatch, with no payload.
  struct FifoEntry {
    unsigned __int128 key;
    EventTarget* target;
    EventKind kind;
  };
  // The ring index of the i-th pending FIFO event.
  std::size_t fifo_slot(std::size_t i) const {
    return (fifo_head_ + i) & (fifo_.size() - 1);
  }
  void grow_fifo();
  void fire_fifo_head();

  // The head key of each pending set, kNoKey when it is empty.
  unsigned __int128 heap_key() const {
    return heap_.empty() ? kNoKey : heap_[0].key;
  }
  unsigned __int128 lane_key() const {
    return lane_.empty() ? kNoKey : lane_[lane_head_].key;
  }
  unsigned __int128 fifo_key() const {
    return fifo_size_ == 0 ? kNoKey : fifo_[fifo_head_].key;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t rescheduled_ = 0;
  // Counts every clamped deadline; allows the first few log lines.
  LogRateLimit clamp_warnings_{5};
  std::size_t heap_high_water_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;
  // Pending lane events are lane_[lane_head_, size); empty when drained.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  // The delay FIFO is a ring: pending events are the fifo_size_ entries
  // from fifo_head_, wrapping at fifo_.size(), which is zero or a power
  // of two.
  std::vector<FifoEntry> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_size_ = 0;
};

// A precomputed forwarding hop: schedules its payload as a typed event to
// a fixed target after a fixed delay.  Scenario wiring builds these once
// at construction; every hop between entities -- frames, BCN, PAUSE --
// is one, so a hop costs one direct schedule_* call.  Tests capture an
// entity's output the same way, over zero-delay links into a recording
// target.
class EventLink {
 public:
  EventLink() = default;
  EventLink(Simulator& sim, EventTarget* target, std::uint32_t tag,
            SimTime delay)
      : sim_(&sim), target_(target), tag_(tag), delay_(delay) {}

  explicit operator bool() const { return target_ != nullptr; }

  void send(const Frame& frame) const {
    sim_->schedule_frame(sim_->now() + delay_, target_, tag_, frame);
  }
  void send(const BcnMessage& message) const {
    sim_->schedule_bcn(sim_->now() + delay_, target_, tag_, message);
  }
  // Fault-injection hook: deliver with extra reverse-path delay on top of
  // the link's propagation delay (sim/faults.h).
  void send(const BcnMessage& message, SimTime extra_delay) const {
    sim_->schedule_bcn(sim_->now() + delay_ + extra_delay, target_, tag_,
                       message);
  }
  void send(const PauseFrame& pause) const {
    sim_->schedule_pause(sim_->now() + delay_, target_, tag_, pause);
  }

 private:
  Simulator* sim_ = nullptr;
  EventTarget* target_ = nullptr;
  std::uint32_t tag_ = 0;
  SimTime delay_ = 0;
};

}  // namespace bcn::sim
