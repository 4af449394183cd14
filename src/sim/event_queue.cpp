#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/tracing.h"

namespace bcn::sim {

// --- pool ----------------------------------------------------------------

std::uint32_t Simulator::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  ++slot.generation;  // stale every outstanding handle
  slot.heap_index = kSlotFree;
  slot.target = nullptr;
  free_.push_back(index);
}

std::int64_t Simulator::resolve(EventId id) const {
  if (id == kInvalidEvent) return -1;
  const std::uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return -1;
  const auto index = static_cast<std::uint32_t>(slot_plus_one - 1);
  if (slots_[index].generation != static_cast<std::uint32_t>(id)) return -1;
  return index;
}

// --- indexed 4-ary heap --------------------------------------------------

void Simulator::sift_up(std::int32_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const std::int32_t parent = (i - 1) >> 2;
    if (!entry_less(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].heap_index = i;
    i = parent;
  }
  heap_[i] = moving;
  slots_[moving.slot].heap_index = i;
}

void Simulator::sift_down(std::int32_t i) {
  const HeapEntry moving = heap_[i];
  const auto n = static_cast<std::int32_t>(heap_.size());
  while (true) {
    const std::int32_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::int32_t best = first_child;
    const std::int32_t last_child = std::min(first_child + 4, n);
    for (std::int32_t c = first_child + 1; c < last_child; ++c) {
      if (entry_less(heap_[c], heap_[best])) best = c;
    }
    if (!entry_less(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    slots_[heap_[i].slot].heap_index = i;
    i = best;
  }
  heap_[i] = moving;
  slots_[moving.slot].heap_index = i;
}

void Simulator::heap_push(const HeapEntry& entry) {
  heap_.push_back(entry);
  slots_[entry.slot].heap_index = static_cast<std::int32_t>(heap_.size() - 1);
  sift_up(static_cast<std::int32_t>(heap_.size() - 1));
  heap_high_water_ = std::max(heap_high_water_, heap_.size());
}

void Simulator::heap_remove(std::int32_t heap_index) {
  const std::int32_t last = static_cast<std::int32_t>(heap_.size()) - 1;
  const std::uint32_t removed = heap_[heap_index].slot;
  if (heap_index != last) {
    heap_[heap_index] = heap_[last];
    slots_[heap_[heap_index].slot].heap_index = heap_index;
  }
  heap_.pop_back();
  if (heap_index != last) {
    // The swapped-in element may need to move either direction; after a
    // sift_down the follow-up sift_up is a no-op unless it stayed put.
    const std::uint32_t moved = heap_[heap_index].slot;
    sift_down(heap_index);
    sift_up(slots_[moved].heap_index);
  }
  slots_[removed].heap_index = kSlotFree;
}

// Specialized heap_remove(0) for the dispatch loop: the root needs no
// upward fixup.
void Simulator::pop_root() {
  const std::uint32_t removed = heap_[0].slot;
  const std::size_t last = heap_.size() - 1;
  if (last != 0) {
    heap_[0] = heap_[last];
    slots_[heap_[0].slot].heap_index = 0;
  }
  heap_.pop_back();
  if (last != 0) sift_down(0);
  slots_[removed].heap_index = kSlotFree;
}

// --- scheduling ----------------------------------------------------------

SimTime Simulator::clamp_deadline(SimTime when) {
  if (when >= now_) return when;
  // Rate-limited: a handful of warnings identifies the buggy timer without
  // drowning a long run; the limiter's count keeps the full tally.
  if (clamp_warnings_.allow()) {
    BCN_LOG_WARN(
        "sim: event scheduled %lld ns in the past clamped to now=%lld ns "
        "(occurrence %llu; see sim.schedule_clamped)",
        static_cast<long long>(now_ - when), static_cast<long long>(now_),
        static_cast<unsigned long long>(clamp_warnings_.count()));
  }
  return now_;
}

EventId Simulator::insert(SimTime when, std::uint32_t slot_index) {
  Slot& slot = slots_[slot_index];
  slot.when = clamp_deadline(when);
  slot.seq = next_seq_++;
  heap_push({make_key(slot.when, slot.seq), slot_index});
  return make_id(slot_index, slot.generation);
}

EventId Simulator::schedule_event(SimTime when, EventTarget* target,
                                  EventKind kind, std::uint32_t tag) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.target = target;
  slot.kind = kind;
  slot.tag = tag;
  return insert(when, index);
}

EventId Simulator::schedule_frame(SimTime when, EventTarget* target,
                                  std::uint32_t tag, const Frame& frame) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.target = target;
  slot.kind = EventKind::FrameArrival;
  slot.tag = tag;
  slot.payload.frame = frame;
  return insert(when, index);
}

EventId Simulator::schedule_bcn(SimTime when, EventTarget* target,
                                std::uint32_t tag, const BcnMessage& message) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.target = target;
  slot.kind = EventKind::BcnDelivery;
  slot.tag = tag;
  slot.payload.bcn = message;
  return insert(when, index);
}

EventId Simulator::schedule_pause(SimTime when, EventTarget* target,
                                  std::uint32_t tag, const PauseFrame& pause) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.target = target;
  slot.kind = EventKind::PauseDelivery;
  slot.tag = tag;
  slot.payload.pause = pause;
  return insert(when, index);
}

void Simulator::cancel(EventId id) {
  const std::int64_t index = resolve(id);
  if (index < 0) return;  // stale or invalid: no residue
  Slot& slot = slots_[static_cast<std::uint32_t>(index)];
  if (slot.heap_index < 0) return;  // defensive; live slots are in the heap
  heap_remove(slot.heap_index);
  release_slot(static_cast<std::uint32_t>(index));
  ++cancelled_;
}

bool Simulator::reschedule(EventId id, SimTime when) {
  const std::int64_t index = resolve(id);
  if (index < 0) return false;
  Slot& slot = slots_[static_cast<std::uint32_t>(index)];
  slot.when = clamp_deadline(when);
  slot.seq = next_seq_++;  // rescheduling re-enters the FIFO order, as a
                           // cancel + fresh schedule would
  ++rescheduled_;
  if (slot.heap_index >= 0) {
    const std::int32_t at = slot.heap_index;
    heap_[at].key = make_key(slot.when, slot.seq);
    sift_down(at);
    sift_up(slots_[static_cast<std::uint32_t>(index)].heap_index);
  } else {
    // Defensive: live slots are always in the heap.
    heap_push({make_key(slot.when, slot.seq),
               static_cast<std::uint32_t>(index)});
  }
  return true;
}

EventId Simulator::arm(EventId id, SimTime when, EventTarget* target,
                       EventKind kind, std::uint32_t tag) {
  if (reschedule(id, when)) return id;
  return schedule_event(when, target, kind, tag);
}

// --- presorted lane ------------------------------------------------------

void Simulator::append_sorted(SimTime when, EventTarget* target,
                              EventKind kind, const EventPayload& payload) {
  // No pending event is due before now(), so a pending tail is the floor.
  const SimTime floor = lane_.empty() ? now_ : key_when(lane_.back().key);
  if (when < floor) {
    throw std::logic_error("sim: lane append at " + std::to_string(when) +
                           " ns is before " + std::to_string(floor) +
                           " ns, the later of now and the lane's tail");
  }
  lane_.push_back({make_key(when, next_seq_++), target, kind, payload});
}

// --- delay FIFO ----------------------------------------------------------

void Simulator::schedule_after(SimTime delay, EventTarget* target,
                               EventKind kind) {
  if (delay < 0) {
    throw std::invalid_argument("sim: schedule_after delay " +
                                std::to_string(delay) + " ns is negative");
  }
  const SimTime when = now_ + delay;
  // A deadline ahead of the tail would unsort the ring: the heap takes
  // it, with the seq it would have had here.
  if (fifo_size_ != 0 &&
      when < key_when(fifo_[fifo_slot(fifo_size_ - 1)].key)) {
    schedule_event(when, target, kind, 0);
    return;
  }
  if (fifo_size_ == fifo_.size()) grow_fifo();
  fifo_[fifo_slot(fifo_size_)] = {make_key(when, next_seq_++), target, kind};
  ++fifo_size_;
}

// Doubles the full ring, unwrapping its pending events to the front.
void Simulator::grow_fifo() {
  std::vector<FifoEntry> grown(std::max<std::size_t>(16, 2 * fifo_.size()));
  for (std::size_t i = 0; i < fifo_size_; ++i) {
    grown[i] = fifo_[fifo_slot(i)];
  }
  fifo_.swap(grown);
  fifo_head_ = 0;
}

// Pops the FIFO head before its handler runs, which may schedule_after
// again; a FIFO event has no handle, so it fires with id kInvalidEvent.
void Simulator::fire_fifo_head() {
  const FifoEntry head = fifo_[fifo_head_];
  fifo_head_ = fifo_slot(1);
  --fifo_size_;
  now_ = key_when(head.key);
  ++executed_;
  SimEvent event;
  event.kind = head.kind;
  head.target->on_event(event);
}

// --- dispatch ------------------------------------------------------------

// Pops the lane head before its handler runs: the handler may append,
// which can grow (and move) the lane, so the dispatch view is a stack
// copy.  A lane event has no handle, so it fires with id kInvalidEvent.
void Simulator::fire_lane_head() {
  const LaneEntry& head = lane_[lane_head_];
  now_ = key_when(head.key);
  ++executed_;
  EventTarget* const target = head.target;
  SimEvent event;
  event.kind = head.kind;
  event.payload = head.payload;
  if (++lane_head_ == lane_.size()) {
    lane_.clear();  // drained: keep the capacity for the next batch
    lane_head_ = 0;
  }
  target->on_event(event);
}

std::size_t Simulator::run_until(SimTime until) {
  // make_key would wrap a negative horizon to the largest key.
  if (until < 0) {
    throw std::invalid_argument("sim: run_until horizon " +
                                std::to_string(until) + " ns is negative");
  }
  // One span per drain batch: args carry the simulated horizon and the
  // number of events executed inside it.
  obs::TraceSpan span("sim.run_until", "until_ns",
                      static_cast<double>(until));
  const std::size_t executed_before = executed_;
  const unsigned __int128 limit = make_key(until, ~0ull);
  while (true) {
    // One seq counter numbers all three sets, so keys are unique and the
    // least of the three heads is the next event of the single
    // (when, seq) order; an equal `when` never favours a FIFO.
    const unsigned __int128 heap = heap_key();
    const unsigned __int128 lane = lane_key();
    const unsigned __int128 fifo = fifo_key();
    if (fifo < heap && fifo < lane) {
      if (fifo > limit) break;
      fire_fifo_head();
      continue;
    }
    if (lane < heap) {
      if (lane > limit) break;
      fire_lane_head();
      continue;
    }
    if (heap_.empty() || heap > limit) break;
    const std::uint32_t top = heap_[0].slot;

    // Fire in place: the root entry stays in the heap while its handler
    // runs.  Anything the handler schedules or appends gets a later
    // (when, seq) key, so the firing entry keeps the root spot; a handler
    // that re-arms its own timer turns the usual pop + push into one
    // in-place sift.
    now_ = slots_[top].when;
    const std::uint64_t fired_seq = slots_[top].seq;
    const std::uint32_t fired_gen = slots_[top].generation;
    ++executed_;

    // Stack copy of the dispatch view: handlers may schedule freely
    // (which can grow the slab and invalidate Slot references).  Only the
    // active payload member is copied.
    SimEvent event;
    event.kind = slots_[top].kind;
    event.tag = slots_[top].tag;
    event.id = make_id(top, fired_gen);
    switch (event.kind) {
      case EventKind::FrameArrival:
        event.payload.frame = slots_[top].payload.frame;
        break;
      case EventKind::BcnDelivery:
        event.payload.bcn = slots_[top].payload.bcn;
        break;
      case EventKind::PauseDelivery:
      case EventKind::PauseExpiry:
        event.payload.pause = slots_[top].payload.pause;
        break;
      default:
        break;
    }
    slots_[top].target->on_event(event);

    // Unless the handler re-armed (fresh seq) or cancelled (fresh
    // generation) the fired event, retire it now.
    if (slots_[top].generation == fired_gen && slots_[top].seq == fired_seq) {
      const std::int32_t at = slots_[top].heap_index;
      if (at == 0) {
        pop_root();
      } else {
        heap_remove(at);  // defensive: the root spot should be retained
      }
      release_slot(top);
    }
  }
  now_ = std::max(now_, until);
  const std::size_t ran = executed_ - executed_before;
  span.arg("events", static_cast<double>(ran));
  span.arg("heap_hwm", static_cast<double>(heap_high_water_));
  return ran;
}

// --- metrics -------------------------------------------------------------

void Simulator::export_metrics(obs::MetricsRegistry& registry,
                               const std::string& prefix) const {
  registry.gauge(prefix + "heap_high_water")
      .set(static_cast<double>(heap_high_water_));
  registry.gauge(prefix + "pool_slots")
      .set(static_cast<double>(slots_.size()));
  registry.gauge(prefix + "pool_in_use")
      .set(static_cast<double>(slots_.size() - free_.size()));
  registry.counter(prefix + "events_executed").inc(executed_);
  registry.counter(prefix + "events_cancelled").inc(cancelled_);
  registry.counter(prefix + "events_rescheduled").inc(rescheduled_);
  registry.counter(prefix + "schedule_clamped").inc(clamp_warnings_.count());
}

}  // namespace bcn::sim
