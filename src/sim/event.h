// Typed POD event records for the discrete-event core.
//
// All simulation traffic -- frame hops, service completions, BCN and PAUSE
// deliveries, pacing tokens, periodic ticks -- is described by a small
// tagged union dispatched to the owning object.  The payload union holds
// only trivially-copyable wire structs, so an event record can live in a
// recycled pool slot and be copied to the dispatch stack without touching
// the allocator.
#pragma once

#include <cstdint>

#include "sim/frame.h"
#include "sim/time.h"

namespace bcn::sim {

// Handle for cancelling or rescheduling a scheduled event.  Encodes a pool
// slot and a generation; a handle held past the event's firing simply goes
// stale (its generation no longer matches) -- cancel/reschedule on a stale
// handle are cheap no-ops, never tombstones.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// What an event means to its owner.
enum class EventKind : std::uint8_t {
  FrameArrival,    // a Frame reaches a switch/port after a hop delay
  FrameDeparture,  // service completion at a queue's output
  BcnDelivery,     // a BcnMessage reaches its reaction point
  PauseDelivery,   // an 802.3x PAUSE reaches the paused hop
  PauseExpiry,     // a paused server may resume
  SourceToken,     // a source's pacing timer: emit the next frame
  Tick,            // periodic monitor / sample / self-increase timer
};

// Every payload member is trivially copyable; the union itself is left
// uninitialized (the kind says which member, if any, is live).
union EventPayload {
  Frame frame;
  BcnMessage bcn;
  PauseFrame pause;
  EventPayload() {}  // no member activated; kinds without payload use none
};

// The dispatch view handed to EventTarget::on_event.  `tag` is an
// owner-chosen discriminator so one target can own several channels or
// timers (e.g. a network distinguishing its sample tick from its BCN
// delivery channel); `id` is the handle of the firing event, usable with
// Simulator::reschedule to re-arm the same slot (timer reuse).
struct SimEvent {
  EventKind kind = EventKind::FrameArrival;
  std::uint32_t tag = 0;
  EventId id = kInvalidEvent;
  EventPayload payload;
};

// Implemented by every object that owns typed events (sources, switch
// ports, network/scenario wiring, test recorders).  Dispatch is a single
// virtual call; the payload is a stack copy, so handlers may schedule or
// cancel freely.
class EventTarget {
 public:
  virtual void on_event(const SimEvent& event) = 0;

 protected:
  ~EventTarget() = default;
};

}  // namespace bcn::sim
