// A recording EventTarget: the typed way for a test to see what an entity
// emits.  Wire the entity's sink / BCN / PAUSE output into the recorder
// over a zero-delay EventLink (link()); every dispatched event is kept in
// firing order with its simulated arrival time, and each payload lands in
// the matching list.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace bcn::sim::testing {

class Recorder : public EventTarget {
 public:
  struct Entry {
    EventKind kind;
    std::uint32_t tag;
    SimTime at;
  };

  explicit Recorder(Simulator& sim) : sim_(sim) {}

  void on_event(const SimEvent& event) override {
    entries_.push_back({event.kind, event.tag, sim_.now()});
    last_ = event;
    switch (event.kind) {
      case EventKind::FrameArrival:
        frames_.push_back(event.payload.frame);
        break;
      case EventKind::BcnDelivery:
        bcn_.push_back(event.payload.bcn);
        break;
      case EventKind::PauseDelivery:
        pauses_.push_back(event.payload.pause);
        break;
      default:
        break;
    }
  }

  // A zero-delay hop into this recorder.
  EventLink link(std::uint32_t tag = 0) {
    return EventLink(sim_, this, tag, 0);
  }

  // Delivers everything already sent at the current instant.
  void flush() { sim_.run_until(sim_.now()); }

  const std::vector<Entry>& entries() const { return entries_; }
  const SimEvent& last() const { return last_; }
  const std::vector<Frame>& frames() const { return frames_; }
  const std::vector<BcnMessage>& bcn() const { return bcn_; }
  const std::vector<PauseFrame>& pauses() const { return pauses_; }

  // Arrival times of every recorded event, in firing order.
  std::vector<SimTime> times() const {
    std::vector<SimTime> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.at);
    return out;
  }

 private:
  Simulator& sim_;
  std::vector<Entry> entries_;
  SimEvent last_;
  std::vector<Frame> frames_;
  std::vector<BcnMessage> bcn_;
  std::vector<PauseFrame> pauses_;
};

}  // namespace bcn::sim::testing
