// Causal event trace for the congestion-control plane: every BCN
// feedback frame (who was sampled, the sigma value, any advertised rate)
// and every 802.3x PAUSE on/off transition, both at the emitting switch
// and at the reacting regulator.
//
// Pairing a *Sent event with the matching *Applied event (same flow,
// later t) reconstructs the feedback loop frame by frame — the
// event-level view the aggregate counters cannot provide.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace bcn::obs {

enum class EventKind {
  BcnNegativeSent,   // switch sampled a frame, sigma < 0
  BcnPositiveSent,   // switch sampled a frame, sigma > 0
  BcnRateAdvertSent, // FERA explicit-rate advertisement (value = rate)
  BcnApplied,        // regulator applied feedback (value = rate after)
  PauseOn,           // switch asserted PAUSE (value = duration, seconds)
  PauseOff,          // that PAUSE's scheduled expiry
  PauseApplied,      // a source's regulator entered the paused state
  // Injected faults (sim/faults.h): a *Sent event with no matching
  // *Applied pairs with one of these to show where the loop broke.
  FaultBcnDropped,   // notification lost on the reverse path
  FaultBcnDelayed,   // notification delayed (value = extra delay, s)
  FaultBcnDuplicated,// notification duplicated
  FaultDataDropped,  // data frame lost on the forward link
  FaultPauseDropped, // PAUSE frame lost on the reverse path
  LinkDown,          // timed flap: link went dead (point = link label)
  LinkUp,            // timed flap: link restored
};

// `point` is the emitting congestion point / port label; `flow` the
// sampled or reacting source.  Fields that do not apply to a kind are 0.
struct TraceEvent {
  double t = 0.0;  // seconds
  EventKind kind = EventKind::BcnNegativeSent;
  std::uint32_t point = 0;
  std::uint32_t flow = 0;
  double sigma = 0.0;
  double value = 0.0;
};

class EventTrace {
 public:
  void record(const TraceEvent& event) {
    if (!enabled_) return;
    if (ring_capacity_ == 0) {
      events_.push_back(event);
      return;
    }
    record_ring(event);
  }

  // Recording switch for maximum-throughput runs: record() on a disabled
  // trace is a near-free early-out, so simulators can leave their
  // recording calls unconditional.  Enabled by default.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Flight-recorder mode: bound the trace to the `capacity` most recent
  // events, evicting the oldest (recording order) once full.  0 (the
  // default) keeps the legacy unbounded vector.  Must be set before any
  // event is recorded; switching modes mid-trace is a caller bug.
  void set_ring_capacity(std::size_t capacity);
  std::size_t ring_capacity() const { return ring_capacity_; }
  // Events evicted by the ring so far (0 in unbounded mode).
  std::uint64_t evicted() const { return evicted_; }

  // Raw storage view.  In ring mode the slot order is NOT recording order
  // once the ring has wrapped; use in_order() / recent() for chronology.
  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  std::uint64_t count(EventKind kind) const;

  // Retained events in recording order (oldest surviving first).
  std::vector<TraceEvent> in_order() const;
  // The last min(n, size()) retained events in recording order.
  std::vector<TraceEvent> recent(std::size_t n) const;

  static const char* kind_name(EventKind kind);

  // CSV columns t,kind,point,flow,sigma,value; rows sorted by time
  // (stable over recording order, so same-instant events keep it).
  // PauseOff expiries are recorded with their future timestamp, hence
  // the sort.
  bool write_csv(const std::filesystem::path& path) const;

 private:
  void record_ring(const TraceEvent& event);

  std::vector<TraceEvent> events_;
  bool enabled_ = true;
  std::size_t ring_capacity_ = 0;  // 0 = unbounded
  std::size_t ring_head_ = 0;      // oldest slot once the ring is full
  std::uint64_t evicted_ = 0;
};

}  // namespace bcn::obs
