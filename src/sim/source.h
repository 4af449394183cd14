// A traffic source behind its reaction-point rate regulator.
//
// The source is a saturating sender (it always has data, the parallel
// read/write pattern of cluster file systems the paper assumes) paced at
// the regulator's current rate; feedback messages adjust that rate, and
// 802.3x PAUSE frames suspend transmission entirely.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/frame.h"
#include "sim/rate_regulator.h"

namespace bcn::sim {

// What the application offers the regulator.
//   Saturating: always has data (the parallel read/write pattern of the
//     paper's Section III.A).
//   OnOff: deterministic on/off bursts -- active for on_time, silent for
//     off_time, repeating; models flow churn, which varies the effective
//     N the fluid model holds constant.
enum class TrafficPattern { Saturating, OnOff };

struct SourceConfig {
  SourceId id = 0;
  std::uint32_t dst = 0;  // destination carried in every frame
  double frame_bits = 12000.0;
  double initial_rate = 1e9;  // offered/paced rate at t = 0 [bits/s]
  SimTime start_at = 0;
  RegulatorConfig regulator;
  // Congestion-control mechanism for the regulator (sim/mechanism.h);
  // nullptr uses the shared BCN fluid-matched mechanism.  Not owned.
  const PacketMechanism* mechanism = nullptr;
  // Period of the self-increase recovery timer, armed only for mechanisms
  // with source-driven recovery (QCN; real QCN uses a byte counter -- a
  // timer is the simulator's deterministic equivalent).
  SimTime self_increase_period = 100 * kMicrosecond;

  TrafficPattern pattern = TrafficPattern::Saturating;
  SimTime on_time = 5 * kMillisecond;   // OnOff: burst length
  SimTime off_time = 5 * kMillisecond;  // OnOff: silence length
};

class Source : public EventTarget {
 public:
  Source(Simulator& sim, SourceConfig config);

  // Begins the pacing loop: frames go out over `link` (the scenario's
  // first hop, carrying the propagation delay), each optionally bumping
  // `sent_counter` at send time (the scenario's frames_sent accounting).
  void start(const EventLink& link, std::uint64_t* sent_counter = nullptr);

  void on_bcn(const BcnMessage& message);
  void on_pause(const PauseFrame& pause);

  // Typed-event dispatch: the pacing token and the self-increase tick.
  void on_event(const SimEvent& event) override;

  SourceId id() const { return config_.id; }
  double rate() const { return regulator_.rate(); }
  const RateRegulator& regulator() const { return regulator_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  // True while an 802.3x PAUSE holds this source's transmissions.
  bool is_paused(SimTime now) const { return now < paused_until_; }

 private:
  // Timer tags carried in this source's typed events.
  static constexpr std::uint32_t kTagSend = 0;
  static constexpr std::uint32_t kTagSelfIncrease = 1;

  void send_frame();
  void schedule_next(SimTime earliest);
  void repace();            // re-pace the pending send under the current rate
  void self_increase_tick();  // periodic recovery (QCN-style mechanisms)
  void arm_self_increase();
  // The inter-frame gap depends only on the regulator rate, which changes
  // orders of magnitude less often than frames are sent; cache it so the
  // per-frame path avoids a floating-point divide.
  void update_gap() {
    gap_ = transmission_time(config_.frame_bits, regulator_.rate());
  }

  Simulator& sim_;
  SourceConfig config_;
  RateRegulator regulator_;
  EventLink link_;
  std::uint64_t* sent_counter_ = nullptr;
  // The pacing timer's slot is reused for the lifetime of the source:
  // send_frame re-arms it, repace/on_pause move it in place.
  EventId send_timer_ = kInvalidEvent;
  EventId self_increase_timer_ = kInvalidEvent;
  SimTime gap_ = 0;  // cached transmission_time(frame_bits, rate)
  SimTime last_send_ = 0;
  SimTime paused_until_ = 0;
  std::uint64_t frames_sent_ = 0;
};

}  // namespace bcn::sim
