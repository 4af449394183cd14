// A switch output port, and the paper's congestion point (Fig. 1) when
// sampling is on: a drop-tail FIFO draining at the port capacity, frame
// sampling every 1/pm arrivals, sigma per eq. (1), and 802.3x PAUSE to
// the feeders when the queue crosses the severe-congestion threshold.
// The port itself can be paused by its downstream receiver.
//
// What feedback a sampled frame triggers is the attached congestion-
// control mechanism's decision (sim/mechanism.h): sigma-sign BCN
// messages for bcn/bcn-draft, negative-only for qcn, an explicit rate
// advertisement for fera/rcp.  The port owns the plant (queue, drain,
// sampling, PAUSE); the mechanism owns the feedback policy.
//
// Every single-topology scenario is built from these ports: the Network's
// bottleneck (sim/network.h), the parking lot's two congestion points
// (sim/parking_lot.h) and the victim scenario's edge, hot and cold ports
// (sim/multihop.h).  Generated datacenter fabrics use sim/shard.
#pragma once

#include <cstdint>
#include <deque>

#include "common/rng.h"
#include "obs/monitor.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/frame.h"
#include "sim/mechanism.h"
#include "sim/stats.h"

namespace bcn::sim {

struct SwitchPortConfig {
  // The CPID carried by this port's BCN messages and *Sent trace rows.
  CongestionPointId cpid = 0;
  // This port's identity in PAUSE trace rows and monitor queue checks
  // (ports without a congestion point have cpid 0 and would otherwise be
  // indistinguishable in a multi-port trace).
  std::uint32_t port_label = 0;
  double capacity = 10e9;    // service rate C [bits/s]
  double buffer_bits = 5e6;  // drop-tail limit B
  // PAUSE the feeders when the queue reaches this (the paper's qsc);
  // 0 disables.
  double pause_threshold = 0.0;
  SimTime pause_duration = 3355;  // 512-bit quanta x 65535 at 10 Gbps [ns]
  // Sampling probability (deterministic 1/pm); 0 = not a congestion point.
  double pm = 0.0;
  double q0 = 2.5e6;  // reference queue, eq. (1)
  double w = 2.0;     // sigma weight, eq. (1)
  // Draft semantics: positive BCN only reaches sources already associated
  // (tagged) with this congestion point.  The fluid model of the paper
  // assumes positive feedback reaches every source, so mechanisms doing
  // fluid-matched cross-validation disable this gate (the Network wiring
  // sets it from PacketMechanism::positive_requires_rrt()).
  bool positive_requires_rrt = true;
  // Sampling discipline: the paper models a *deterministic* 1/pm arrival
  // count; the original ECM proposal samples each arrival independently
  // with probability pm.  Both are supported; random sampling is seeded
  // and fully reproducible.
  bool random_sampling = false;
  std::uint64_t sampling_seed = 0x5eed;
};

class SwitchPort : public EventTarget {
 public:
  // `stats` receives every counter, BCN / PAUSE trace row, sigma sample
  // and per-source delivery; multi-port scenarios share one across their
  // ports, and each port's own tallies stay readable via counters().
  SwitchPort(Simulator& sim, SwitchPortConfig config, SimStats& stats);

  // Typed-event dispatch: service completion and pause expiry.
  void on_event(const SimEvent& event) override;

  // Downstream hop for frames completing service.  A port without one is
  // where frames leave the fabric: only there does a departure count as
  // delivered in the shared stats (frames, bits, per-source bits).
  void set_sink(const EventLink& link) { sink_ = link; }
  // Reverse paths: BCN to the sampled frame's source, PAUSE to the
  // feeders.  Without a BCN sender the port still samples (counts and
  // records sigma) but emits no feedback.
  void set_bcn_sender(const EventLink& link) { bcn_ = link; }
  void set_pause_sender(const EventLink& link) { pause_ = link; }

  // Congestion-control mechanism deciding a sampled frame's feedback;
  // required when the port samples (pm > 0) into a BCN sender.  Not
  // owned.
  void set_mechanism(PacketMechanism* mechanism) {
    mech_a_ = mechanism;
    hook_a_ = mechanism->wants_arrival_hook();
  }
  // Heterogeneous competition: sources with id >= first_b are handled by
  // `mechanism` instead of the primary one.
  void set_mechanism_split(PacketMechanism* mechanism, SourceId first_b) {
    mech_b_ = mechanism;
    hook_b_ = mechanism->wants_arrival_hook();
    first_b_ = first_b;
  }

  // Optional reverse-path fault injector (sim/faults.h): feedback drop /
  // delay / duplication and PAUSE loss are decided at emission time.
  // Scenarios only attach an injector when the plan is armed, so the
  // lossless path stays untouched.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Optional runtime invariant monitor (obs/monitor.h): per-frame queue
  // occupancy checks on enqueue/depart, keyed by port_label.  Like the
  // fault injector, scenarios only attach an armed monitor.
  void set_monitor(obs::RunMonitor* monitor) { monitor_ = monitor; }

  // Frame arrival.  Samples, possibly emits feedback / PAUSE, then
  // enqueues or drops.
  void on_frame(const Frame& frame);

  // 802.3x PAUSE received from the downstream receiver: stop serving.
  void on_pause(const PauseFrame& pause);

  double queue_bits() const { return queue_bits_; }
  // This port's own tallies.  frames_delivered / bits_delivered count
  // every departure, forwarded or not; frames_sent stays 0.
  const Counters& counters() const { return counters_; }

 private:
  // Timer tags carried in this port's typed events.
  static constexpr std::uint32_t kTagDepart = 0;
  static constexpr std::uint32_t kTagResume = 1;

  // Bumps one tally on this port and on the shared stats.
  void count(std::uint64_t Counters::*field) {
    ++(counters_.*field);
    ++(stats_.counters.*field);
  }

  void maybe_sample(const Frame& frame);
  void maybe_pause();
  void emit_bcn(const BcnMessage& message);
  void start_service();
  void finish_service();
  void resume_after_pause();

  // One-entry service-time memo: the drain rate is fixed and frame sizes
  // are usually uniform, so the per-departure floating-point divide
  // collapses to a compare.
  SimTime service_time(double bits) {
    if (bits != service_bits_) {
      service_bits_ = bits;
      service_gap_ = transmission_time(bits, config_.capacity);
    }
    return service_gap_;
  }

  Simulator& sim_;
  SwitchPortConfig config_;
  SimStats& stats_;
  Counters counters_;
  EventLink sink_;
  EventLink bcn_;
  EventLink pause_;
  FaultInjector* faults_ = nullptr;
  obs::RunMonitor* monitor_ = nullptr;
  // Primary mechanism (all sources) plus the optional competition split;
  // the arrival-hook flags are cached so the per-frame fast path skips
  // the virtual call for mechanisms without switch-side state.
  PacketMechanism* mech_a_ = nullptr;
  PacketMechanism* mech_b_ = nullptr;
  bool hook_a_ = false;
  bool hook_b_ = false;
  SourceId first_b_ = ~SourceId{0};

  std::deque<Frame> queue_;
  double queue_bits_ = 0.0;
  double service_bits_ = -1.0;
  SimTime service_gap_ = 0;
  bool serving_ = false;
  // Service-completion timer; its slot is re-armed back-to-back while the
  // queue stays busy and goes stale when the queue drains or the server
  // waits out a PAUSE.
  EventId depart_timer_ = kInvalidEvent;
  SimTime paused_until_ = 0;
  SimTime pause_cooldown_until_ = 0;

  std::uint64_t arrivals_since_sample_ = 0;
  std::uint64_t sample_every_ = 0;  // round(1/pm); 0 = no sampling
  double queue_at_last_sample_ = 0.0;

  Rng sampling_rng_;
};

}  // namespace bcn::sim
