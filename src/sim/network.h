// Wiring of the paper's Fig. 1 reference topology -- one of several the
// repo simulates (two-hop chains live in multihop.cpp, generated
// fat-tree / leaf-spine fabrics in sim/shard):
// N homogeneous sources -> (edge, where the rate regulators live) ->
// core switch port (the congestion point, sim/switch_port.h) -> sink,
// with symmetric propagation delays and backward BCN / PAUSE delivery.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bcn_params.h"
#include "core/mechanism.h"
#include "obs/monitor.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/mechanism.h"
#include "sim/source.h"
#include "sim/stats.h"
#include "sim/switch_port.h"

namespace bcn::sim {

struct NetworkConfig {
  core::BcnParams params = core::BcnParams::standard_draft();
  double frame_bits = 12000.0;
  // One-way propagation delay on each hop (the paper assumes ~0.5 us for a
  // 100 m run); BCN messages travel backwards over the same delay.
  SimTime propagation_delay = 500;  // ns
  // Congestion-control mechanism by registry name (core/mechanism.h):
  // "bcn" (fluid-matched, default), "bcn-draft", "qcn", "rcp", "fera".
  std::string mechanism = "bcn";
  // Heterogeneous competition: when non-empty, the last `sources_b`
  // sources (default: half of them) run mechanism_b against `mechanism`
  // on the shared bottleneck.
  std::string mechanism_b;
  std::size_t sources_b = 0;
  // Per-mechanism knobs (the plant itself comes from `params`).
  core::RcpParams rcp;
  core::QcnParams qcn;
  core::FeraParams fera;
  double min_rate = 1e6;
  double max_rate = 0.0;  // 0 -> capacity (source line rate = C)
  // 0 -> every source starts at params.init_rate; the fluid analysis start
  // corresponds to initial_rate = C / N with an empty queue.
  double initial_rate = 0.0;
  bool enable_pause = true;
  SimTime record_interval = 10 * kMicrosecond;
  // Random (Bernoulli-pm) frame sampling at the congestion point instead
  // of the deterministic 1/pm count the fluid model assumes.
  bool random_sampling = false;
  std::uint64_t sampling_seed = 0x5eed;

  // Traffic pattern knobs (flow churn): sources start staggered by
  // `stagger` and, with TrafficPattern::OnOff, alternate bursts and
  // silences so the number of active flows varies over time.
  TrafficPattern pattern = TrafficPattern::Saturating;
  SimTime on_time = 5 * kMillisecond;
  SimTime off_time = 5 * kMillisecond;
  SimTime stagger = 0;

  // Per-flow rate / per-port queue timelines (SimStats::timelines()),
  // sampled every record_interval alongside the aggregate trace.  On by
  // default; large sweeps that only need the aggregate trace can turn it
  // off to save the N-per-sample memory.
  bool record_timelines = true;
  // Causal BCN / PAUSE event trace (SimStats::events()).  On by default;
  // recording sits on the per-sample fast path, so maximum-throughput runs
  // (the sim-throughput benchmark) turn it off.
  bool record_events = true;

  // Degraded-network description (sim/faults.h).  The default all-zero
  // plan leaves the simulation bit-identical to a build without fault
  // wiring.  Reverse-path faults (BCN drop/delay/dup, PAUSE loss) apply
  // at the core switch; data_drop and flap windows apply on the
  // source -> switch forward link.
  FaultPlan faults;

  // Runtime invariant monitors + flight recorder (obs/monitor.h).  The
  // default spec arms nothing and leaves the run identical to a build
  // without monitor wiring; an armed spec switches the event trace into
  // ring (flight-recorder) mode and checks invariants per frame and per
  // sample tick.
  obs::MonitorConfig monitors;
};

class Network : public EventTarget {
 public:
  explicit Network(NetworkConfig config);

  // Runs the simulation for `duration` of simulated time (cumulative).
  void run(SimTime duration);

  // Typed-event dispatch: forward frame deliveries, backward BCN / PAUSE
  // deliveries, and the periodic sample tick.
  void on_event(const SimEvent& event) override;

  const SimStats& stats() const { return stats_; }
  const FaultCounters& fault_counters() const { return fault_counters_; }
  const obs::RunMonitor& monitor() const { return monitor_; }
  obs::RunMonitor& monitor() { return monitor_; }
  const std::vector<std::unique_ptr<Source>>& sources() const {
    return sources_;
  }
  Simulator& simulator() { return sim_; }

  double aggregate_rate() const;
  double queue_bits() const { return switch_->queue_bits(); }

 private:
  // Channel tags carried in this network's typed events.
  static constexpr std::uint32_t kTagFrameToSwitch = 0;
  static constexpr std::uint32_t kTagBcnToSource = 1;
  static constexpr std::uint32_t kTagPauseToSources = 2;
  static constexpr std::uint32_t kTagSampleTick = 3;
  static constexpr std::uint32_t kTagFlapEdge = 4;

  void record_sample();
  void deliver_bcn(const BcnMessage& msg);
  void deliver_pause(const PauseFrame& pause);

  NetworkConfig config_;
  Simulator sim_;
  SimStats stats_;
  // Owned mechanism instances (declared before switch_/sources_, which
  // hold raw pointers into them, so they outlive their users).
  std::unique_ptr<PacketMechanism> mech_a_;
  std::unique_ptr<PacketMechanism> mech_b_;
  // Fault tally plus the two injection points: reverse-path faults at the
  // core switch, forward-link faults (data_drop, flaps) at frame delivery.
  FaultCounters fault_counters_;
  FaultInjector switch_faults_;
  FaultInjector link_faults_;
  // Invariant monitor; unarmed unless config_.monitors arms a spec.
  obs::RunMonitor monitor_;
  std::unique_ptr<SwitchPort> switch_;
  std::vector<std::unique_ptr<Source>> sources_;
  SimTime run_until_ = 0;
  // Reused periodic sample timer.
  EventId sample_timer_ = kInvalidEvent;
  // Cached timeline handles (stable references into stats_.timelines())
  // so per-sample recording does not re-resolve series names.
  obs::Timeline* queue_timeline_ = nullptr;
  std::vector<obs::Timeline*> flow_rate_timelines_;
};

}  // namespace bcn::sim
