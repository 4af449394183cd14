// The congestion-spreading scenario from the paper's introduction: PAUSE
// "can roll back from switch to switch, affecting flows that do not
// contribute to the congestion, but happen to share a link with flows
// that do".
//
// Topology (two hops):
//
//   culprits (N x 1 Gbps) --\                       /-- port A: 1 Gbps  (hot)
//   victim   (1 x 1 Gbps) ---> E1 --10 Gbps--> CORE
//                                                   \-- port B: 10 Gbps (cold)
//
// Culprit traffic exits through CORE's slow port A and congests it; the
// victim's traffic uses the uncongested port B.  With hop-by-hop PAUSE
// alone, port A pauses the E1->CORE link, E1's queue backs up, E1 pauses
// *all* sources -- the victim collapses with the culprits.  With BCN at
// port A, only the culprit sources are throttled and the victim keeps its
// full rate.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/monitor.h"
#include "sim/faults.h"
#include "sim/time.h"

namespace bcn::obs {
class MetricsRegistry;
}

namespace bcn::sim {

class SimStats;

// Port labels used in the observer's event trace and timelines.
inline constexpr std::uint32_t kMultihopEdgePort = 1;
inline constexpr std::uint32_t kMultihopHotPort = 2;
inline constexpr std::uint32_t kMultihopColdPort = 3;

struct MultihopConfig {
  int num_culprits = 8;
  double line_rate = 10e9;     // sources' links, E1->CORE, CORE port B
  double hot_rate = 1e9;       // CORE port A (the congested downlink)
  double offered_rate = 1e9;   // per-source offered load
  double frame_bits = 12000.0;
  SimTime propagation_delay = 500;  // per hop [ns]
  SimTime duration = 50 * kMillisecond;

  bool enable_pause = true;  // hop-by-hop 802.3x back-pressure
  bool enable_bcn = false;   // BCN congestion point on port A

  // Buffers / thresholds.
  double edge_buffer = 5e6;
  double core_buffer = 5e6;
  double pause_threshold_fraction = 0.5;  // of the buffer
  // BCN knobs for port A.
  double bcn_q0 = 0.3e6;
  double bcn_pm = 0.2;
  double bcn_w = 2.0;

  // Optional observability sink: when set, the run records per-port
  // queue timelines ("port.edge/hot/cold.queue_bits"), the BCN/PAUSE
  // event trace, the hot port's sigma samples and the run's counters into
  // this SimStats.  Port counters sum over the edge, hot and cold ports;
  // deliveries (frames, bits, per-source bits) count only where frames
  // leave the fabric, at the hot and cold ports; frames_sent sums over
  // the sources.
  SimStats* observer = nullptr;
  // When set, the run exports its scheduler gauges/counters (heap high
  // water, pool occupancy, cancels, ...) under "sim." before returning.
  obs::MetricsRegistry* metrics = nullptr;

  // Degraded-network description (sim/faults.h).  Reverse-path faults
  // apply to the hot port's BCN/PAUSE and the edge's upstream PAUSE;
  // data_drop and flap windows apply on the E1 -> CORE forward link.
  // Counters export as "fault.*" into `metrics` when set.
  FaultPlan faults;

  // Runtime invariant monitors (obs/monitor.h), attached to all three
  // ports for per-frame queue checks; the sampled monitors observe the
  // hot port (the congestion point), whose stalled deliveries are what
  // the PFC-deadlock watchdog is after.  Exports "monitor.*" into
  // `metrics` when set.
  obs::MonitorConfig monitors;
};

struct MultihopResult {
  double victim_throughput = 0.0;    // bits/s delivered via port B
  double culprit_throughput = 0.0;   // bits/s delivered via port A
  std::uint64_t core_drops = 0;
  std::uint64_t edge_drops = 0;
  std::uint64_t pauses_core_to_edge = 0;
  std::uint64_t pauses_edge_to_sources = 0;
  std::uint64_t bcn_messages = 0;
  double edge_peak_queue = 0.0;
  double hot_peak_queue = 0.0;
  // Simulator events dispatched over the run (throughput benchmarking).
  std::size_t events_executed = 0;
  // Injected-fault tally (all zero when the plan is unarmed).
  FaultCounters fault_counters;
};

// Builds, runs and tears down one victim scenario.
MultihopResult run_victim_scenario(const MultihopConfig& config);

}  // namespace bcn::sim
