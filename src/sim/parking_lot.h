// The parking-lot topology: two BCN congestion points in series.
//
//   group A (n_a sources) --> CP1 (C1) --+--> CP2 (C2) --> sink
//   group B (n_b sources) ---------------+
//
// Group A traverses both congestion points, group B only the second.
// This exercises the CPID-association rules of paper Section II.B end to
// end: a reaction point associates with the congestion point that first
// sends it negative feedback, its frames carry that CPID in the RRT tag,
// and *positive* feedback is only accepted from the matching congestion
// point -- so a flow bottlenecked at CP1 is never sped up by an idle CP2.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/faults.h"
#include "sim/time.h"

namespace bcn::sim {

struct ParkingLotConfig {
  int group_a = 4;             // sources traversing CP1 then CP2
  int group_b = 4;             // sources traversing only CP2
  double capacity1 = 10e9;     // CP1 link
  double capacity2 = 10e9;     // CP2 link
  double initial_rate = 2e9;   // per-source offered/start rate
  double frame_bits = 12000.0;
  double q0 = 2.5e6;
  double buffer = 30e6;
  double w = 2.0;
  double pm = 0.2;
  double gi = 0.5;
  double gd = 1.0 / 128.0;
  double ru = 8e6;
  SimTime propagation_delay = 500;
  SimTime duration = 60 * kMillisecond;
  // Causal BCN event traces at both congestion points; off for
  // maximum-throughput benchmark runs.
  bool record_events = true;

  // Degraded-network description (sim/faults.h).  Reverse-path faults
  // apply at both congestion points (independent RNG lanes per CPID);
  // data_drop and flap windows apply on the CP1 -> CP2 forward link.
  FaultPlan faults;
};

struct ParkingLotResult {
  double group_a_rate = 0.0;  // mean regulator rate at the end [bits/s]
  double group_b_rate = 0.0;
  double cp1_peak_queue = 0.0;
  double cp2_peak_queue = 0.0;
  std::uint64_t cp1_negatives = 0;
  std::uint64_t cp2_negatives = 0;
  std::uint64_t cp1_positives = 0;
  std::uint64_t cp2_positives = 0;
  // How many group-A regulators ended associated with CP1 vs CP2.
  int group_a_on_cp1 = 0;
  int group_a_on_cp2 = 0;
  std::uint64_t drops = 0;
  // Simulator events dispatched over the run (throughput benchmarking).
  std::size_t events_executed = 0;
  // Injected-fault tally (all zero when the plan is unarmed).
  FaultCounters fault_counters;
};

ParkingLotResult run_parking_lot(const ParkingLotConfig& config);

}  // namespace bcn::sim
