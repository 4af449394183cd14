// Hybrid (switched-mode) planar ODE integration with event-localized mode
// transitions.
//
// The BCN fluid model is a variable-structure system: different vector
// fields on either side of the switching line sigma(z) = 0, possibly with
// additional buffer-wall modes.  Integrating it with a smooth-system driver
// smears the switching instant across a step; this driver localizes each
// surface crossing with the dense output + bisection and restarts the
// integration exactly at the crossing, which is what makes limit-cycle
// amplitudes and transient extrema trustworthy.
//
// This header holds the options and result types; the driver's body is
// ode::HybridOrbit (ode/hybrid_driver.h), templated over a concrete
// switched system, which ode::run_hybrid and ode::run_hybrid_pair run.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ode/dopri5.h"
#include "ode/trajectory.h"

namespace bcn::ode {

struct ModeSwitch {
  double t = 0.0;
  Vec2 z;
  int guard_index = -1;
  int from_mode = -1;
  int to_mode = -1;
  // Bisection iterations spent localizing this crossing (0 for the
  // safety-net step-end switches, which have no guard to bisect).
  int bisection_iterations = 0;
};

struct HybridOptions {
  Tolerances tol;
  double max_step = 0.0;   // 0 -> derived from the time span
  double min_step = 1e-14;
  std::size_t max_steps = 4'000'000;
  std::size_t max_switches = 100'000;
  // Optional early-stop predicate checked after each accepted step.
  std::function<bool(double, Vec2)> stop_when;
  // Record at this uniform interval from dense output; 0 -> every step.
  double record_interval = 0.0;
};

// The step statistics and end state of one hybrid run, whatever its
// sink kept of the orbit (ode/hybrid_driver.h).
struct HybridStats {
  bool completed = false;      // reached t1, stop_when fired or the
                               // sink settled (ode/hybrid_driver.h)
  bool stopped_early = false;  // stop_when fired
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  // Smallest time advance of any accepted step, including event-truncated
  // ones (0.0 until a step is accepted).
  double min_accepted_step = 0.0;
  // Total guard-localization bisection iterations across every surface
  // crossing (including crossings that did not change the mode).
  std::size_t event_bisection_iterations = 0;
  // The integration aborted because the state (or the initial condition)
  // went non-finite — a NaN/Inf out of the RHS.  `nonfinite_t` is the
  // time of the last finite state; the trajectory contains only finite
  // samples.  A NaN error estimate would otherwise *pass* the DOPRI5
  // acceptance test (NaN comparisons are false), so without this guard
  // non-finite states silently propagate into verdicts.
  bool nonfinite = false;
  double nonfinite_t = 0.0;
};

// One orbit of ode::run_hybrid_pair: run_hybrid's arguments besides
// the system.
template <class Sink>
struct HybridLane {
  double t0 = 0.0;
  Vec2 z0;
  double t1 = 0.0;
  const HybridOptions* options = nullptr;
  Sink* sink = nullptr;
};

struct HybridResult : HybridStats {
  Trajectory trajectory;
  std::vector<ModeSwitch> switches;
};

// A run_hybrid sink that keeps every sample and switch: HybridResult's
// trajectory and switches.
struct RecordingSink {
  Trajectory trajectory;
  std::vector<ModeSwitch> switches;

  void sample(double t, Vec2 z) { trajectory.push_back(t, z); }
  void mode_switch(const ModeSwitch& s) { switches.push_back(s); }
};

}  // namespace bcn::ode
