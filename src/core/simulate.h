// Numeric integration of any fluid facet (core/mechanism.h) at its own
// ModelLevel with event-localized switching, producing a phase trace plus
// queue/rate summary statistics.  simulate_fluid and summarize_fluid are
// the fluid layer's only integration entry points; both run the facet's
// typed law through its integrate hook (core/fluid_laws.h) on the one
// driver (ode/hybrid_driver.h).
#pragma once

#include <array>
#include <optional>

#include "core/fluid_model.h"
#include "ode/hybrid.h"

namespace bcn::core {

struct FluidRunOptions {
  double duration = 0.05;          // seconds of model time
  double record_interval = 0.0;    // 0 -> record every accepted step
  ode::Tolerances tol{1e-9, 1e-9};
  std::optional<Vec2> z0;          // default: analysis start (-q0, 0)
  // Stop as soon as |x|/q0 + |y|/C falls below this (0 disables; ignored
  // for facets without an equilibrium, which never settle).
  double convergence_tol = 0.0;
  std::size_t max_steps = 4'000'000;
};

struct FluidRun {
  ode::Trajectory trajectory;             // (t, (x, y)) samples
  std::vector<ode::ModeSwitch> switches;  // localized region transitions
  bool completed = false;   // reached the horizon, converged or settled
  bool converged = false;   // stopped early via convergence_tol
  // Integrator step statistics (from ode::HybridResult): accepted and
  // rejected DOPRI5 trial steps, the smallest accepted time advance, and
  // the total event-localization bisection iterations.
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  double min_step = 0.0;
  std::size_t event_bisections = 0;
  // The integrator aborted on a NaN/Inf state (ode::HybridResult's
  // non-finite guard); nonfinite_t is the last finite time.  The
  // trajectory and extrema cover only the finite prefix.
  bool nonfinite = false;
  double nonfinite_t = 0.0;
  double max_x = 0.0;       // over t > 0 (initial point excluded)
  double min_x = 0.0;
  double max_y = 0.0;
  double min_y = 0.0;
  // Extrema restricted to t >= the first switching event: the first
  // switch between two interior modes (at Clipped, a buffer wall's
  // capture or release does not count).  Before it the motion departs
  // monotonically from the (legitimate) empty-queue start, so these are
  // the right quantities for the Definition-1 underflow check.  When no
  // such switch occurs they default to 0 (the origin limit).
  double post_switch_max_x = 0.0;
  double post_switch_min_x = 0.0;
};

// Integrates the facet from options.z0 (default (-q0, 0)) over
// options.duration.
FluidRun simulate_fluid(const FluidMechanism& facet,
                        const FluidRunOptions& options = {});

// simulate_fluid without the trajectory and switches, which stay empty,
// folded as the driver steps, so its allocations do not grow with the
// duration.  The numeric verdict's path.  Where the facet's fold may
// settle (FluidMechanism::extrema_fold) the run ends once max_x and
// post_switch_min_x are final (ExtremaFold::settled): the x extrema,
// completed and nonfinite are simulate_fluid's bit for bit, while the y
// extrema and the step counts cover the steps taken, and converged reads
// false if the fold settled first.  For every other facet each field is
// simulate_fluid's, bit for bit.
FluidRun summarize_fluid(const FluidMechanism& facet,
                         const FluidRunOptions& options = {});

// summarize_fluid of two facets of one law at interior levels (the
// Linearized and Nonlinear facets of one mechanism), a under options[0]
// and b under options[1], stepped together
// (FluidMechanism::integrate_pair): each run bit for bit its own
// summarize_fluid call's, at about the cost of the longer one.  Throws
// std::invalid_argument when the facets cannot pair.
std::array<FluidRun, 2> summarize_fluid_pair(
    const FluidMechanism& a, const FluidMechanism& b,
    const std::array<FluidRunOptions, 2>& options);

}  // namespace bcn::core
