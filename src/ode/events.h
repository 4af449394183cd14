// Event (switching-surface crossing) localization within one accepted
// DOPRI5 step, using its dense output.
#pragma once

#include <algorithm>
#include <optional>

#include "common/math.h"
#include "obs/tracing.h"
#include "ode/dopri5.h"

namespace bcn::ode {

struct LocatedEvent {
  double t = 0.0;  // event time
  Vec2 z;          // state at the event (from dense output)
  // Interval halvings the localization needed (0 when the crossing sat
  // exactly on the step end); feeds the integrator step statistics.
  int bisection_iterations = 0;
};

// If g(t, z(t)) changes sign over the dense-output interval [t0, t1],
// returns the earliest crossing, located by bisection to time tolerance
// `ttol` (relative to the step length).  Crossings are detected from the
// endpoint signs, so a double crossing inside one step can be missed —
// callers must keep steps below half the fastest oscillation period (the
// hybrid driver enforces a max-step for this reason).  `g` is any
// callable double(double t, Vec2 z).
template <class G>
std::optional<LocatedEvent> locate_event(const G& g, const DenseOutput& dense,
                                         double ttol = 1e-12) {
  const double t0 = dense.t0();
  const double t1 = dense.t1();
  const double g0 = g(t0, dense.eval(t0));
  const double g1 = g(t1, dense.eval(t1));
  if (g0 == 0.0) {
    // Event exactly at the step start: report it only if we are actually
    // leaving the surface (callers handle re-arming); treat as no event so
    // the driver does not loop on the surface.
    return std::nullopt;
  }
  if (g1 == 0.0) {
    return LocatedEvent{t1, dense.eval(t1), 0};
  }
  if (sign(g0) == sign(g1)) return std::nullopt;

  // Span only around actual bisections (the cheap same-sign rejection
  // above fires every step and stays untraced).
  obs::TraceSpan span("ode.locate_event");
  int iterations = 0;
  const auto root = bisect(
      [&](double t) { return g(t, dense.eval(t)); }, t0, t1,
      ttol * std::max(1.0, t1 - t0), 200, &iterations);
  span.arg("iterations", iterations);
  if (!root) return std::nullopt;
  return LocatedEvent{*root, dense.eval(*root), iterations};
}

}  // namespace bcn::ode
