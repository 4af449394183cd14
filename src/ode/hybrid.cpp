#include "ode/hybrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "common/log.h"
#include "common/math.h"
#include "obs/tracing.h"
#include "ode/events.h"
#include "ode/steppers.h"

namespace bcn::ode {
namespace {

// Finds the earliest guard crossing inside one accepted step, if any.
struct EarliestEvent {
  LocatedEvent event;
  int guard_index = -1;
};

std::optional<EarliestEvent> earliest_guard_crossing(
    const std::vector<Guard>& guards, const DenseOutput& dense) {
  std::optional<EarliestEvent> earliest;
  for (std::size_t gi = 0; gi < guards.size(); ++gi) {
    const auto ev = locate_event(guards[gi], dense);
    if (!ev) continue;
    if (!earliest || ev->t < earliest->event.t) {
      earliest = EarliestEvent{*ev, static_cast<int>(gi)};
    }
  }
  return earliest;
}

}  // namespace

HybridResult integrate_hybrid(const HybridSystem& system, double t0, Vec2 z0,
                              double t1, const HybridOptions& options) {
  assert(!system.modes.empty());
  assert(system.mode_of);

  HybridResult result;
  if (!std::isfinite(z0.x) || !std::isfinite(z0.y)) {
    result.nonfinite = true;
    result.nonfinite_t = t0;
    BCN_LOG_ERROR("ode: non-finite initial state (%g, %g) at t=%.9g", z0.x,
                  z0.y, t0);
    return result;
  }
  result.trajectory.push_back(t0, z0);
  if (t1 <= t0) {
    result.completed = true;
    return result;
  }

  obs::TraceSpan call_span("ode.integrate_hybrid", "span_t", t1 - t0);

  // One stepper per mode; they share tolerances.
  std::vector<Dopri5> steppers;
  steppers.reserve(system.modes.size());
  for (const Rhs& f : system.modes) steppers.emplace_back(f, options.tol);

  const double span = t1 - t0;
  const double max_step =
      options.max_step > 0.0 ? options.max_step : span / 100.0;

  double t = t0;
  Vec2 z = z0;
  int mode = system.mode_of(t, z);
  assert(mode >= 0 && static_cast<std::size_t>(mode) < system.modes.size());

  Vec2 k1 = steppers[mode].compute_k1(t, z);
  double h = std::min(steppers[mode].initial_step_size(t, z), max_step);
  h = std::min(h, t1 - t);

  double next_record =
      options.record_interval > 0.0 ? t0 + options.record_interval : 0.0;

  auto record_dense = [&](const DenseOutput& dense, double upto) {
    if (options.record_interval <= 0.0) return;
    while (next_record <= upto + 1e-18) {
      result.trajectory.push_back(next_record, dense.eval(next_record));
      next_record += options.record_interval;
    }
  };

  std::size_t switches = 0;
  double min_dt = std::numeric_limits<double>::infinity();
  const auto note_accepted_dt = [&](double dt) {
    min_dt = std::min(min_dt, dt);
    result.min_accepted_step = min_dt;
  };

  // One child span per inter-switch segment: a Perfetto view of a hybrid
  // run shows how wall-clock splits across the mode episodes.  Strict
  // nesting holds — the segment span is always the innermost open span
  // on this thread whenever it is replaced.  A span links to its parent
  // by address, so it lives on the heap, allocated only when tracing is
  // on: an untraced run never touches it.
  std::unique_ptr<obs::TraceSpan> segment;
  const auto next_segment = [&](int new_mode) {
    if (!obs::tracing_enabled()) return;
    segment.reset();
    segment = std::make_unique<obs::TraceSpan>("ode.hybrid_segment", "mode",
                                               new_mode);
  };
  next_segment(mode);
  for (std::size_t i = 0; i < options.max_steps && t < t1; ++i) {
    const Dopri5Step step = steppers[mode].trial_step(t, z, k1, h);
    if (step.error > 1.0) {
      ++result.steps_rejected;
      h = steppers[mode].next_step_size(h, step.error);
      if (h < options.min_step) return result;
      continue;
    }
    ++result.steps_accepted;
    // Fail fast on a non-finite step end: a NaN error estimate passes
    // the acceptance test above (NaN > 1.0 is false), so this is the
    // first place a blown-up RHS becomes detectable.  Abort before the
    // dense output / guard machinery sees the poisoned coefficients.
    if (!std::isfinite(step.z_new.x) || !std::isfinite(step.z_new.y)) {
      result.nonfinite = true;
      result.nonfinite_t = t;
      BCN_LOG_ERROR(
          "ode: non-finite state after step from t=%.9g (mode %d); "
          "aborting integration",
          t, mode);
      segment.reset();
      return result;
    }
    const DenseOutput dense(t, h, step.rcont);
    const double step_end = t + h;

    const auto crossing = earliest_guard_crossing(system.guards, dense);
    if (crossing && crossing->event.t > t && crossing->event.t < step_end) {
      // Truncate the step at the event.
      result.event_bisection_iterations +=
          static_cast<std::size_t>(crossing->event.bisection_iterations);
      note_accepted_dt(crossing->event.t - t);
      record_dense(dense, crossing->event.t);
      t = crossing->event.t;
      z = crossing->event.z;
      if (options.record_interval <= 0.0) result.trajectory.push_back(t, z);

      // Escape past the surface so the next step starts strictly inside the
      // new region.  The bisection leaves z within its tolerance of the
      // surface, possibly still on the departing side; take growing micro
      // Euler probes until the guard sign matches the step-end sign.
      const Guard& guard = system.guards[crossing->guard_index];
      const int target_sign = sign(guard(step_end, dense.eval(step_end)));
      const int from_mode = mode;
      double esc = std::max(1e-9 * h, options.min_step);
      for (int attempt = 0; attempt < 40; ++attempt) {
        const int probe_mode = system.mode_of(t, z);
        const Vec2 f_here = system.modes[probe_mode](t, z);
        const Vec2 z_probe = z + esc * f_here;
        const double t_probe = t + esc;
        if (sign(guard(t_probe, z_probe)) == target_sign ||
            target_sign == 0) {
          t = t_probe;
          z = z_probe;
          break;
        }
        esc *= 4.0;
      }
      mode = system.mode_of(t, z);
      if (mode != from_mode) {
        result.switches.push_back({t, z, crossing->guard_index, from_mode,
                                   mode,
                                   crossing->event.bisection_iterations});
        if (++switches > options.max_switches) return result;
        next_segment(mode);
      }
      k1 = steppers[mode].compute_k1(t, z);
      h = std::min({h, max_step, t1 - t});
      if (h <= 0.0) break;
      continue;
    }

    // Plain accepted step.
    note_accepted_dt(h);
    record_dense(dense, step_end);
    t = step_end;
    z = step.z_new;
    k1 = step.k_last;
    if (options.record_interval <= 0.0) result.trajectory.push_back(t, z);

    // Safety net: a mode change without a guard sign change happens when
    // the step started exactly on a surface (guard = 0 at the start is not
    // a crossing), e.g. leaving a buffer wall from the corner state.
    // Localizing is impossible from the guard alone, so switch at the step
    // end; steps near such departures are small.
    const int mode_now = system.mode_of(t, z);
    if (mode_now != mode) {
      result.switches.push_back({t, z, -1, mode, mode_now, 0});
      if (++switches > options.max_switches) return result;
      mode = mode_now;
      k1 = steppers[mode].compute_k1(t, z);
      next_segment(mode);
    }

    if (options.stop_when && options.stop_when(t, z)) {
      result.completed = true;
      result.stopped_early = true;
      return result;
    }

    h = steppers[mode].next_step_size(h, step.error);
    h = std::min({h, max_step, t1 - t});
    if (h <= 0.0) break;
    // Step size collapsed.  Break rather than return: when the remaining
    // span is a rounding sliver of t1 (h = t1 - t underflowing min_step
    // after ~span/h accumulations), the run IS complete and the final
    // tolerance check below must get the chance to say so.
    if (h < options.min_step && t < t1) break;
  }

  if (options.record_interval > 0.0 && result.trajectory.back().t < t) {
    result.trajectory.push_back(t, z);
  }
  result.completed = t >= t1 - 1e-12 * std::max(1.0, std::abs(t1));
  segment.reset();
  call_span.arg("accepted", static_cast<double>(result.steps_accepted));
  call_span.arg("switches", static_cast<double>(result.switches.size()));
  return result;
}

}  // namespace bcn::ode
