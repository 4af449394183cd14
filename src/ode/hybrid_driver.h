// The hybrid driver's one body, templated over the switched system and a
// sample sink.
//
// A concrete law (core/fluid_laws.h) instantiates it directly, so the
// DOPRI5 stages, the guards and the mode rule inline; a sink that folds
// what it needs (core::summarize_fluid) keeps no trajectory.  Every
// instantiation performs the same arithmetic in the same order.
//
// A System provides
//   Vec2 rhs(int mode, double t, Vec2 z) const;     // mode's vector field
//   int mode_of(double t, Vec2 z) const;            // active mode at z
//   std::size_t guard_count() const;
//   double guard(std::size_t i, double t, Vec2 z) const;
// where mode_of must be consistent with the guards: the active mode may
// change only where some guard crosses zero.  A Sink provides
//   void sample(double t, Vec2 z);          // every recorded point
//   void mode_switch(const ModeSwitch& s);  // every mode change
// Samples arrive in time order.  A step's mode switch arrives before that
// step's samples, so a sample at or after a switch's time arrives after
// the switch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/log.h"
#include "common/math.h"
#include "obs/tracing.h"
#include "ode/dopri5.h"
#include "ode/events.h"
#include "ode/hybrid.h"

namespace bcn::ode {

// Integrates `system` over [t0, t1] from z0, handing the orbit to `sink`.
template <class System, class Sink>
HybridStats run_hybrid(const System& system, double t0, Vec2 z0, double t1,
                       const HybridOptions& options, Sink& sink) {
  HybridStats result;
  if (!std::isfinite(z0.x) || !std::isfinite(z0.y)) {
    result.nonfinite = true;
    result.nonfinite_t = t0;
    BCN_LOG_ERROR("ode: non-finite initial state (%g, %g) at t=%.9g", z0.x,
                  z0.y, t0);
    return result;
  }
  sink.sample(t0, z0);
  double last_sample_t = t0;
  const auto emit = [&](double t, Vec2 z) {
    sink.sample(t, z);
    last_sample_t = t;
  };
  if (t1 <= t0) {
    result.completed = true;
    return result;
  }

  obs::TraceSpan call_span("ode.integrate_hybrid", "span_t", t1 - t0);

  // The vector field of one mode as a plain callable for the stepper.
  const auto field = [&system](int m) {
    return [&system, m](double t, Vec2 z) { return system.rhs(m, t, z); };
  };

  const double span = t1 - t0;
  const double max_step =
      options.max_step > 0.0 ? options.max_step : span / 100.0;

  double t = t0;
  Vec2 z = z0;
  int mode = system.mode_of(t, z);

  Vec2 k1 = system.rhs(mode, t, z);
  double h = std::min(dopri5_initial_step_size(field(mode), t, z), max_step);
  h = std::min(h, t1 - t);

  double next_record =
      options.record_interval > 0.0 ? t0 + options.record_interval : 0.0;

  auto record_dense = [&](const DenseOutput& dense, double upto) {
    if (options.record_interval <= 0.0) return;
    while (next_record <= upto + 1e-18) {
      emit(next_record, dense.eval(next_record));
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
    const Dopri5Step step =
        dopri5_trial_step(field(mode), options.tol, t, z, k1, h);
    if (step.error > 1.0) {
      ++result.steps_rejected;
      h = dopri5_next_step_size(h, step.error);
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

    // The earliest guard crossing inside the step, if any.
    std::optional<LocatedEvent> crossing;
    std::size_t crossing_guard = 0;
    for (std::size_t gi = 0; gi < system.guard_count(); ++gi) {
      const auto ev = locate_event(
          [&](double tg, Vec2 zg) { return system.guard(gi, tg, zg); },
          dense);
      if (ev && (!crossing || ev->t < crossing->t)) {
        crossing = ev;
        crossing_guard = gi;
      }
    }
    if (crossing && crossing->t > t && crossing->t < step_end) {
      // Truncate the step at the event.
      result.event_bisection_iterations +=
          static_cast<std::size_t>(crossing->bisection_iterations);
      note_accepted_dt(crossing->t - t);
      t = crossing->t;
      z = crossing->z;

      // Escape past the surface so the next step starts strictly inside the
      // new region.  The bisection leaves z within its tolerance of the
      // surface, possibly still on the departing side; take growing micro
      // Euler probes until the guard sign matches the step-end sign.
      const int target_sign = sign(
          system.guard(crossing_guard, step_end, dense.eval(step_end)));
      const int from_mode = mode;
      double esc = std::max(1e-9 * h, options.min_step);
      for (int attempt = 0; attempt < 40; ++attempt) {
        const int probe_mode = system.mode_of(t, z);
        const Vec2 f_here = system.rhs(probe_mode, t, z);
        const Vec2 z_probe = z + esc * f_here;
        const double t_probe = t + esc;
        if (sign(system.guard(crossing_guard, t_probe, z_probe)) ==
                target_sign ||
            target_sign == 0) {
          t = t_probe;
          z = z_probe;
          break;
        }
        esc *= 4.0;
      }
      mode = system.mode_of(t, z);
      const bool switched = mode != from_mode;
      if (switched) {
        sink.mode_switch({t, z, static_cast<int>(crossing_guard), from_mode,
                          mode, crossing->bisection_iterations});
      }
      record_dense(dense, crossing->t);
      if (options.record_interval <= 0.0) emit(crossing->t, crossing->z);
      if (switched) {
        if (++switches > options.max_switches) return result;
        next_segment(mode);
      }
      k1 = system.rhs(mode, t, z);
      h = std::min({h, max_step, t1 - t});
      if (h <= 0.0) break;
      continue;
    }

    // Plain accepted step.
    note_accepted_dt(h);
    t = step_end;
    z = step.z_new;
    k1 = step.k_last;

    // Safety net: a mode change without a guard sign change happens when
    // the step started exactly on a surface (guard = 0 at the start is not
    // a crossing), e.g. leaving a buffer wall from the corner state.
    // Localizing is impossible from the guard alone, so switch at the step
    // end; steps near such departures are small.
    const int mode_now = system.mode_of(t, z);
    if (mode_now != mode) sink.mode_switch({t, z, -1, mode, mode_now, 0});
    record_dense(dense, step_end);
    if (options.record_interval <= 0.0) emit(t, z);
    if (mode_now != mode) {
      if (++switches > options.max_switches) return result;
      mode = mode_now;
      k1 = system.rhs(mode, t, z);
      next_segment(mode);
    }

    if (options.stop_when && options.stop_when(t, z)) {
      result.completed = true;
      result.stopped_early = true;
      return result;
    }

    h = dopri5_next_step_size(h, step.error);
    h = std::min({h, max_step, t1 - t});
    if (h <= 0.0) break;
    // Step size collapsed.  Break rather than return: when the remaining
    // span is a rounding sliver of t1 (h = t1 - t underflowing min_step
    // after ~span/h accumulations), the run IS complete and the final
    // tolerance check below must get the chance to say so.
    if (h < options.min_step && t < t1) break;
  }

  if (options.record_interval > 0.0 && last_sample_t < t) emit(t, z);
  result.completed = t >= t1 - 1e-12 * std::max(1.0, std::abs(t1));
  segment.reset();
  call_span.arg("accepted", static_cast<double>(result.steps_accepted));
  call_span.arg("switches", static_cast<double>(switches));
  return result;
}

// Integrates `system` over [t0, t1] from z0, recording every sample and
// switch.
template <class System>
HybridResult integrate_hybrid(const System& system, double t0, Vec2 z0,
                              double t1, const HybridOptions& options = {}) {
  RecordingSink sink;
  const HybridStats stats = run_hybrid(system, t0, z0, t1, options, sink);
  return {stats, std::move(sink.trajectory), std::move(sink.switches)};
}

}  // namespace bcn::ode
