// The hybrid driver's one body, templated over the switched system and a
// sample sink: HybridOrbit, which run_hybrid steps alone and
// run_hybrid_pair steps two at a time.
//
// A concrete law (core/fluid_laws.h) instantiates it directly, so the
// DOPRI5 stages, the guards and the mode rule inline; a sink that folds
// what it needs (core::summarize_fluid) keeps no trajectory.  Every
// instantiation performs the same arithmetic in the same order, and a
// paired orbit the same as a lone one.
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
// the switch.  A sink may also provide
//   bool settled() const;                   // no later sample matters
// which the driver asks where it asks stop_when: a settled sink ends the
// orbit, completed but not stopped early.
#pragma once

#include <algorithm>
#include <array>
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

// One orbit of `system` over [t0, t1] from z0, handed to `sink`, held
// between trial steps: the driver's one body.  The constructor takes the
// first sample and the first mode, FSAL stage and step size; each
// finish_trial takes the trial step from (t(), z(), k1(), h()) under
// field() and runs everything after it: accept or reject, event location
// and escape, samples, switches, the stop rules and step-size control.
// run_hybrid runs one orbit through it, run_hybrid_pair two in lockstep.
template <class System, class Sink>
class HybridOrbit {
 public:
  // With `traced`, the orbit records its ode.integrate_hybrid span and
  // one ode.hybrid_segment span per inter-switch segment; a paired orbit
  // records neither, since two orbits' segments cannot nest.
  [[gnu::always_inline]] HybridOrbit(const System& system, double t0,
                                     Vec2 z0, double t1,
                                     const HybridOptions& options, Sink& sink,
                                     bool traced)
      : system_(system),
        options_(options),
        sink_(sink),
        traced_(traced),
        t1_(t1),
        t_(t0),
        z_(z0),
        last_sample_t_(t0) {
    if (!std::isfinite(z0.x) || !std::isfinite(z0.y)) {
      stats_.nonfinite = true;
      stats_.nonfinite_t = t0;
      BCN_LOG_ERROR("ode: non-finite initial state (%g, %g) at t=%.9g", z0.x,
                    z0.y, t0);
      return;
    }
    sink.sample(t0, z0);
    if (t1 <= t0) {
      stats_.completed = true;
      return;
    }
    if (traced_ && obs::tracing_enabled()) {
      call_span_ = std::make_unique<obs::TraceSpan>("ode.integrate_hybrid",
                                                    "span_t", t1 - t0);
    }
    const double span = t1 - t0;
    max_step_ = options.max_step > 0.0 ? options.max_step : span / 100.0;
    mode_ = system.mode_of(t_, z_);
    k1_ = system.rhs(mode_, t_, z_);
    h_ = std::min(dopri5_initial_step_size(field(), t_, z_), max_step_);
    h_ = std::min(h_, t1 - t_);
    next_record_ =
        options.record_interval > 0.0 ? t0 + options.record_interval : 0.0;
    stepping_ = true;
    next_segment();
    if (!(options.max_steps > 0 && t_ < t1_)) end();
  }

  // False once the orbit has ended; stats() is then final.
  bool stepping() const { return stepping_; }
  const HybridStats& stats() const { return stats_; }

  // The next trial step's inputs.
  const System& system() const { return system_; }
  int mode() const { return mode_; }
  double t() const { return t_; }
  Vec2 z() const { return z_; }
  Vec2 k1() const { return k1_; }
  double h() const { return h_; }
  const Tolerances& tol() const { return options_.tol; }
  // The current mode's vector field as a plain callable for the stepper.
  auto field() const {
    return [&system = system_, m = mode_](double t, Vec2 z) {
      return system.rhs(m, t, z);
    };
  }

  // Everything after the trial step `step` from (t(), z(), k1(), h()).
  [[gnu::always_inline]] void finish_trial(const Dopri5Step& step) {
    if (step.error > 1.0) {
      ++stats_.steps_rejected;
      h_ = dopri5_next_step_size(h_, step.error);
      if (h_ < options_.min_step) return close();
      return next();
    }
    ++stats_.steps_accepted;
    // Fail fast on a non-finite step end: a NaN error estimate passes
    // the acceptance test above (NaN > 1.0 is false), so this is the
    // first place a blown-up RHS becomes detectable.  Abort before the
    // dense output / guard machinery sees the poisoned coefficients.
    if (!std::isfinite(step.z_new.x) || !std::isfinite(step.z_new.y)) {
      stats_.nonfinite = true;
      stats_.nonfinite_t = t_;
      BCN_LOG_ERROR(
          "ode: non-finite state after step from t=%.9g (mode %d); "
          "aborting integration",
          t_, mode_);
      return close();
    }
    const DenseOutput dense(t_, h_, step.rcont);
    const double step_end = t_ + h_;

    // The earliest guard crossing inside the step, if any.
    std::optional<LocatedEvent> crossing;
    std::size_t crossing_guard = 0;
    for (std::size_t gi = 0; gi < system_.guard_count(); ++gi) {
      const auto ev = locate_event(
          [&system = system_, gi](double tg, Vec2 zg) {
            return system.guard(gi, tg, zg);
          },
          dense);
      if (ev && (!crossing || ev->t < crossing->t)) {
        crossing = ev;
        crossing_guard = gi;
      }
    }
    if (crossing && crossing->t > t_ && crossing->t < step_end) {
      // Truncate the step at the event.
      stats_.event_bisection_iterations +=
          static_cast<std::size_t>(crossing->bisection_iterations);
      note_accepted_dt(crossing->t - t_);
      t_ = crossing->t;
      z_ = crossing->z;

      // Escape past the surface so the next step starts strictly inside
      // the new region.  The bisection leaves z within its tolerance of
      // the surface, possibly still on the departing side; take growing
      // micro Euler probes until the guard sign matches the step-end
      // sign.
      const int target_sign = sign(
          system_.guard(crossing_guard, step_end, dense.eval(step_end)));
      const int from_mode = mode_;
      double esc = std::max(1e-9 * h_, options_.min_step);
      for (int attempt = 0; attempt < 40; ++attempt) {
        const int probe_mode = system_.mode_of(t_, z_);
        const Vec2 f_here = system_.rhs(probe_mode, t_, z_);
        const Vec2 z_probe = z_ + esc * f_here;
        const double t_probe = t_ + esc;
        if (sign(system_.guard(crossing_guard, t_probe, z_probe)) ==
                target_sign ||
            target_sign == 0) {
          t_ = t_probe;
          z_ = z_probe;
          break;
        }
        esc *= 4.0;
      }
      mode_ = system_.mode_of(t_, z_);
      const bool switched = mode_ != from_mode;
      if (switched) {
        sink_.mode_switch({t_, z_, static_cast<int>(crossing_guard),
                           from_mode, mode_, crossing->bisection_iterations});
      }
      record_dense(dense, crossing->t);
      if (options_.record_interval <= 0.0) emit(crossing->t, crossing->z);
      if (switched) {
        if (++switches_ > options_.max_switches) return close();
        next_segment();
      }
      k1_ = system_.rhs(mode_, t_, z_);
      h_ = std::min({h_, max_step_, t1_ - t_});
      if (h_ <= 0.0) return end();
      return next();
    }

    // Plain accepted step.
    note_accepted_dt(h_);
    t_ = step_end;
    z_ = step.z_new;
    k1_ = step.k_last;

    // Safety net: a mode change without a guard sign change happens when
    // the step started exactly on a surface (guard = 0 at the start is
    // not a crossing), e.g. leaving a buffer wall from the corner state.
    // Localizing is impossible from the guard alone, so switch at the
    // step end; steps near such departures are small.
    const int mode_now = system_.mode_of(t_, z_);
    if (mode_now != mode_) sink_.mode_switch({t_, z_, -1, mode_, mode_now, 0});
    record_dense(dense, step_end);
    if (options_.record_interval <= 0.0) emit(t_, z_);
    if (mode_now != mode_) {
      if (++switches_ > options_.max_switches) return close();
      mode_ = mode_now;
      k1_ = system_.rhs(mode_, t_, z_);
      next_segment();
    }

    if (options_.stop_when && options_.stop_when(t_, z_)) {
      stats_.completed = true;
      stats_.stopped_early = true;
      return close();
    }
    if constexpr (requires { sink_.settled(); }) {
      if (sink_.settled()) {
        stats_.completed = true;
        return close();
      }
    }

    h_ = dopri5_next_step_size(h_, step.error);
    h_ = std::min({h_, max_step_, t1_ - t_});
    if (h_ <= 0.0) return end();
    // Step size collapsed.  End rather than close: when the remaining
    // span is a rounding sliver of t1 (h = t1 - t underflowing min_step
    // after ~span/h accumulations), the run IS complete and the final
    // tolerance check in end() must get the chance to say so.
    if (h_ < options_.min_step && t_ < t1_) return end();
    next();
  }

 private:
  // Every helper inlines, so that no call takes the orbit's address and
  // its state can stay in registers across the step.
  [[gnu::always_inline]] void emit(double t, Vec2 z) {
    sink_.sample(t, z);
    last_sample_t_ = t;
  }
  [[gnu::always_inline]] void record_dense(const DenseOutput& dense,
                                           double upto) {
    if (options_.record_interval <= 0.0) return;
    while (next_record_ <= upto + 1e-18) {
      emit(next_record_, dense.eval(next_record_));
      next_record_ += options_.record_interval;
    }
  }
  [[gnu::always_inline]] void note_accepted_dt(double dt) {
    min_dt_ = std::min(min_dt_, dt);
    stats_.min_accepted_step = min_dt_;
  }
  // One span per inter-switch segment: a Perfetto view of a hybrid run
  // shows how wall-clock splits across the mode episodes.  Strict
  // nesting holds: the segment span is always the innermost open span
  // on this thread whenever it is replaced.  A span links to its parent
  // by address, so it lives on the heap, allocated only when tracing is
  // on: an untraced run never touches it.
  [[gnu::always_inline]] void next_segment() {
    if (!traced_ || !obs::tracing_enabled()) return;
    segment_.reset();
    segment_ = std::make_unique<obs::TraceSpan>("ode.hybrid_segment", "mode",
                                                mode_);
  }
  // The next trial step, while the step budget and the span last.
  [[gnu::always_inline]] void next() {
    if (!(++step_ < options_.max_steps && t_ < t1_)) end();
  }
  // The orbit ran out of span, steps or step size: the last sample and
  // the completion test.
  [[gnu::always_inline]] void end() {
    if (options_.record_interval > 0.0 && last_sample_t_ < t_) emit(t_, z_);
    stats_.completed = t_ >= t1_ - 1e-12 * std::max(1.0, std::abs(t1_));
    close();
  }
  // The orbit ended, however; its stats are final.  The call span takes
  // the step and switch counts, and the segment span ends before the
  // call span that encloses it.
  [[gnu::always_inline]] void close() {
    if (call_span_) {
      call_span_->arg("accepted", static_cast<double>(stats_.steps_accepted));
      call_span_->arg("switches", static_cast<double>(switches_));
    }
    segment_.reset();
    call_span_.reset();
    stepping_ = false;
  }

  const System& system_;
  const HybridOptions& options_;
  Sink& sink_;
  bool traced_;
  bool stepping_ = false;
  double t1_;
  double max_step_ = 0.0;
  double t_;
  Vec2 z_;
  Vec2 k1_;
  double h_ = 0.0;
  int mode_ = 0;
  std::size_t step_ = 0;
  std::size_t switches_ = 0;
  double next_record_ = 0.0;
  double last_sample_t_;
  double min_dt_ = std::numeric_limits<double>::infinity();
  HybridStats stats_;
  std::unique_ptr<obs::TraceSpan> call_span_;
  std::unique_ptr<obs::TraceSpan> segment_;
};

// Integrates `system` over [t0, t1] from z0, handing the orbit to `sink`.
template <class System, class Sink>
HybridStats run_hybrid(const System& system, double t0, Vec2 z0, double t1,
                       const HybridOptions& options, Sink& sink) {
  HybridOrbit<System, Sink> orbit(system, t0, z0, t1, options, sink, true);
  while (orbit.stepping()) {
    orbit.finish_trial(dopri5_trial_step(orbit.field(), orbit.tol(),
                                         orbit.t(), orbit.z(), orbit.k1(),
                                         orbit.h()));
  }
  return orbit.stats();
}

// Integrates two orbits of one system type together, systems[i] from
// lanes[i]: stats[i] and every sample and switch lanes[i].sink receives
// are run_hybrid's for that orbit, bit for bit.  One loop takes both
// orbits' trial steps as one packed step (Vec2Pair) and finishes each
// orbit's step on its own, so the two step chains, each waiting on its
// error norm, overlap.  An orbit that has ended stops stepping; its lane
// then repeats the live orbit's step, whose inputs are finite, and the
// result is dropped.
template <class System, class Sink>
std::array<HybridStats, 2> run_hybrid_pair(
    const std::array<const System*, 2>& systems,
    const std::array<HybridLane<Sink>, 2>& lanes) {
  obs::TraceSpan span("ode.integrate_hybrid_pair");
  using Orbit = HybridOrbit<System, Sink>;
  Orbit a(*systems[0], lanes[0].t0, lanes[0].z0, lanes[0].t1,
          *lanes[0].options, *lanes[0].sink, false);
  Orbit b(*systems[1], lanes[1].t0, lanes[1].z0, lanes[1].t1,
          *lanes[1].options, *lanes[1].sink, false);
  while (a.stepping() || b.stepping()) {
    const Orbit& p = a.stepping() ? a : b;
    const Orbit& q = b.stepping() ? b : a;
    const auto field = [&p, &q](LanePair t, Vec2Pair z) {
      return Vec2Pair::of(p.system().rhs(p.mode(), t[0], z.lane(0)),
                          q.system().rhs(q.mode(), t[1], z.lane(1)));
    };
    const Dopri5StepPair step = dopri5_trial(
        field, LanePair{p.tol().abs_tol, q.tol().abs_tol},
        LanePair{p.tol().rel_tol, q.tol().rel_tol}, LanePair{p.t(), q.t()},
        Vec2Pair::of(p.z(), q.z()), Vec2Pair::of(p.k1(), q.k1()),
        LanePair{p.h(), q.h()});
    if (a.stepping()) a.finish_trial(lane_step(step, 0));
    if (b.stepping()) b.finish_trial(lane_step(step, 1));
  }
  span.arg("accepted", static_cast<double>(a.stats().steps_accepted +
                                           b.stats().steps_accepted));
  return {a.stats(), b.stats()};
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
