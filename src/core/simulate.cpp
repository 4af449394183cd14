#include "core/simulate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

namespace bcn::core {
namespace {

// ExtremaFold::turn marks max_x final at a peak whose Hermite bound sits
// more than kSettleMargin x-spans below it, and the post-switch min_x
// final at a dip after the first switch whose bound sits that far above
// it.  A law whose extrema settle has x' = y and, on y = 0, y' of the
// sign of -x, so each half of the x-axis is a transversal section; its
// field is continuous across the switching line, so orbits are unique,
// and successive crossings of a transversal section are monotone along
// it (the Poincare-Bendixson lemma).  Those crossings are the orbit's
// x-peaks (x > 0) and x-dips (x < 0, the start among them), and every
// sample lies between the two turns around it.  A peak below max_x,
// which some earlier peak reached, therefore proves that the peaks fall
// from there on and no later sample reaches max_x; a dip above the
// post-switch min_x proves that the dips rise.  The cubic Hermite of
// (x, x' = y) through a turn's two samples misses its extremum by
// O(h^4), and the numeric orbit strays from a true one by its step
// errors; the margin keeps both far inside, so a settled orbit's
// extrema are its full run's to the bit.
constexpr double kSettleMargin = 1e-5;

// The least and greatest values over s in [0, 1] of the cubic Hermite p
// with p(0) = x0, p(1) = x1 and end slopes m0, m1: at an end, or where
// p'(s) = a s^2 + b s + m0 vanishes.
std::pair<double, double> hermite_range(double x0, double m0, double x1,
                                        double m1) {
  double lo = std::min(x0, x1);
  double hi = std::max(x0, x1);
  const auto visit = [&](double s) {
    if (!(s > 0.0 && s < 1.0)) return;
    const double s2 = s * s;
    const double s3 = s2 * s;
    const double p = (2.0 * s3 - 3.0 * s2 + 1.0) * x0 +
                     (s3 - 2.0 * s2 + s) * m0 + (3.0 * s2 - 2.0 * s3) * x1 +
                     (s3 - s2) * m1;
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  };
  const double d = x1 - x0;
  const double a = 3.0 * (m0 + m1) - 6.0 * d;
  const double b = 6.0 * d - 4.0 * m0 - 2.0 * m1;
  const double disc = b * b - 4.0 * a * m0;
  if (disc >= 0.0) {
    const double q = -0.5 * (b + std::copysign(std::sqrt(disc), b));
    if (a != 0.0) visit(q / a);
    if (q != 0.0) visit(m0 / q);
  }
  return {lo, hi};
}

}  // namespace

void ExtremaFold::turn(double t, Vec2 z) {
  const double h = t - last_t_;
  const auto [lo, hi] = hermite_range(last_.x, h * last_.y, z.x, h * z.y);
  const double margin = kSettleMargin * (max_x_ - min_x_);
  if (last_.y > 0.0) {
    peaks_final_ = peaks_final_ || hi + margin < max_x_;
  } else if (last_t_ >= gate_) {
    dips_final_ = dips_final_ || lo - margin > post_switch_min_x_;
  }
}

FluidRun ExtremaFold::finish(const ode::HybridStats& stats) const {
  FluidRun run;
  run.max_x = max_x_;
  run.min_x = min_x_;
  run.max_y = max_y_;
  run.min_y = min_y_;
  run.post_switch_max_x = post_switch_max_x_;
  run.post_switch_min_x = post_switch_min_x_;
  run.completed = stats.completed;
  run.converged = stats.stopped_early;
  run.steps_accepted = stats.steps_accepted;
  run.steps_rejected = stats.steps_rejected;
  run.min_step = stats.min_accepted_step;
  run.event_bisections = stats.event_bisection_iterations;
  run.nonfinite = stats.nonfinite;
  run.nonfinite_t = stats.nonfinite_t;
  return run;
}

namespace {

// The driver options of a run of the facet: its tolerances, recording,
// step budget and convergence stop.
ode::HybridOptions hybrid_options(const FluidMechanism& facet,
                                  const FluidRunOptions& options) {
  ode::HybridOptions hopts;
  hopts.tol = options.tol;
  hopts.record_interval = options.record_interval;
  hopts.max_steps = options.max_steps;
  if (options.convergence_tol > 0.0 && facet.has_equilibrium()) {
    hopts.stop_when = [q0 = facet.plant().q0, cap = facet.plant().capacity,
                       tol = options.convergence_tol](double /*t*/, Vec2 z) {
      return std::abs(z.x) / q0 + std::abs(z.y) / cap < tol;
    };
  }
  return hopts;
}

// Integrates the facet into `sink` from options.z0 over options.duration.
template <class Sink>
ode::HybridStats integrate(const FluidMechanism& facet,
                           const FluidRunOptions& options, Sink& sink) {
  return facet.integrate(0.0,
                         options.z0.value_or(facet.analysis_initial_point()),
                         options.duration, hybrid_options(facet, options),
                         sink);
}

}  // namespace

FluidRun simulate_fluid(const FluidMechanism& facet,
                        const FluidRunOptions& options) {
  ode::RecordingSink sink;
  const ode::HybridStats stats = integrate(facet, options, sink);
  ExtremaFold fold = facet.extrema_fold();
  for (const auto& s : sink.switches) fold.mode_switch(s);
  for (const auto& s : sink.trajectory.samples()) fold.sample(s.t, s.z);
  FluidRun run = fold.finish(stats);
  run.trajectory = std::move(sink.trajectory);
  run.switches = std::move(sink.switches);
  return run;
}

FluidRun summarize_fluid(const FluidMechanism& facet,
                         const FluidRunOptions& options) {
  ExtremaFold fold = facet.extrema_fold();
  return fold.finish(integrate(facet, options, fold));
}

std::array<FluidRun, 2> summarize_fluid_pair(
    const FluidMechanism& a, const FluidMechanism& b,
    const std::array<FluidRunOptions, 2>& options) {
  const std::array<ode::HybridOptions, 2> hopts = {
      hybrid_options(a, options[0]), hybrid_options(b, options[1])};
  std::array<ExtremaFold, 2> folds = {a.extrema_fold(), b.extrema_fold()};
  const auto stats = a.integrate_pair(
      b, {{{0.0, options[0].z0.value_or(a.analysis_initial_point()),
            options[0].duration, &hopts[0], &folds[0]},
           {0.0, options[1].z0.value_or(b.analysis_initial_point()),
            options[1].duration, &hopts[1], &folds[1]}}});
  return {folds[0].finish(stats[0]), folds[1].finish(stats[1])};
}

}  // namespace bcn::core
