#include "core/simulate.h"

#include <array>
#include <cmath>
#include <utility>

namespace bcn::core {

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
  ExtremaFold fold(facet.interior_modes());
  for (const auto& s : sink.switches) fold.mode_switch(s);
  for (const auto& s : sink.trajectory.samples()) fold.sample(s.t, s.z);
  FluidRun run = fold.finish(stats);
  run.trajectory = std::move(sink.trajectory);
  run.switches = std::move(sink.switches);
  return run;
}

FluidRun summarize_fluid(const FluidMechanism& facet,
                         const FluidRunOptions& options) {
  ExtremaFold fold(facet.interior_modes());
  return fold.finish(integrate(facet, options, fold));
}

std::array<FluidRun, 2> summarize_fluid_pair(
    const FluidMechanism& a, const FluidMechanism& b,
    const std::array<FluidRunOptions, 2>& options) {
  const std::array<ode::HybridOptions, 2> hopts = {
      hybrid_options(a, options[0]), hybrid_options(b, options[1])};
  std::array<ExtremaFold, 2> folds = {ExtremaFold(a.interior_modes()),
                                      ExtremaFold(b.interior_modes())};
  const auto stats = a.integrate_pair(
      b, {{{0.0, options[0].z0.value_or(a.analysis_initial_point()),
            options[0].duration, &hopts[0], &folds[0]},
           {0.0, options[1].z0.value_or(b.analysis_initial_point()),
            options[1].duration, &hopts[1], &folds[1]}}});
  return {folds[0].finish(stats[0]), folds[1].finish(stats[1])};
}

}  // namespace bcn::core
