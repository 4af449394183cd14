#include "core/simulate.h"

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

// Integrates the facet into `sink` from options.z0 over options.duration.
template <class Sink>
ode::HybridStats integrate(const FluidMechanism& facet,
                           const FluidRunOptions& options, Sink& sink) {
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
  return facet.integrate(0.0,
                         options.z0.value_or(facet.analysis_initial_point()),
                         options.duration, hopts, sink);
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

}  // namespace bcn::core
