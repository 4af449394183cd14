#include "core/simulate.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bcn::core {

FluidRun simulate_fluid(const FluidMechanism& facet,
                        const FluidRunOptions& options) {
  const BcnParams& p = facet.plant();
  const Vec2 z0 = options.z0.value_or(facet.analysis_initial_point());

  ode::HybridOptions hopts;
  hopts.tol = options.tol;
  hopts.record_interval = options.record_interval;
  hopts.max_steps = options.max_steps;
  if (options.convergence_tol > 0.0 && facet.has_equilibrium()) {
    const double q0 = p.q0;
    const double cap = p.capacity;
    const double tol = options.convergence_tol;
    hopts.stop_when = [q0, cap, tol](double /*t*/, Vec2 z) {
      return std::abs(z.x) / q0 + std::abs(z.y) / cap < tol;
    };
  }

  const ode::HybridResult hybrid = ode::integrate_hybrid(
      facet.hybrid_system(), 0.0, z0, options.duration, hopts);

  FluidRun run;
  run.trajectory = hybrid.trajectory;
  run.switches = hybrid.switches;
  run.completed = hybrid.completed;
  run.converged = hybrid.stopped_early;
  run.steps_accepted = hybrid.steps_accepted;
  run.steps_rejected = hybrid.steps_rejected;
  run.min_step = hybrid.min_accepted_step;
  run.event_bisections = hybrid.event_bisection_iterations;
  run.nonfinite = hybrid.nonfinite;
  run.nonfinite_t = hybrid.nonfinite_t;
  if (run.trajectory.empty()) return run;  // non-finite initial state

  // Extrema over t > 0: skip the initial sample, which sits on the
  // empty-buffer boundary by construction (q(0) = 0 after the warm-up).
  const std::size_t start = run.trajectory.size() > 1 ? 1 : 0;
  const double t_gate = run.switches.empty()
                            ? std::numeric_limits<double>::infinity()
                            : run.switches.front().t;
  run.max_x = run.min_x = run.trajectory[start].z.x;
  run.max_y = run.min_y = run.trajectory[start].z.y;
  for (std::size_t i = start; i < run.trajectory.size(); ++i) {
    const auto& s = run.trajectory[i];
    run.max_x = std::max(run.max_x, s.z.x);
    run.min_x = std::min(run.min_x, s.z.x);
    run.max_y = std::max(run.max_y, s.z.y);
    run.min_y = std::min(run.min_y, s.z.y);
    if (s.t >= t_gate) {
      run.post_switch_max_x = std::max(run.post_switch_max_x, s.z.x);
      run.post_switch_min_x = std::min(run.post_switch_min_x, s.z.x);
    }
  }
  return run;
}

}  // namespace bcn::core
