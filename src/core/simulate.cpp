#include "core/simulate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ode/hybrid_driver.h"

namespace bcn::core {
namespace {

// FluidRun's extrema, folded one sample at a time.  The first sample is
// the start, which sits on the empty-buffer boundary by construction
// (q(0) = 0 after the warm-up): it stands in only until a second arrives,
// so the extrema cover t > 0.  The post-switch extrema take the samples
// at or after the first switch, which must arrive before them: the
// driver reports each switch ahead of its step's samples.
class ExtremaFold {
 public:
  void sample(double t, Vec2 z) {
    if (samples_++ < 2) {
      run_.max_x = run_.min_x = z.x;
      run_.max_y = run_.min_y = z.y;
    }
    run_.max_x = std::max(run_.max_x, z.x);
    run_.min_x = std::min(run_.min_x, z.x);
    run_.max_y = std::max(run_.max_y, z.y);
    run_.min_y = std::min(run_.min_y, z.y);
    if (t >= gate_) {
      run_.post_switch_max_x = std::max(run_.post_switch_max_x, z.x);
      run_.post_switch_min_x = std::min(run_.post_switch_min_x, z.x);
    }
  }
  // Switch times never decrease, so the gate is the first one's.
  void mode_switch(const ode::ModeSwitch& s) { gate_ = std::min(gate_, s.t); }

  // The folded extrema plus the driver's statistics.
  FluidRun finish(const ode::HybridStats& stats) const {
    FluidRun run = run_;
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

 private:
  FluidRun run_;  // extrema only
  std::size_t samples_ = 0;
  double gate_ = std::numeric_limits<double>::infinity();
};

// Integrates the facet into `sink`: BCN's interior levels on the concrete
// law, every other facet on its std::function system.
template <class Sink>
ode::HybridStats integrate(const FluidMechanism& facet,
                           const FluidRunOptions& options, Sink& sink) {
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

  const auto* bcn = dynamic_cast<const FluidModel*>(&facet);
  if (bcn && facet.level() != ModelLevel::Clipped) {
    return ode::run_hybrid(bcn->law(), 0.0, z0, options.duration, hopts,
                           sink);
  }
  const ode::HybridSystem system = facet.hybrid_system();
  return ode::run_hybrid(ode::ErasedSystem(system), 0.0, z0,
                         options.duration, hopts, sink);
}

}  // namespace

FluidRun simulate_fluid(const FluidMechanism& facet,
                        const FluidRunOptions& options) {
  ode::RecordingSink sink;
  const ode::HybridStats stats = integrate(facet, options, sink);
  ExtremaFold fold;
  if (!sink.switches.empty()) fold.mode_switch(sink.switches.front());
  for (const auto& s : sink.trajectory.samples()) fold.sample(s.t, s.z);
  FluidRun run = fold.finish(stats);
  run.trajectory = std::move(sink.trajectory);
  run.switches = std::move(sink.switches);
  return run;
}

FluidRun summarize_fluid(const FluidMechanism& facet,
                         const FluidRunOptions& options) {
  ExtremaFold fold;
  return fold.finish(integrate(facet, options, fold));
}

}  // namespace bcn::core
