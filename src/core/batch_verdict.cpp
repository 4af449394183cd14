#include "core/batch_verdict.h"

#include <algorithm>
#include <cmath>

#include "core/fluid_model.h"
#include "exec/parallel_for.h"

namespace bcn::core {
namespace {

// Fastest linearized rate of one region of a lane law.  The law's
// second-order form at the origin is lambda^2 + m lambda + n with
// m = g0 sy, n = g0 sx; away from the origin the g1 y term raises the
// effective g0 by up to g1 * capacity (|y| stays of order C), so the
// step is sized for that worst case.
double region_rate(const ode::LaneLaw& law, int r, double capacity) {
  const double g_eff = law.g0[r] + std::abs(law.g1[r]) * capacity;
  const double m = std::abs(g_eff * law.sy);
  const double n = std::abs(g_eff * law.sx);
  return std::max(m, std::sqrt(n));
}

// Sizes each region's macro step from that region's own rates — lanes
// with a stiff increase law and a slow decrease law (small Gd) take
// proportionally larger steps while spiraling on the slow side, where
// they spend most of the run.  Crossings truncate the step, so a lane
// never integrates across the surface with the wrong region's dt.
void auto_dt(const VerdictLane& lane, double oversample, double dt_out[2]) {
  const double r0 = region_rate(lane.law, 0, lane.capacity);
  const double r1 = region_rate(lane.law, 1, lane.capacity);
  const double rmax = std::max(r0, r1);
  if (rmax <= 0.0) {
    // Pure-drive laws (no position/velocity coupling anywhere) have no
    // intrinsic rate; resolve the horizon instead.
    dt_out[0] = dt_out[1] = lane.duration / (100.0 * oversample);
    return;
  }
  // A rate-free region (pure drive) borrows the other region's step.
  dt_out[0] = 1.0 / (oversample * (r0 > 0.0 ? r0 : rmax));
  dt_out[1] = 1.0 / (oversample * (r1 > 0.0 ? r1 : rmax));
}

}  // namespace

std::optional<VerdictLane> make_mechanism_verdict_lane(
    const FluidMechanism& facet, double duration) {
  VerdictLane lane;
  if (!facet.lane_law(&lane.law)) return std::nullopt;
  const BcnParams& p = facet.plant();
  lane.q0 = p.q0;
  lane.capacity = p.capacity;
  lane.buffer = p.buffer;
  lane.duration = duration > 0.0 ? duration : verdict_horizon(facet);
  lane.use_convergence_stop = facet.has_equilibrium();
  return lane;
}

VerdictLane make_bcn_verdict_lane(const BcnParams& params, ModelLevel level,
                                  double duration) {
  return make_mechanism_verdict_lane(FluidModel(params, level), duration)
      .value();
}

ode::BatchLane make_batch_lane(const VerdictLane& lane,
                               const BatchVerdictOptions& options) {
  ode::BatchLane b;
  b.law = lane.law;
  b.x0 = -lane.q0;  // the canonical empty-queue analysis start
  b.y0 = 0.0;
  b.t_end = lane.duration;
  if (lane.dt > 0.0) {
    b.dt[0] = b.dt[1] = lane.dt;
  } else {
    auto_dt(lane, options.oversample, b.dt);
  }
  if (lane.use_convergence_stop && options.convergence_tol > 0.0) {
    b.inv_x_scale = 1.0 / lane.q0;
    b.inv_y_scale = 1.0 / lane.capacity;
    b.stop_tol = options.convergence_tol;
  }
  return b;
}

std::vector<NumericVerdict> batch_numeric_verdicts(
    const std::vector<VerdictLane>& lanes,
    const BatchVerdictOptions& options) {
  const std::size_t n = lanes.size();
  std::vector<NumericVerdict> out(n);
  if (n == 0) return out;

  std::vector<ode::BatchLane> batch(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i] = make_batch_lane(lanes[i], options);
  }

  // Contiguous slices keep each worker's integrator hot; results land by
  // lane index, so slicing is invisible to the output.
  const std::size_t slice = options.threads == 1
                                ? n
                                : std::clamp<std::size_t>(n / 64, 16, 512);
  const std::size_t n_slices = (n + slice - 1) / slice;
  exec::parallel_for(
      n_slices,
      [&](std::size_t s) {
        const std::size_t lo = s * slice;
        const std::size_t hi = std::min(n, lo + slice);
        ode::BatchIntegrator integrator;
        integrator.reset(batch.data() + lo, hi - lo);
        integrator.run_to_completion();
        const auto& results = integrator.results();
        for (std::size_t i = lo; i < hi; ++i) {
          const ode::LaneResult& r = results[i - lo];
          NumericVerdict& v = out[i];
          v.max_x = r.max_x;
          v.min_x = r.post_switch_min_x;
          v.converged = r.converged;
          v.nonfinite = r.nonfinite;
          v.strongly_stable = strongly_stable_orbit(
              -lanes[i].q0, lanes[i].buffer - lanes[i].q0, r.max_x,
              r.post_switch_min_x, r.completed && !r.nonfinite);
        }
      },
      {.threads = options.threads});
  return out;
}

}  // namespace bcn::core
