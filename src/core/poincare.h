// Poincare return map on the switching line and limit-cycle detection
// (paper Section IV.C Case 1, Fig. 7).
//
// The section is the ray of the switching line x + k y = 0 entering the
// decrease region (x < 0, y > 0), parameterized by arc-length s = |z| from
// the origin.  One application of the map follows the flow through the
// decrease region and the subsequent increase region back to the section.
//
// For the *linearized* system (9) the map is exactly linear, P(s) = rho s
// with rho < 1 (both spiral halves contract), so interior limit cycles are
// impossible there.  The paper's Fig. 7 closed orbit (x_i^k(0) =
// x_i^{k+1}(0)) requires either the nonlinear rate factor of eq. (8) or
// the buffer walls of the clipped model; this module measures P on any
// ModelLevel and searches for fixed points numerically.
#pragma once

#include <optional>
#include <vector>

#include "core/fluid_model.h"
#include "ode/trajectory.h"

namespace bcn::core {

struct PoincareOptions {
  ode::Tolerances tol{1e-10, 1e-10};
  double max_time = 10.0;  // give up if a return takes longer than this
};

class PoincareMap {
 public:
  explicit PoincareMap(FluidModel model, PoincareOptions options = {});

  // The section point at parameter s (> 0): z = s * (-k, 1)/|(-k, 1)|.
  Vec2 section_point(double s) const;
  // Inverse: arc-length parameter of a point on (or near) the section ray.
  double parameter_of(Vec2 z) const;

  // One full return P(s).  nullopt when the flow never returns to the
  // section within max_time (converged into a region, or diverged).
  std::optional<double> map(double s) const;

  // Contraction ratio P(s)/s.
  std::optional<double> ratio(double s) const;

 private:
  FluidModel model_;
  PoincareOptions options_;
  double ux_ = 0.0, uy_ = 0.0;  // unit vector along the section ray
};

// A detected periodic orbit.
struct LimitCycle {
  double amplitude = 0.0;  // fixed-point parameter s*
  double period = 0.0;     // return time at s*
  double max_x = 0.0;      // queue-offset extremes around the cycle
  double min_x = 0.0;
};

struct CycleSearchOptions {
  PoincareOptions poincare;
  double s_lo = 0.0;  // 0 -> derived from q0
  double s_hi = 0.0;  // 0 -> derived from q0 and capacity
  int bracket_samples = 24;
  // Worker threads for the bracket scan (each P(s) sample is an
  // independent hybrid integration).  0 = all hardware threads,
  // 1 = serial.  The sample points and the refined fixed point do not
  // depend on the thread count.
  int threads = 1;
};

// P(s)/s at each amplitude (slot i = ratio(amplitudes[i])), evaluated in
// parallel when threads != 1.  This is the bulk operation behind the
// return-map scans of the limit-cycle bench.
std::vector<std::optional<double>> scan_contraction_ratios(
    const PoincareMap& map, const std::vector<double>& amplitudes,
    int threads = 1);

// Scans [s_lo, s_hi] for sign changes of P(s) - s and refines each to a
// fixed point; returns the first stable cycle found.
std::optional<LimitCycle> find_limit_cycle(const FluidModel& model,
                                           const CycleSearchOptions& options);

}  // namespace bcn::core
