// Shape-comparison metrics between two queue trajectories (typically the
// fluid ODE and the packet simulator) for experiment E11.
//
// "Shape agreement" is quantified by the features the paper's analysis
// predicts: the first overshoot above q0, the undershoot after it, the
// oscillation period, and the settling offset -- not by pointwise error,
// which is meaningless between a fluid abstraction and a frame-quantized
// system.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/bcn_params.h"
#include "ode/trajectory.h"

namespace bcn::analysis {

// Fluid-side strong-stability verdict for a packet scenario's plant and
// mechanism — the hint obs::RunMonitor's fluid-verdict crosscheck
// consumes.  Returns core::numeric_strong_stability of the mechanism's
// Nonlinear facet (an empty name means bcn), integrated over the
// automatic horizon for bcn/bcn-draft and over 10 ms for the other
// facets, or nullopt for packet-only mechanisms (fera) and unknown
// names, which have no fluid model to contradict.
std::optional<bool> fluid_stability_hint(const core::BcnParams& params,
                                         const std::string& mechanism = "bcn");

struct TrajectoryFeatures {
  double peak_value = 0.0;     // max of the component
  double peak_time = 0.0;
  double trough_value = 0.0;   // min after the peak
  double trough_time = 0.0;
  // Mean spacing of successive local maxima (oscillation period); nullopt
  // with fewer than two maxima.
  std::optional<double> period;
  double final_value = 0.0;    // mean over the trailing 20%
};

// Features of component 0 (x) of a trajectory.  `min_prominence` filters
// noise extrema: an extremum counts only if it differs from the previous
// kept one by at least this much.
TrajectoryFeatures extract_features(const ode::Trajectory& trajectory,
                                    double min_prominence);

struct ShapeComparison {
  TrajectoryFeatures a;
  TrajectoryFeatures b;
  double peak_rel_error = 0.0;
  double period_rel_error = 0.0;  // 0 when either period is missing
  double final_rel_error = 0.0;
  // Same damped-oscillation character: both have a period, or neither.
  bool same_character = false;
};

ShapeComparison compare_shapes(const ode::Trajectory& a,
                               const ode::Trajectory& b,
                               double min_prominence);

// Batch feature extraction over many trajectories (a cross-validation
// grid produces one per cell).  Slot i holds the features of
// *trajectories[i]; parallel when threads != 1 (0 = all hardware
// threads), with output order independent of the thread count.
std::vector<TrajectoryFeatures> extract_features_batch(
    const std::vector<const ode::Trajectory*>& trajectories,
    double min_prominence, int threads = 1);

}  // namespace bcn::analysis
