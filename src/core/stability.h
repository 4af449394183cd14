// Strong-stability analysis of the BCN system (paper Definition 1,
// Propositions 2-4, Theorem 1) plus the numeric ground-truth verdict,
// which judges any fluid facet (core/mechanism.h) the same way.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "control/linear_baseline.h"
#include "core/analytic_tracer.h"
#include "core/classifier.h"
#include "core/simulate.h"

namespace bcn::core {

// Closed-form (analytic) strong-stability report.
struct StabilityReport {
  CaseClassification classification;

  // Transient extrema of the linearized switched system from (-q0, 0),
  // computed by closed-form round stitching (AnalyticTracer).  In queue
  // offset coordinates: overshoot above q0 is max_x, undershoot is min_x.
  double predicted_max_x = 0.0;
  double predicted_min_x = 0.0;
  // Rounds the walk stitched before those extrema were final
  // (AnalyticExtrema::rounds).
  int closed_form_rounds = 0;

  // Case-based verdict per Propositions 2-4: do the transient extrema fit
  // inside (-q0, B - q0)?
  bool proposition_satisfied = false;
  // The specific proposition applied (2, 3 or 4).
  int proposition = 0;

  // Theorem 1: sufficient condition (1 + sqrt(a/(bC))) q0 < B.
  double theorem1_required_buffer = 0.0;
  bool theorem1_satisfied = false;

  // The Lu et al. [4] baseline verdict, which ignores both the switching
  // transient and the buffer.
  control::LinearBaselineReport baseline;

  std::string summary() const;
};

// Throws std::invalid_argument on an invalid plant.
StabilityReport analyze_stability(const BcnParams& params);
// The same report from the plant's closed-form extrema, for callers that
// walk them from shared pieces (AnalyticTracer::first_round()).
StabilityReport analyze_stability(const BcnParams& params,
                                  const AnalyticExtrema& extrema);

// Numeric ground truth: integrates a fluid facet from (-q0, 0) and checks
// the orbit stays strictly inside the buffer strip for all t > 0.
struct NumericVerdict {
  bool strongly_stable = false;
  // Reached the 1e-8 ball before the horizon and before the fold settled
  // (ExtremaFold::settled): false on a settled orbit that would have
  // reached it later.  No verdict path reads it.
  bool converged = false;
  // The integration aborted on a non-finite state; the verdict is
  // "not strongly stable" and the extrema cover the finite prefix only.
  bool nonfinite = false;
  double max_x = 0.0;
  double min_x = 0.0;
};

// The Definition-1 predicate every verdict path applies to an orbit from
// the empty-queue start: no excursion above x_max at t > 0 (overflow
// drops packets), no dip below x_min after the first switching event
// (the departure from the legitimate empty-queue start is not a
// violation), and a run that reached its horizon with finite states.
inline bool strongly_stable_orbit(double x_min, double x_max, double max_x,
                                  double post_switch_min_x, bool finished) {
  return max_x < x_max && post_switch_min_x > x_min && finished;
}

// The automatic verdict horizon: 10x the summed characteristic times of
// the facet's linearizable region laws (half a rotation period for a
// spiral, 20 slow time constants for a node).  Constant-drive laws have
// no time scale and add nothing.
double verdict_horizon(const FluidMechanism& facet);

// Definition 1 (strongly_stable_orbit) on the facet's orbit from its
// analysis start, at the facet's own model level; at Clipped, reaching
// a wall's capture band (FluidMechanism::wall_tol) counts as reaching
// the wall.  `duration` 0 selects verdict_horizon(facet).  Facets with an
// equilibrium stop early once |x|/q0 + |y|/C < 1e-8, and facets whose
// extrema settle once max_x and min_x are final (summarize_fluid).
NumericVerdict numeric_strong_stability(const FluidMechanism& facet,
                                        double duration = 0.0,
                                        ode::Tolerances tol = {1e-9, 1e-9});

// numeric_strong_stability of a and of b, two facets of one law at
// interior levels (a mechanism's Linearized and Nonlinear facets), with
// both orbits stepped together (summarize_fluid_pair): each verdict is
// bit for bit its own call's, for about the time of the longer one.
// Throws std::invalid_argument when the facets cannot pair.
std::array<NumericVerdict, 2> numeric_strong_stability_pair(
    const FluidMechanism& a, const FluidMechanism& b, double duration = 0.0,
    ode::Tolerances tol = {1e-9, 1e-9});

// The BCN entry point: the verdict of FluidModel(params, options.level).
struct NumericVerdictOptions {
  ModelLevel level = ModelLevel::Nonlinear;
  double duration = 0.0;  // 0 -> verdict_horizon
  ode::Tolerances tol{1e-9, 1e-9};
};

NumericVerdict numeric_strong_stability(const BcnParams& params,
                                        const NumericVerdictOptions& options = {});

}  // namespace bcn::core
