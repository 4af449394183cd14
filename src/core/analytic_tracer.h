// Closed-form piecewise tracing of the switched linearized BCN system
// (paper eq. (9)).
//
// The trajectory is built round by round exactly as in the paper's Section
// IV.C: inside one region the motion follows the closed-form linear
// solution (H / F / L type); the round ends where the solution crosses the
// switching line x + k y = 0, which is computed in closed form as well (the
// paper's H^{-1} inversions, e.g. T_i^1).  Stitching the rounds yields the
// exact transient extrema max1/min1/max2 of Propositions 2-3 without any
// numeric integration.  When only those extrema are needed, extrema()
// stops at the first round that proves the rest of the orbit cannot reach
// them again.
//
// Each region's flow depends on the plant through one gain only: the
// increase subsystem lambda^2 + a k lambda + a on Gi (a = Ru Gi N), the
// decrease subsystem lambda^2 + k b C lambda + b C on Gd.  A tracer builds
// both flows once, with their switching-line constants, and a (Gi, Gd)
// map can share them along its rows and columns, together with round 0,
// which starts at (-q0, 0) in the increase region.
#pragma once

#include <optional>
#include <vector>

#include "control/closed_form.h"
#include "core/classifier.h"
#include "core/fluid_model.h"

namespace bcn::core {

// One region traversal ("round" in the paper's indexing x_i^k, x_d^k).
struct RoundRecord {
  Region region = Region::Increase;
  control::SolutionKind kind = control::SolutionKind::Spiral;
  control::LinearSolution solution;  // local time: 0 at round start
  double t_start = 0.0;              // absolute start time
  Vec2 z_start;
  // Crossing back over the switching line; nullopt when the round never
  // leaves its region (the trajectory then converges to the origin inside
  // it, as in Cases 2-4 tails).
  std::optional<double> duration;
  std::optional<Vec2> z_end;
  // The round's local extremum of x (y = 0 crossing), in absolute time.
  std::optional<control::XExtremum> extremum;
};

struct AnalyticTraceOptions {
  int max_rounds = 256;
  // Convergence: a round start counts as converged when
  // |x|/x_scale + |y|/y_scale < tol.
  double convergence_tol = 1e-6;
};

struct AnalyticTrace {
  std::vector<RoundRecord> rounds;
  bool converged = false;            // round-start norm fell below tolerance
  bool terminated_in_region = false; // final round never crosses again
  double max_x = 0.0;                // global max of x over the whole trace
  double min_x = 0.0;                // global min of x over the whole trace

  // Geometric contraction ratio of successive same-region crossing
  // amplitudes |x|; < 1 means the switched system spirals in.  nullopt when
  // fewer than two same-region crossings happened.
  std::optional<double> contraction_ratio() const;
};

// The transient extrema of trace() without its round records.
struct AnalyticExtrema {
  double max_x = 0.0;  // bit-identical to trace().max_x
  double min_x = 0.0;  // bit-identical to trace().min_x
  int rounds = 0;      // rounds stitched before the extrema were final
};

// The extrema walk after its first round (AnalyticTracer::first_round()).
struct FirstRound {
  AnalyticExtrema extrema;  // round 0's folds; rounds == 1
  Region region = Region::Increase;  // round 0's region
  Vec2 z_end;          // where round 1 starts: round 0's crossing
  bool final = false;  // round 0 never crossed: the extrema are final
};

// One region's closed-form flow and the switching line x + k y = 0 as
// that flow crosses it.
struct RegionFlow {
  control::LinearFlow flow;
  control::FlowLine line;
};

class AnalyticTracer {
 public:
  // The tracer always works at the Linearized model level; `params` gives
  // the region subsystems and the switching-line slope.  Throws
  // std::invalid_argument on an invalid plant.
  explicit AnalyticTracer(BcnParams params);

  // Traces from z0 (default: the paper's analysis start (-q0, 0)).
  AnalyticTrace trace(const AnalyticTraceOptions& options = {}) const;
  AnalyticTrace trace_from(Vec2 z0,
                           const AnalyticTraceOptions& options = {}) const;

  // trace().max_x/min_x from the analysis start, bit for bit, without
  // tracing to convergence: stops at the first proven contraction, a
  // round start z_r = c z_{r-2} with 0 < c < 1, after which every round
  // is a scaled-down copy of one already seen (kContractionMargin in the
  // source gives the exact rule).  Allocates nothing; throws
  // std::invalid_argument on an invalid plant, as trace() does.
  AnalyticExtrema extrema() const;

  // extrema() in two parts, for a (Gi, Gd) map's rows and columns.
  // first_round() walks round 0, which starts at (-q0, 0) in the increase
  // region and so depends on Gi but not on Gd.  extrema(first, column)
  // walks the rest for the plant that takes its Gd from column's plant
  // and every other field from this tracer's, through this tracer's
  // increase flow and column's decrease flow: to the bit the extrema()
  // of that plant's own tracer.  Validity is per field, so that plant is
  // valid whenever both tracers' plants are.
  FirstRound first_round() const;
  AnalyticExtrema extrema(const FirstRound& first,
                          const AnalyticTracer& column) const;

  const BcnParams& params() const { return params_; }

 private:
  Region region_of(Vec2 z) const;

  BcnParams params_;
  RegionFlow increase_;
  RegionFlow decrease_;
};

}  // namespace bcn::core
