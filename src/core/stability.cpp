#include "core/stability.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/format.h"

namespace bcn::core {
namespace {

// Characteristic time of one region traversal, used to size the numeric
// integration horizon: half a rotation period for spirals, a generous
// multiple of the slow eigenvalue's time constant for nodes.
double region_time_scale(const control::SecondOrderSystem& sys) {
  const double disc = sys.discriminant();
  if (disc < 0.0) {
    const double beta = std::sqrt(-disc) / 2.0;
    return std::numbers::pi / beta;
  }
  const auto eig = sys.eigenvalues();
  const double slow = std::abs(eig[1].real());  // eigenvalue closest to 0
  return slow > 0.0 ? 20.0 / slow : 1.0;
}

}  // namespace

std::string StabilityReport::summary() const {
  std::string out;
  out.reserve(256);
  out += to_string(classification.paper_case);
  out += " | predicted overshoot max(x)=";
  append_g(out, predicted_max_x);
  out += ", undershoot min(x)=";
  append_g(out, predicted_min_x);
  out += " | Proposition ";
  out += std::to_string(proposition);
  out += proposition_satisfied ? ": strongly stable" : ": NOT strongly stable";
  out += " | Theorem 1: required B=";
  append_g(out, theorem1_required_buffer);
  out += theorem1_satisfied ? " -> satisfied" : " -> violated";
  out += baseline.declared_stable ? " | baseline: stable"
                                  : " | baseline: unstable";
  return out;
}

StabilityReport analyze_stability(const BcnParams& params) {
  return analyze_stability(params, AnalyticTracer(params).extrema());
}

StabilityReport analyze_stability(const BcnParams& params,
                                  const AnalyticExtrema& extrema) {
  StabilityReport report;
  report.classification = classify_case(params);
  report.predicted_max_x = extrema.max_x;
  report.predicted_min_x = extrema.min_x;
  report.closed_form_rounds = extrema.rounds;

  const double x_hi = params.buffer - params.q0;
  const double x_lo = -params.q0;
  switch (report.classification.paper_case) {
    case PaperCase::Case1:
      report.proposition = 2;
      report.proposition_satisfied =
          report.predicted_max_x < x_hi && report.predicted_min_x > x_lo;
      break;
    case PaperCase::Case2:
      report.proposition = 3;
      report.proposition_satisfied = report.predicted_max_x < x_hi;
      break;
    case PaperCase::Case3:
    case PaperCase::Case4:
    case PaperCase::Case5:
      // Proposition 4 declares these unconditionally strongly stable.  (Our
      // numeric experiments probe the a-boundary branch of that claim; see
      // EXPERIMENTS.md.)
      report.proposition = 4;
      report.proposition_satisfied = true;
      break;
  }

  report.theorem1_required_buffer = params.theorem1_required_buffer();
  report.theorem1_satisfied = params.satisfies_theorem1();
  report.baseline = control::analyze_linear_baseline(
      params.a(), params.b(), params.k(), params.capacity);
  return report;
}

double verdict_horizon(const FluidMechanism& facet) {
  double sum = 0.0;
  for (const RegionLaw& law : facet.region_laws()) {
    if (law.linearizable) {
      sum += region_time_scale(control::SecondOrderSystem(law.m, law.n));
    }
  }
  return 10.0 * sum;
}

namespace {

// The options of a verdict's run of the facet.
FluidRunOptions verdict_run_options(const FluidMechanism& facet,
                                    double duration, ode::Tolerances tol) {
  FluidRunOptions ropts;
  ropts.duration = duration > 0.0 ? duration : verdict_horizon(facet);
  ropts.tol = tol;
  ropts.convergence_tol = 1e-8;
  return ropts;
}

// Definition 1 on the facet's run.
NumericVerdict verdict_of(const FluidMechanism& facet, const FluidRun& run) {
  NumericVerdict verdict;
  verdict.max_x = run.max_x;
  verdict.min_x = run.post_switch_min_x;
  verdict.converged = run.converged;
  verdict.nonfinite = run.nonfinite;
  // A Clipped orbit that reaches a wall's capture band has hit the wall.
  const double band =
      facet.level() == ModelLevel::Clipped ? facet.wall_tol() : 0.0;
  verdict.strongly_stable = strongly_stable_orbit(
      facet.x_min() + band, facet.x_max() - band, run.max_x,
      run.post_switch_min_x, run.completed && !run.nonfinite);
  return verdict;
}

}  // namespace

NumericVerdict numeric_strong_stability(const FluidMechanism& facet,
                                        double duration,
                                        ode::Tolerances tol) {
  return verdict_of(facet, summarize_fluid(facet, verdict_run_options(
                                                      facet, duration, tol)));
}

std::array<NumericVerdict, 2> numeric_strong_stability_pair(
    const FluidMechanism& a, const FluidMechanism& b, double duration,
    ode::Tolerances tol) {
  const auto runs = summarize_fluid_pair(
      a, b,
      {verdict_run_options(a, duration, tol),
       verdict_run_options(b, duration, tol)});
  return {verdict_of(a, runs[0]), verdict_of(b, runs[1])};
}

NumericVerdict numeric_strong_stability(const BcnParams& params,
                                        const NumericVerdictOptions& options) {
  return numeric_strong_stability(FluidModel(params, options.level),
                                  options.duration, options.tol);
}

}  // namespace bcn::core
