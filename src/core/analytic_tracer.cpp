#include "core/analytic_tracer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bcn::core {

namespace {

// extrema() stops before round r >= 3 once z_r = c z_{r-2} with
// 0 < c <= 1 - kContractionMargin.  Both region laws are linear and the
// switching line x + k y = 0 passes through the origin, so the flow
// commutes with scaling by any c > 0; rounds alternate regions and every
// round after round 0 starts on the line, so z_r and z_{r-2} are collinear
// starts of the same region.  Every later round is then a c^j-scaled copy
// of round r-2 or r-1, whose extrema are already folded in, and with
// c < 1 no copy can exceed them.  Floating point iterates those rounds
// instead of scaling them, drifting by a few hundred ulp at most; the
// margin keeps the scaled copies far enough inside that the skipped
// suffix of trace() cannot change max_x or min_x by a single bit.
constexpr double kContractionMargin = 1e-9;

// One region traversal from its start point, in the round's local time.
struct RoundStep {
  control::LinearSolution solution;
  std::optional<double> crossing;  // first switching-line crossing
  // The x extremum strictly before the crossing (if any).
  std::optional<control::XExtremum> extremum;
  Vec2 z_end;  // the crossing point; meaningful only with a crossing
};

enum class WalkEnd { Converged, Terminal, RoundLimit, Stopped };

Region other(Region region) {
  return region == Region::Increase ? Region::Decrease : Region::Increase;
}

// Stitches rounds `round`, `round` + 1, ... from z in `region` until a
// round start is within options.convergence_tol of the origin, a round
// never crosses the line again (Terminal), options.max_rounds rounds have
// run, or visit(region, step) returns false after a crossing round
// (Stopped).  Each round's interior points -- its pre-crossing extremum
// and its crossing point -- are folded into max_x/min_x before the visit.
// The initial point (on the empty-buffer wall when z0 = (-q0, 0)) is
// excluded, matching the paper's min1/max1 semantics (Definition 1 judges
// the motion after the start).
template <class Visit>
WalkEnd walk_rounds(const BcnParams& params, const RegionFlow& increase,
                    const RegionFlow& decrease, Vec2 z, Region region,
                    int round, const AnalyticTraceOptions& options,
                    double& max_x, double& min_x, Visit&& visit) {
  for (; round < options.max_rounds; ++round) {
    const double norm =
        std::abs(z.x) / params.q0 + std::abs(z.y) / params.capacity;
    if (norm < options.convergence_tol) return WalkEnd::Converged;

    const RegionFlow& flow = region == Region::Increase ? increase : decrease;
    RoundStep step{control::LinearSolution(flow.flow, z), std::nullopt,
                   std::nullopt, Vec2{}};
    step.crossing = step.solution.first_line_crossing(flow.line, 0.0);
    const auto extremum = step.solution.first_x_extremum(0.0);
    if (extremum && (!step.crossing || extremum->t < *step.crossing)) {
      step.extremum = extremum;
      max_x = std::max(max_x, step.extremum->value);
      min_x = std::min(min_x, step.extremum->value);
    }
    if (step.crossing) {
      step.z_end = step.solution.eval(*step.crossing);
      max_x = std::max(max_x, step.z_end.x);
      min_x = std::min(min_x, step.z_end.x);
    }

    const bool go_on = visit(region, step);
    // Terminal round: converges to the origin inside this region.
    if (!step.crossing) return WalkEnd::Terminal;
    if (!go_on) return WalkEnd::Stopped;
    z = step.z_end;
    // Each round ends with a transversal switching-line crossing.
    region = other(region);
  }
  return WalkEnd::RoundLimit;
}

// extrema()'s visit: counts the rounds and stops at the first proven
// contraction.
struct ContractionStop {
  AnalyticExtrema& out;
  Vec2 last_start;  // start of the round before the one being visited

  bool operator()(Region, const RoundStep& step) {
    // The next round r = out.rounds starts at z_r = step.z_end; round
    // r - 2 started at last_start.
    ++out.rounds;
    const Vec2 z_r = step.z_end;
    const Vec2 z_r2 = last_start;
    last_start = step.solution.initial();
    if (out.rounds < 3) return true;
    const double c = (z_r.x * z_r2.x + z_r.y * z_r2.y) /
                     (z_r2.x * z_r2.x + z_r2.y * z_r2.y);
    return !(c > 0.0 && c <= 1.0 - kContractionMargin);
  }
};

RegionFlow region_flow(const control::SecondOrderSystem& system, double k) {
  const control::LinearFlow flow(system);
  return {flow, flow.line(1.0, k)};
}

const BcnParams& checked(const BcnParams& params) {
  params.require_valid();
  return params;
}

}  // namespace

std::optional<double> AnalyticTrace::contraction_ratio() const {
  // Compare |x| at successive entries into the same region.
  std::vector<double> increase_entries;
  for (const auto& r : rounds) {
    if (r.region == Region::Increase && r.t_start > 0.0) {
      increase_entries.push_back(std::abs(r.z_start.x));
    }
  }
  if (increase_entries.size() < 2) return std::nullopt;
  const double prev = increase_entries[increase_entries.size() - 2];
  const double last = increase_entries.back();
  if (prev <= 0.0) return std::nullopt;
  return last / prev;
}

AnalyticTracer::AnalyticTracer(BcnParams params)
    : params_(checked(params)),
      increase_(region_flow(increase_subsystem(params_), params_.k())),
      decrease_(region_flow(decrease_subsystem(params_), params_.k())) {}

Region AnalyticTracer::region_of(Vec2 z) const {
  return BcnLaw(params_, true).mode_of(0.0, z) == kModeIncrease
             ? Region::Increase
             : Region::Decrease;
}

AnalyticTrace AnalyticTracer::trace(const AnalyticTraceOptions& options) const {
  return trace_from({-params_.q0, 0.0}, options);
}

AnalyticTrace AnalyticTracer::trace_from(
    Vec2 z0, const AnalyticTraceOptions& options) const {
  AnalyticTrace out;
  double t_abs = 0.0;
  const WalkEnd end = walk_rounds(
      params_, increase_, decrease_, z0, region_of(z0), 0, options,
      out.max_x, out.min_x,
      [&](Region region, const RoundStep& step) {
        RoundRecord rec{region, step.solution.kind(), step.solution, t_abs,
                        step.solution.initial(), std::nullopt, std::nullopt,
                        std::nullopt};
        if (step.extremum) {
          rec.extremum = control::XExtremum{t_abs + step.extremum->t,
                                            step.extremum->value,
                                            step.extremum->is_maximum};
        }
        if (step.crossing) {
          rec.duration = *step.crossing;
          rec.z_end = step.z_end;
          t_abs += *step.crossing;
        }
        out.rounds.push_back(std::move(rec));
        return true;
      });
  out.terminated_in_region = end == WalkEnd::Terminal;
  out.converged = end == WalkEnd::Converged || out.terminated_in_region;
  return out;
}

AnalyticExtrema AnalyticTracer::extrema() const {
  AnalyticExtrema out;
  const Vec2 z0{-params_.q0, 0.0};
  walk_rounds(params_, increase_, decrease_, z0, region_of(z0), 0,
              AnalyticTraceOptions{}, out.max_x, out.min_x,
              ContractionStop{out, Vec2{}});
  return out;
}

FirstRound AnalyticTracer::first_round() const {
  FirstRound first;
  const Vec2 z0{-params_.q0, 0.0};
  first.region = region_of(z0);
  const WalkEnd end = walk_rounds(
      params_, increase_, decrease_, z0, first.region, 0,
      AnalyticTraceOptions{}, first.extrema.max_x, first.extrema.min_x,
      [&](Region, const RoundStep& step) {
        ++first.extrema.rounds;
        first.z_end = step.z_end;
        return false;
      });
  first.final = end != WalkEnd::Stopped;
  return first;
}

AnalyticExtrema AnalyticTracer::extrema(const FirstRound& first,
                                        const AnalyticTracer& column) const {
  // Round 1 on needs q0 and C (shared) and the plant's two flows.
  assert(column.params_.q0 == params_.q0 &&
         column.params_.capacity == params_.capacity &&
         column.params_.k() == params_.k());
  AnalyticExtrema out = first.extrema;
  if (first.final) return out;
  walk_rounds(params_, increase_, column.decrease_, first.z_end,
              other(first.region), 1, AnalyticTraceOptions{}, out.max_x,
              out.min_x, ContractionStop{out, {-params_.q0, 0.0}});
  return out;
}

}  // namespace bcn::core
