#include "analysis/crossval.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math.h"
#include "core/mechanism.h"
#include "core/stability.h"
#include "exec/parallel_for.h"
#include "obs/tracing.h"

namespace bcn::analysis {

std::optional<bool> fluid_stability_hint(const core::BcnParams& params,
                                         const std::string& mechanism) {
  const std::string name = mechanism.empty() ? "bcn" : mechanism;
  core::MechanismConfig config;
  config.plant = params;
  const auto fluid = core::make_fluid_mechanism(name, config);
  if (!fluid) return std::nullopt;  // packet-only or unknown mechanism
  // BCN's closed-form plants are judged over the automatic horizon; the
  // other facets over a fixed 10 ms window.
  const bool closed_form = name == "bcn" || name == "bcn-draft";
  return core::numeric_strong_stability(*fluid, closed_form ? 0.0 : 0.01)
      .strongly_stable;
}

namespace {

// Local maxima of component 0 with a prominence filter: alternating
// max/min sequence where each new extremum must move at least
// `min_prominence` away from the last kept one.
std::vector<ode::Extremum> prominent_extrema(const ode::Trajectory& t,
                                             double min_prominence) {
  std::vector<ode::Extremum> raw = t.local_extrema(0);
  std::vector<ode::Extremum> kept;
  for (const auto& e : raw) {
    if (kept.empty()) {
      kept.push_back(e);
      continue;
    }
    const auto& last = kept.back();
    if (e.is_maximum == last.is_maximum) {
      // Same polarity: keep the more extreme one.
      if ((e.is_maximum && e.value > last.value) ||
          (!e.is_maximum && e.value < last.value)) {
        kept.back() = e;
      }
    } else if (std::abs(e.value - last.value) >= min_prominence) {
      kept.push_back(e);
    }
  }
  return kept;
}

}  // namespace

TrajectoryFeatures extract_features(const ode::Trajectory& trajectory,
                                    double min_prominence) {
  TrajectoryFeatures f;
  if (trajectory.empty()) return f;

  const auto extrema = prominent_extrema(trajectory, min_prominence);

  // Peak: global max (over t > 0).
  f.peak_value = trajectory[0].z.x;
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    if (trajectory[i].z.x > f.peak_value) {
      f.peak_value = trajectory[i].z.x;
      f.peak_time = trajectory[i].t;
    }
  }
  // Trough: min after the peak.
  f.trough_value = f.peak_value;
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    if (trajectory[i].t >= f.peak_time &&
        trajectory[i].z.x < f.trough_value) {
      f.trough_value = trajectory[i].z.x;
      f.trough_time = trajectory[i].t;
    }
  }

  // Period: mean spacing between successive prominent maxima.
  std::vector<double> max_times;
  for (const auto& e : extrema) {
    if (e.is_maximum) max_times.push_back(e.t);
  }
  if (max_times.size() >= 2) {
    f.period = (max_times.back() - max_times.front()) /
               static_cast<double>(max_times.size() - 1);
  }

  // Settling value: mean of the trailing 20%.
  const double t_tail =
      trajectory.back().t - 0.2 * trajectory.duration();
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& s : trajectory.samples()) {
    if (s.t < t_tail) continue;
    sum += s.z.x;
    ++count;
  }
  f.final_value = count > 0 ? sum / static_cast<double>(count)
                            : trajectory.back().z.x;
  return f;
}

ShapeComparison compare_shapes(const ode::Trajectory& a,
                               const ode::Trajectory& b,
                               double min_prominence) {
  ShapeComparison cmp;
  cmp.a = extract_features(a, min_prominence);
  cmp.b = extract_features(b, min_prominence);
  cmp.peak_rel_error = relative_error(cmp.b.peak_value, cmp.a.peak_value);
  cmp.final_rel_error = relative_error(cmp.b.final_value, cmp.a.final_value);
  if (cmp.a.period && cmp.b.period) {
    cmp.period_rel_error = relative_error(*cmp.b.period, *cmp.a.period);
  }
  cmp.same_character =
      cmp.a.period.has_value() == cmp.b.period.has_value();
  return cmp;
}

std::vector<TrajectoryFeatures> extract_features_batch(
    const std::vector<const ode::Trajectory*>& trajectories,
    double min_prominence, int threads) {
  exec::ParallelForOptions opts;
  opts.threads = threads;
  return exec::parallel_map<TrajectoryFeatures>(
      trajectories.size(),
      [&](std::size_t i) {
        obs::TraceSpan span("analysis.crossval_fold", "fold",
                            static_cast<double>(i));
        return extract_features(*trajectories[i], min_prominence);
      },
      opts);
}

}  // namespace bcn::analysis
