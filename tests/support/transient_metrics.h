// Transient metrics measured on a sampled trajectory: the oracle that
// analysis::estimate_transient's closed-form prediction is held to.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "ode/trajectory.h"

namespace bcn::testing {

struct TransientMetrics {
  // Peak queue overshoot above the reference, normalized by q0.
  double overshoot_ratio = 0.0;
  // First time after which |x| stays below band * q0 for the rest of the
  // trace; infinity when the trace never settles.
  double settling_time = 0.0;
  bool settled = false;
  // Mean spacing of successive positive peaks of x.
  std::optional<double> oscillation_period;
  // Exponential envelope rate lambda fitted to successive |extrema|
  // (|x_k| ~ e^{-lambda t_k}); nullopt with fewer than two extrema.
  std::optional<double> envelope_decay_rate;
};

inline TransientMetrics measure_transient(const ode::Trajectory& trajectory,
                                          double q0, double band = 0.05) {
  TransientMetrics m;
  if (trajectory.size() < 2) return m;

  double peak = 0.0;
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    peak = std::max(peak, trajectory[i].z.x);
  }
  m.overshoot_ratio = peak / q0;

  // Settling: last sample with |x| >= band * q0 bounds the settling time.
  const double threshold = band * q0;
  double last_violation = -1.0;
  for (const auto& s : trajectory.samples()) {
    if (std::abs(s.z.x) >= threshold) last_violation = s.t;
  }
  if (last_violation < 0.0) {
    m.settled = true;
    m.settling_time = 0.0;
  } else if (last_violation < trajectory.back().t) {
    m.settled = true;
    m.settling_time = last_violation;
  } else {
    m.settled = false;
    m.settling_time = std::numeric_limits<double>::infinity();
  }

  // Peaks of x for period and envelope fit.
  const auto extrema = trajectory.local_extrema(0);
  std::vector<double> peak_times;
  std::vector<std::pair<double, double>> env;  // (t, |x|)
  for (const auto& e : extrema) {
    if (std::abs(e.value) < 1e-6 * q0) continue;
    if (e.is_maximum && e.value > 0.0) peak_times.push_back(e.t);
    env.emplace_back(e.t, std::abs(e.value));
  }
  if (peak_times.size() >= 2) {
    m.oscillation_period = (peak_times.back() - peak_times.front()) /
                           static_cast<double>(peak_times.size() - 1);
  }
  if (env.size() >= 2) {
    // Least-squares fit of ln|x| = c - lambda t.
    double st = 0.0, sy = 0.0, stt = 0.0, sty = 0.0;
    for (const auto& [t, v] : env) {
      const double y = std::log(v);
      st += t;
      sy += y;
      stt += t * t;
      sty += t * y;
    }
    const double n = static_cast<double>(env.size());
    const double denom = n * stt - st * st;
    if (denom > 0.0) {
      m.envelope_decay_rate = -(n * sty - st * sy) / denom;
    }
  }
  return m;
}

}  // namespace bcn::testing
