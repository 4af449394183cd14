#include "analysis/transient.h"

#include <algorithm>
#include <cmath>

#include "core/analytic_tracer.h"

namespace bcn::analysis {

std::optional<TransientEstimate> estimate_transient(
    const core::BcnParams& params, double band) {
  const core::AnalyticTracer tracer(params);
  core::AnalyticTraceOptions opts;
  opts.max_rounds = 8;
  const auto trace = tracer.trace(opts);
  // One full cycle = one decrease + one increase round after the first
  // crossing.
  if (trace.rounds.size() < 3 || !trace.rounds[1].duration ||
      !trace.rounds[2].duration) {
    return std::nullopt;
  }
  const auto ratio = trace.contraction_ratio();
  if (!ratio || !(*ratio > 0.0) || !(*ratio < 1.0)) return std::nullopt;

  TransientEstimate est;
  est.cycle_time = *trace.rounds[1].duration + *trace.rounds[2].duration;
  est.contraction_ratio = *ratio;
  est.envelope_decay_rate = -std::log(*ratio) / est.cycle_time;
  const double amp0 = std::max(trace.max_x, -trace.min_x);
  const double target = band * params.q0;
  if (amp0 <= target) {
    est.settling_time = est.cycle_time;
  } else {
    est.settling_time =
        std::log(target / amp0) / std::log(*ratio) * est.cycle_time;
  }
  return est;
}

}  // namespace bcn::analysis
