// Transient-performance metrics -- the paper's stated future work
// ("investigate the transient behaviors of BCN system and evaluate the
// impact of parameters on the transient performance").
//
// estimate_transient predicts cycle time and settling time in closed form
// from the phase-plane quantities (round durations + contraction ratio of
// the switched linearized system).  The tests hold it to the same metrics
// measured on a simulated trajectory (tests/support/transient_metrics.h).
#pragma once

#include <optional>

#include "core/bcn_params.h"

namespace bcn::analysis {

struct TransientEstimate {
  double cycle_time = 0.0;         // T_i + T_d of one full oscillation
  double contraction_ratio = 0.0;  // amplitude factor per cycle
  double settling_time = 0.0;      // time to contract the first overshoot
                                   // into the band
  double envelope_decay_rate = 0.0;  // -ln(ratio)/cycle_time
};

// Closed-form estimate from the switched linearized system; nullopt when
// the trace has no second full cycle (overdamped cases settle within the
// first rounds).
std::optional<TransientEstimate> estimate_transient(
    const core::BcnParams& params, double band = 0.05);

}  // namespace bcn::analysis
