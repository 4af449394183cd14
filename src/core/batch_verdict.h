// Numeric strong-stability verdicts in batch: the bridge between the
// SoA ode::BatchIntegrator and the per-cell scalar verdict
// core::numeric_strong_stability.
//
// A VerdictLane packages one (plant, gains, level) cell as an affine
// lane law plus the buffer-strip geometry; batch_numeric_verdicts runs
// any number of them through the batched integrator — optionally sliced
// across the exec layer — and scores each with the scalar verdict's own
// predicate, core::strongly_stable_orbit.
//
// Integration horizons are the scalar verdict's bit for bit (the given
// duration, or core::verdict_horizon), and each region's fixed macro
// step is sized from that region's own linearized rates, so verdicts
// agree with the adaptive scalar driver on everything but razor-thin
// boundary cells.  The Clipped model level has buffer-wall modes outside the
// affine lane family and is not representable here — callers fall back
// to the scalar path for it.
#pragma once

#include <optional>
#include <vector>

#include "core/bcn_params.h"
#include "core/mechanism.h"
#include "core/stability.h"
#include "ode/batch.h"

namespace bcn::core {

// One stability-verdict job for the batched integrator.
struct VerdictLane {
  ode::LaneLaw law;
  double q0 = 0.0;
  double capacity = 0.0;
  double buffer = 0.0;
  double duration = 0.0;  // integration horizon (> 0)
  // Macro step for both regions; 0 -> auto, sizing each region's step
  // from its own linearized rates.
  double dt = 0.0;
  // QCN-style mechanisms without an equilibrium never satisfy the
  // convergence predicate; disabling it skips the per-step check.
  bool use_convergence_stop = true;
};

struct BatchVerdictOptions {
  // Macro steps per characteristic time 1/rate of the stiffest region.
  // 16 keeps the per-period RK4 amplitude error well under 1e-5, far below the
  // margin of any cell the scalar driver can classify robustly.
  double oversample = 16.0;
  // Early-stop threshold on |x|/q0 + |y|/C, matching the scalar
  // pipeline's convergence_tol.
  double convergence_tol = 1e-8;
  int threads = 1;  // exec convention: 0 = hardware, 1 = serial
};

// Builds the verdict lane matching core::numeric_strong_stability(facet,
// duration): same start (-q0, 0), same horizon (`duration` 0 selects
// core::verdict_horizon), same convergence stop.  Empty when the facet
// has no affine lane form at its level (Clipped).
std::optional<VerdictLane> make_mechanism_verdict_lane(
    const FluidMechanism& facet, double duration = 0.0);

// The lane of FluidModel(params, level); `level` must not be Clipped
// (std::bad_optional_access).
VerdictLane make_bcn_verdict_lane(const BcnParams& params, ModelLevel level,
                                  double duration = 0.0);

// The integrator lane batch_numeric_verdicts runs for `lane`: start
// (-q0, 0), the lane's horizon, its fixed step or each region's step
// sized from that region's rates, and the convergence stop.
ode::BatchLane make_batch_lane(const VerdictLane& lane,
                               const BatchVerdictOptions& options = {});

// Runs every lane to completion and scores it; slot i is lane i's
// verdict.  Lanes are integrated in contiguous slices, each through its
// own BatchIntegrator, and slices are distributed over the exec layer —
// lanes are fully independent, so the result is bitwise identical at
// any thread count.
std::vector<NumericVerdict> batch_numeric_verdicts(
    const std::vector<VerdictLane>& lanes,
    const BatchVerdictOptions& options = {});

}  // namespace bcn::core
