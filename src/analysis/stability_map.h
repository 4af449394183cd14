// (Gi, Gd) stability maps: for each gain pair, the paper-case
// classification, the Proposition/Theorem-1 verdicts and the numeric
// ground truth, plus aggregate agreement statistics.
//
// These drive experiment E9 (propositions map) and the Theorem-1
// soundness sweep of E8: Theorem 1 is a *sufficient* condition, so a sound
// reproduction must find zero cells where Theorem 1 says stable but the
// numeric verdict disagrees.
//
// Three execution strategies for the numeric ground truth:
//
//   * Scalar — the legacy path: one adaptive hybrid integration per cell
//     (byte-identical to the historical artifacts, any thread count);
//   * Batch — every cell becomes a lane of the SoA ode::BatchIntegrator
//     (core/batch_verdict.h): same verdicts, several times the
//     cells/sec;
//   * Adaptive — batched integration of a coarse grid, then quadtree
//     refinement of only the blocks whose corner verdicts mix (plus a
//     one-block safety margin around them — the strong-stability
//     boundary), with the interiors of uniform blocks inheriting their
//     corner verdict without being integrated.  Each refinement wave is
//     one batched dispatch.
//
// The Clipped model level has buffer-wall modes the affine lane family
// cannot represent; Batch/Adaptive silently fall back to Scalar there.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/stability.h"

namespace bcn::obs {
class MetricsRegistry;
}

namespace bcn::analysis {

enum class MapMode {
  Scalar,
  Batch,
  Adaptive,
};

// "scalar", "batch", "adaptive".
std::string to_string(MapMode mode);
// False (and *mode untouched) for anything else.
bool parse_map_mode(std::string_view text, MapMode* mode);

struct MapCell {
  double gi = 0.0;
  double gd = 0.0;
  core::StabilityReport report;
  core::NumericVerdict numeric;
  // False only for Adaptive cells that inherited their verdict from a
  // uniform block's corner instead of being integrated.
  bool integrated = true;
};

struct StabilityMap {
  std::vector<double> gi_values;
  std::vector<double> gd_values;
  std::vector<MapCell> cells;  // row-major: gi outer, gd inner
  // The strategy that ran: the requested one, or Scalar at Clipped.
  MapMode mode = MapMode::Scalar;

  // Aggregates.
  int theorem1_stable = 0;          // cells Theorem 1 declares stable
  int numeric_stable = 0;           // cells numerically strongly stable
  int proposition_stable = 0;       // cells the propositions declare stable
  int theorem1_false_positive = 0;  // Theorem 1 stable but numeric unstable
  int proposition_false_positive = 0;

  // Work accounting: how many cells were actually integrated (== cells
  // for Scalar/Batch) and how the Adaptive waves were shaped.
  std::size_t integrated_cells = 0;
  int refinement_waves = 0;           // batched dispatches issued
  std::vector<std::size_t> wave_cells;  // lanes per wave
};

struct StabilityMapOptions {
  core::ModelLevel numeric_level = core::ModelLevel::Linearized;
  double numeric_duration = 0.0;  // 0 -> auto
  // Worker threads for the per-cell evaluation (0 = all hardware threads,
  // 1 = legacy serial path).  Cells are independent and land in the
  // output vector by index, so the map is bitwise identical at any
  // thread count.
  int threads = 1;
  MapMode mode = MapMode::Scalar;
  // Adaptive coarse-grid stride (power of two); 0 derives one targeting
  // ~9 coarse points per axis.
  int initial_stride = 0;
  // Macro steps per characteristic time for the batched integrator.
  double oversample = 16.0;
  // Optional wave/refinement counters ("map.waves",
  // "map.cells_integrated", "map.max_wave_lanes").
  obs::MetricsRegistry* metrics = nullptr;
};

// Evaluates the map over the cross product of the gain vectors, holding
// every other parameter of `base` fixed.
StabilityMap compute_stability_map(const core::BcnParams& base,
                                   const std::vector<double>& gi_values,
                                   const std::vector<double>& gd_values,
                                   const StabilityMapOptions& options = {});

}  // namespace bcn::analysis
