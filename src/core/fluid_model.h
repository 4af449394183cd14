// The BCN fluid-flow model (paper Section III) over the translated phase
// plane x = q - q0, y = N r - C: BCN's registered fluid facet ("bcn" and
// "bcn-draft" in core/mechanism.h).
//
// Three model levels, from most idealized to most physical:
//
//   * linearized  -- paper eq. (9): both regions linear; this is the system
//     the paper's closed-form analysis operates on.
//   * nonlinear   -- paper eq. (8): the decrease region keeps the
//     multiplicative (y + C) factor of AIMD.
//   * clipped     -- eq. (8) plus the physical buffer walls: the queue
//     saturates at q = 0 and q = B (the paper's "movements along the dashed
//     lines" in Fig. 3), with the sampled queue variation forced to zero on
//     a wall so sigma degenerates to q0 - q there.
//
// The level is fixed when the model is built.
#pragma once

#include <vector>

#include "core/bcn_params.h"
#include "core/fluid_laws.h"

namespace bcn::core {

// Region of the phase plane relative to the switching line sigma = 0.
enum class Region { Increase, Decrease };

class FluidModel final : public LawFacet<BcnLaw> {
 public:
  // Throws std::invalid_argument carrying the first params.validate()
  // message when the plant is invalid.  `draft` only renames the facet
  // "bcn-draft": the draft's literal per-message rule differs from bcn
  // in the packet facet, not in the fluid limit.
  explicit FluidModel(BcnParams params,
                      ModelLevel level = ModelLevel::Nonlinear,
                      bool draft = false);

  const char* name() const override { return draft_ ? "bcn-draft" : "bcn"; }

  Region region_of(Vec2 z) const {
    return law_.mode_of(0.0, z) == kModeIncrease ? Region::Increase
                                                 : Region::Decrease;
  }

  // The increase and decrease laws of eq. (35).
  std::vector<RegionLaw> region_laws() const override;

  double group_rate_deriv(double x, double y_group, double y_total,
                          double share) const override;

  bool lane_law(ode::LaneLaw* out) const override;

  // The raw physical start: queue empty, every source at init_rate.  (The
  // paper's canonical analysis start, queue empty with the aggregate rate
  // exactly C, is analysis_initial_point().)
  Vec2 physical_initial_point() const {
    return {-plant_.q0,
            plant_.num_sources * plant_.init_rate - plant_.capacity};
  }

  // --- coordinate conversions ----------------------------------------------
  double queue_of(double x) const { return x + plant_.q0; }
  double x_of_queue(double q) const { return q - plant_.q0; }
  double aggregate_rate_of(double y) const { return y + plant_.capacity; }
  double per_source_rate_of(double y) const {
    return (y + plant_.capacity) / plant_.num_sources;
  }

 private:
  bool draft_;
};

}  // namespace bcn::core
