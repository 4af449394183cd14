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

#include <cstddef>
#include <vector>

#include "core/bcn_params.h"
#include "core/mechanism.h"
#include "ode/hybrid.h"
#include "ode/system.h"

namespace bcn::core {

// Region of the phase plane relative to the switching line sigma = 0.
enum class Region { Increase, Decrease };

// BCN's two interior regions as a concrete switched system: the increase
// law plus eq. (9) (Linearized) or eq. (8) (every other level), the
// switching line and the mode rule.  It meets ode::run_hybrid's System
// interface (ode/hybrid_driver.h), so simulate_fluid integrates the
// Linearized and Nonlinear facets with these inlined; FluidModel's
// std::function views wrap the same methods.
class BcnLaw {
 public:
  BcnLaw(const BcnParams& plant, bool linearized)
      : a_(plant.a()),
        b_(plant.b()),
        k_(plant.k()),
        cap_(plant.capacity),
        bc_(plant.b() * plant.capacity),
        linearized_(linearized) {}

  // sigma(z) = -(x + k y): positive in the increase region (eq. (6) after
  // the coordinate change of Section IV.A).
  double sigma(Vec2 z) const { return -(z.x + k_ * z.y); }

  // dy/dt = a sigma = -a (x + k y): already linear, identical at every
  // model level.
  Vec2 increase(double /*t*/, Vec2 z) const {
    return {z.y, -a_ * (z.x + k_ * z.y)};
  }

  Vec2 decrease(double /*t*/, Vec2 z) const {
    // Paper eq. (9): dy/dt = -b C (x + k y).
    if (linearized_) return {z.y, -bc_ * (z.x + k_ * z.y)};
    // Paper eq. (8): dy/dt = -b (y + C)(x + k y).  The y + C factor is the
    // aggregate source rate, which multiplicative decrease scales.
    return {z.y, -b_ * (z.y + cap_) * (z.x + k_ * z.y)};
  }

  // --- the ode::run_hybrid System interface ---------------------------------
  Vec2 rhs(int mode, double t, Vec2 z) const {
    return mode == kModeIncrease ? increase(t, z) : decrease(t, z);
  }
  int mode_of(double /*t*/, Vec2 z) const {
    return sigma(z) > 0.0 ? kModeIncrease : kModeDecrease;
  }
  // One guard, the switching line: -sigma, which is x + k y bit for bit.
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t /*i*/, double /*t*/, Vec2 z) const {
    return -sigma(z);
  }

 private:
  double a_;
  double b_;
  double k_;
  double cap_;
  double bc_;
  bool linearized_;
};

class FluidModel final : public FluidMechanism {
 public:
  // Throws std::invalid_argument carrying the first params.validate()
  // message when the plant is invalid.  `draft` only renames the facet
  // "bcn-draft": the draft's literal per-message rule differs from bcn
  // in the packet facet, not in the fluid limit.
  explicit FluidModel(BcnParams params,
                      ModelLevel level = ModelLevel::Nonlinear,
                      bool draft = false);

  const char* name() const override { return draft_ ? "bcn-draft" : "bcn"; }

  double sigma(Vec2 z) const override { return law_.sigma(z); }
  Region region_of(Vec2 z) const {
    return law_.mode_of(0.0, z) == kModeIncrease ? Region::Increase
                                                 : Region::Decrease;
  }

  // The interior law at the facet's level (eq. (8) under Clipped's walls).
  const BcnLaw& law() const { return law_; }

  // Vector fields of the interior modes.
  ode::Rhs increase_rhs() const;
  ode::Rhs decrease_rhs() const;

  // The switched system for hybrid integration: two interior modes for
  // Linearized/Nonlinear, four (with buffer walls) for Clipped.
  ode::HybridSystem hybrid_system() const override;

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
  ode::Rhs empty_wall_rhs() const;
  ode::Rhs full_wall_rhs() const;

  BcnLaw law_;
  bool draft_;
};

}  // namespace bcn::core
