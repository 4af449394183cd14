// The registered fluid facets' switched laws as concrete types, the
// Clipped level's buffer walls as one template over any of them, and the
// helper every facet derives from.  A law is an ode::run_hybrid System
// (ode/hybrid_driver.h) plus
//
//   static constexpr int kModes;               // interior modes
//   static constexpr bool kExtremaSettle;      // ExtremaFold::settled allowed
//   double sigma(Vec2 z) const;                // the feedback signal
//   Vec2 empty_wall(double t, Vec2 z) const;   // queue pinned empty
//   Vec2 full_wall(double t, Vec2 z) const;    // queue pinned full
//
// Every expression, and every product a law precomputes, is the one the
// trajectory and verdict pins were taken with: reassociating any of them
// moves low bits.
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>

#include "common/math.h"
#include "core/bcn_params.h"
#include "core/mechanism.h"
#include "ode/hybrid_driver.h"

namespace bcn::core {

// BCN's two interior regions: the increase law plus eq. (9)
// (Linearized) or eq. (8) (every other level), the switching line and
// the mode rule.
class BcnLaw {
 public:
  static constexpr int kModes = 2;
  // x' = y, and on y = 0, y' is -a x or -b C x: each half of the x-axis
  // is crossed one way only, at the orbit's x-peaks (x > 0) and x-dips.
  static constexpr bool kExtremaSettle = true;

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

  Vec2 rhs(int mode, double /*t*/, Vec2 z) const {
    // Increase: dy/dt = a sigma = -a (x + k y), linear at every level.
    if (mode == kModeIncrease) return {z.y, -a_ * (z.x + k_ * z.y)};
    // Paper eq. (9): dy/dt = -b C (x + k y).
    if (linearized_) return {z.y, -bc_ * (z.x + k_ * z.y)};
    // Paper eq. (8): dy/dt = -b (y + C)(x + k y).  The y + C factor is the
    // aggregate source rate, which multiplicative decrease scales.
    return {z.y, -b_ * (z.y + cap_) * (z.x + k_ * z.y)};
  }
  int mode_of(double /*t*/, Vec2 z) const {
    return sigma(z) > 0.0 ? kModeIncrease : kModeDecrease;
  }
  // One guard, the switching line: -sigma, which is x + k y bit for bit.
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return -sigma(z); }

  // Queue pinned empty: dq/dt = 0, so the sampled variation term vanishes
  // and sigma = q0 - q = -x > 0; the regulator keeps increasing,
  // dy/dt = a (-x) (= a q0 on the wall).  This is the warm-up law of
  // Section IV.C.
  Vec2 empty_wall(double /*t*/, Vec2 z) const { return {0.0, -a_ * z.x}; }
  // Queue pinned full: arrivals beyond C are dropped, dq/dt = 0,
  // sigma = -x < 0, multiplicative decrease with the aggregate-rate factor.
  Vec2 full_wall(double /*t*/, Vec2 z) const {
    return {0.0, -b_ * (z.y + cap_) * z.x};
  }

 private:
  double a_, b_, k_, cap_, bc_;
  bool linearized_;
};

// QCN's fluid caricature (core/mechanism.cpp describes it): a constant
// self-increase drive ai everywhere, and below the switching line the
// BCN multiplicative law at the effective gain b = max_decrease/fb_scale.
class QcnLaw {
 public:
  static constexpr int kModes = 2;
  // On y = 0, y' = ai - b C x turns positive for 0 < x < ai/(bC), so an
  // orbit may cross the positive x-axis either way.
  static constexpr bool kExtremaSettle = false;

  QcnLaw(const BcnParams& plant, const QcnParams& qcn, bool linearized)
      : k_(plant.k()),
        ai_(plant.num_sources * qcn.active_increase / qcn.increase_period),
        b_(qcn.max_decrease / qcn.fb_scale),
        cap_(plant.capacity),
        bc_(b_ * cap_),
        linearized_(linearized) {}

  double active_drive() const { return ai_; }
  double effective_gd() const { return b_; }

  double sigma(Vec2 z) const { return -(z.x + k_ * z.y); }

  Vec2 rhs(int mode, double /*t*/, Vec2 z) const {
    if (mode == kModeIncrease) return {z.y, ai_};
    if (linearized_) return {z.y, ai_ - bc_ * (z.x + k_ * z.y)};
    return {z.y, ai_ - b_ * (z.y + cap_) * (z.x + k_ * z.y)};
  }
  int mode_of(double /*t*/, Vec2 z) const {
    return -(z.x + k_ * z.y) > 0.0 ? kModeIncrease : kModeDecrease;
  }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return z.x + k_ * z.y; }

  // On a wall the sampled queue variation vanishes and sigma
  // degenerates to -x.
  Vec2 empty_wall(double /*t*/, Vec2 /*z*/) const { return {0.0, ai_}; }
  Vec2 full_wall(double /*t*/, Vec2 z) const {
    return {0.0, ai_ - b_ * (z.y + cap_) * z.x};
  }

 private:
  double k_, ai_, b_, cap_, bc_;
  bool linearized_;
};

// RCP's explicit-rate law (Voice & Raina; core/mechanism.cpp derives
// it): one smooth field on the whole interior,
//   dy/dt = (y + C)(-alpha y - (beta/d) x) / (C d),
// linearized at the origin to dy/dt = -(alpha/d) y - (beta/d^2) x.  No
// switching line, so one mode and no guards.
class RcpLaw {
 public:
  static constexpr int kModes = 1;
  // With no switching line the post-switch window never opens, so its
  // min_x judges no underflow yet; its orbits run to the horizon.
  static constexpr bool kExtremaSettle = false;

  RcpLaw(const BcnParams& plant, const RcpParams& rcp, bool linearized)
      : alpha_(rcp.alpha),
        d_(rcp.interval),
        cap_(plant.capacity),
        ad_(rcp.alpha / rcp.interval),
        bd_(rcp.beta / rcp.interval),
        bdd_(bd_ / rcp.interval),
        linearized_(linearized) {}

  double sigma(Vec2 z) const { return -alpha_ * z.y - bd_ * z.x; }

  Vec2 rhs(int /*mode*/, double /*t*/, Vec2 z) const {
    if (linearized_) return {z.y, -ad_ * z.y - bdd_ * z.x};
    return {z.y, rate(z)};
  }
  int mode_of(double /*t*/, Vec2 /*z*/) const { return 0; }
  static constexpr std::size_t guard_count() { return 0; }
  double guard(std::size_t, double, Vec2) const { return 0.0; }

  // Walls: the queue pins, the rate law keeps integrating with x frozen.
  Vec2 empty_wall(double /*t*/, Vec2 z) const { return {0.0, rate(z)}; }
  Vec2 full_wall(double /*t*/, Vec2 z) const { return {0.0, rate(z)}; }

 private:
  double rate(Vec2 z) const {
    return (z.y + cap_) * (-alpha_ * z.y - bd_ * z.x) / (cap_ * d_);
  }

  double alpha_, d_, cap_;
  double ad_, bd_, bdd_;  // alpha/d, beta/d, beta/d^2
  bool linearized_;
};

// The Clipped level's buffer walls around any law: the queue saturates
// at q = 0 and q = B.  The empty-wall and full-wall modes are numbered
// after the law's interior modes, a state on a wall is captured into its
// mode ahead of the law's own mode rule, and the guards x = x_min,
// x = x_max and y = 0 follow the law's guards.
template <class Law>
class BufferWalls {
 public:
  static constexpr int kEmptyWall = Law::kModes;
  static constexpr int kFullWall = Law::kModes + 1;
  static constexpr int kModes = Law::kModes + 2;

  BufferWalls(const Law& law, double x_min, double x_max, double wall_tol)
      : law_(law), lo_(x_min), hi_(x_max), wall_tol_(wall_tol) {}

  Vec2 rhs(int mode, double t, Vec2 z) const {
    if (mode == kEmptyWall) return law_.empty_wall(t, z);
    if (mode == kFullWall) return law_.full_wall(t, z);
    return law_.rhs(mode, t, z);
  }
  int mode_of(double t, Vec2 z) const {
    if (z.x <= lo_ + wall_tol_ && z.y <= 0.0) return kEmptyWall;
    if (z.x >= hi_ - wall_tol_ && z.y >= 0.0) return kFullWall;
    return law_.mode_of(t, z);
  }
  std::size_t guard_count() const { return law_.guard_count() + 3; }
  double guard(std::size_t i, double t, Vec2 z) const {
    const std::size_t n = law_.guard_count();
    if (i < n) return law_.guard(i, t, z);
    if (i == n) return z.x - lo_;
    if (i == n + 1) return z.x - hi_;
    return z.y;
  }

 private:
  Law law_;
  double lo_, hi_, wall_tol_;
};

// The helper every fluid facet derives from: it holds the facet's law and
// is the one place that picks what ode::run_hybrid integrates, the law
// itself at Linearized and Nonlinear or the law inside its buffer walls
// at Clipped.
template <class Law>
class LawFacet : public FluidMechanism {
 public:
  // The interior law at the facet's level.
  const Law& law() const { return law_; }
  // The law inside the buffer walls: what the facet integrates at
  // Clipped.
  BufferWalls<Law> walls() const {
    return BufferWalls<Law>(law_, x_min(), x_max(), wall_tol());
  }

  double sigma(Vec2 z) const override { return law_.sigma(z); }
  ExtremaFold extrema_fold() const override {
    return ExtremaFold(Law::kModes,
                       Law::kExtremaSettle && level_ != ModelLevel::Clipped);
  }

  ode::HybridStats integrate(double t0, Vec2 z0, double t1,
                             const ode::HybridOptions& options,
                             ode::RecordingSink& sink) const override {
    return run(t0, z0, t1, options, sink);
  }
  ode::HybridStats integrate(double t0, Vec2 z0, double t1,
                             const ode::HybridOptions& options,
                             ExtremaFold& sink) const override {
    return run(t0, z0, t1, options, sink);
  }
  std::array<ode::HybridStats, 2> integrate_pair(
      const FluidMechanism& peer,
      const std::array<ode::HybridLane<ExtremaFold>, 2>& lanes)
      const override {
    const auto* other = dynamic_cast<const LawFacet*>(&peer);
    if (other == nullptr || level_ == ModelLevel::Clipped ||
        other->level_ == ModelLevel::Clipped) {
      throw std::invalid_argument(
          "integrate_pair: needs two interior-level facets of one law");
    }
    return ode::run_hybrid_pair<Law, ExtremaFold>({&law_, &other->law_},
                                                  lanes);
  }

 protected:
  LawFacet(const BcnParams& plant, ModelLevel level, const Law& law)
      : FluidMechanism(plant, level), law_(law) {}

  Law law_;

 private:
  template <class Sink>
  ode::HybridStats run(double t0, Vec2 z0, double t1,
                       const ode::HybridOptions& options, Sink& sink) const {
    if (level_ == ModelLevel::Clipped) {
      return ode::run_hybrid(walls(), t0, z0, t1, options, sink);
    }
    return ode::run_hybrid(law_, t0, z0, t1, options, sink);
  }
};

}  // namespace bcn::core
