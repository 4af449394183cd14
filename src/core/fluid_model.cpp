#include "core/fluid_model.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace bcn::core {

FluidModel::FluidModel(BcnParams params, ModelLevel level, bool draft)
    : FluidMechanism(params, level),
      law_(params, level == ModelLevel::Linearized),
      draft_(draft) {
  // A real check, not an assert: registry callers hand caller configs
  // straight to this constructor, and NDEBUG builds drop asserts.
  const std::vector<std::string> violations = plant_.validate();
  if (!violations.empty()) throw std::invalid_argument(violations.front());
}

ode::Rhs FluidModel::increase_rhs() const {
  return [law = law_](double t, Vec2 z) { return law.increase(t, z); };
}

ode::Rhs FluidModel::decrease_rhs() const {
  return [law = law_](double t, Vec2 z) { return law.decrease(t, z); };
}

ode::Rhs FluidModel::empty_wall_rhs() const {
  // Queue pinned empty: dq/dt = 0, so the sampled variation term vanishes
  // and sigma = q0 - q = -x > 0; the regulator keeps increasing,
  // dy/dt = a (-x) (= a q0 on the wall).  This is the warm-up law of
  // Section IV.C.
  const double a = plant_.a();
  return [a](double /*t*/, Vec2 z) -> Vec2 { return {0.0, -a * z.x}; };
}

ode::Rhs FluidModel::full_wall_rhs() const {
  // Queue pinned full: arrivals beyond C are dropped, dq/dt = 0,
  // sigma = -x < 0, multiplicative decrease with the aggregate-rate factor.
  const double b = plant_.b();
  const double cap = plant_.capacity;
  return [b, cap](double /*t*/, Vec2 z) -> Vec2 {
    return {0.0, -b * (z.y + cap) * z.x};
  };
}

ode::HybridSystem FluidModel::hybrid_system() const {
  ode::HybridSystem system;
  system.modes.push_back(increase_rhs());
  system.modes.push_back(decrease_rhs());
  system.mode_of = [law = law_](double t, Vec2 z) {
    return law.mode_of(t, z);
  };
  system.guards.push_back(
      [law = law_](double t, Vec2 z) { return law.guard(0, t, z); });
  if (level_ != ModelLevel::Clipped) return system;
  return with_buffer_walls(std::move(system), empty_wall_rhs(),
                           full_wall_rhs());
}

std::vector<RegionLaw> FluidModel::region_laws() const {
  return {{"increase", plant_.increase_m(), plant_.increase_n(), true},
          {"decrease", plant_.decrease_m(), plant_.decrease_n(), true}};
}

double FluidModel::group_rate_deriv(double x, double y_group, double y_total,
                                    double share) const {
  const double s = law_.sigma({x, y_total});
  if (s > 0.0) return plant_.a() * s;  // additive increase, a = Ru Gi N_g
  // Multiplicative decrease scales the group's own aggregate rate.
  return plant_.b() * (y_group + share) * s;
}

bool FluidModel::lane_law(ode::LaneLaw* out) const {
  if (level_ == ModelLevel::Clipped) return false;
  ode::LaneLaw law;
  law.sx = 1.0;
  law.sy = plant_.k();
  law.g0[0] = plant_.a();  // increase: dy = a sigma
  const double b = plant_.b();
  // decrease: dy = b (y + C) sigma = (bC + b y) sigma
  law.g0[1] = b * plant_.capacity;
  law.g1[1] = level_ == ModelLevel::Linearized ? 0.0 : b;
  law.switched = true;
  *out = law;
  return true;
}

}  // namespace bcn::core
