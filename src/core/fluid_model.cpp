#include "core/fluid_model.h"

namespace bcn::core {

FluidModel::FluidModel(BcnParams params, ModelLevel level, bool draft)
    : LawFacet(params, level, BcnLaw(params, level == ModelLevel::Linearized)),
      draft_(draft) {
  plant_.require_valid();
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
