#include "core/mechanism.h"

#include <utility>

#include "common/args.h"
#include "core/fluid_model.h"

namespace bcn::core {

ode::HybridSystem FluidMechanism::with_buffer_walls(ode::HybridSystem interior,
                                                    ode::Rhs empty_wall,
                                                    ode::Rhs full_wall) const {
  const int empty_mode = static_cast<int>(interior.modes.size());
  interior.modes.push_back(std::move(empty_wall));
  interior.modes.push_back(std::move(full_wall));
  const double lo = x_min();
  const double hi = x_max();
  // Wall capture uses a tiny position tolerance so states landed exactly on
  // the wall by event localization are recognized as wall states.
  const double wall_tol = 1e-9 * plant_.q0;
  auto inside = std::move(interior.mode_of);
  interior.mode_of = [lo, hi, wall_tol, empty_mode,
                      inside = std::move(inside)](double t, Vec2 z) {
    if (z.x <= lo + wall_tol && z.y <= 0.0) return empty_mode;
    if (z.x >= hi - wall_tol && z.y >= 0.0) return empty_mode + 1;
    return inside(t, z);
  };
  interior.guards.push_back([lo](double /*t*/, Vec2 z) { return z.x - lo; });
  interior.guards.push_back([hi](double /*t*/, Vec2 z) { return z.x - hi; });
  interior.guards.push_back([](double /*t*/, Vec2 z) { return z.y; });
  return interior;
}

namespace {

// --- QCN --------------------------------------------------------------------
// Negative-only quantized feedback; rate recovery is the sources' own
// periodic active increase.  Fluid caricature:
//
//   * everywhere: the self-increase timers contribute a constant drive
//     ai = N R_AI / T_AI (the active-increase phase; fast recovery decays
//     toward it);
//   * sigma < 0: each sampled message cuts the targeted source by
//     max_decrease * Fb/(Fb_max+1); below full scale Fb is proportional
//     to sigma_frames / fb_scale, so the smooth limit is the BCN
//     multiplicative law with the effective gain b = max_decrease/fb_scale
//     (= 1/128 at the QCN defaults, matching the BCN draft Gd).
//
// The drive never vanishes at the origin, so QCN has no equilibrium: the
// orbit settles into a sawtooth riding just inside the decrease region.
class QcnFluidMechanism final : public FluidMechanism {
 public:
  QcnFluidMechanism(const BcnParams& plant, const QcnParams& qcn,
                    ModelLevel level)
      : FluidMechanism(plant, level), qcn_(qcn) {}

  const char* name() const override { return "qcn"; }

  double active_drive() const {
    return plant_.num_sources * qcn_.active_increase / qcn_.increase_period;
  }
  double effective_gd() const { return qcn_.max_decrease / qcn_.fb_scale; }

  double sigma(Vec2 z) const override {
    return -(z.x + plant_.k() * z.y);
  }

  ode::HybridSystem hybrid_system() const override {
    ode::HybridSystem system;
    const double k = plant_.k();
    const double ai = active_drive();
    const double b = effective_gd();
    const double cap = plant_.capacity;

    system.modes.push_back(
        [ai](double /*t*/, Vec2 z) -> Vec2 { return {z.y, ai}; });
    if (level_ == ModelLevel::Linearized) {
      const double bc = b * cap;
      system.modes.push_back([ai, bc, k](double /*t*/, Vec2 z) -> Vec2 {
        return {z.y, ai - bc * (z.x + k * z.y)};
      });
    } else {
      system.modes.push_back([ai, b, k, cap](double /*t*/, Vec2 z) -> Vec2 {
        return {z.y, ai - b * (z.y + cap) * (z.x + k * z.y)};
      });
    }
    system.mode_of = [k](double /*t*/, Vec2 z) {
      return -(z.x + k * z.y) > 0.0 ? kModeIncrease : kModeDecrease;
    };
    system.guards.push_back(
        [k](double /*t*/, Vec2 z) { return z.x + k * z.y; });
    if (level_ != ModelLevel::Clipped) return system;

    // On a wall the sampled queue variation vanishes and sigma
    // degenerates to -x.
    return with_buffer_walls(
        std::move(system),
        [ai](double /*t*/, Vec2 /*z*/) -> Vec2 { return {0.0, ai}; },
        [ai, b, cap](double /*t*/, Vec2 z) -> Vec2 {
          return {0.0, ai - b * (z.y + cap) * z.x};
        });
  }

  std::vector<RegionLaw> region_laws() const override {
    const double bc = effective_gd() * plant_.capacity;
    return {{"increase (constant drive)", 0.0, 0.0, false},
            {"decrease", plant_.k() * bc, bc, true}};
  }

  bool has_equilibrium() const override { return false; }

  double group_rate_deriv(double x, double y_group, double y_total,
                          double share) const override {
    const double s = -(x + plant_.k() * y_total);
    const double ai = active_drive();
    if (s > 0.0) return ai;
    return ai + effective_gd() * (y_group + share) * s;
  }

  bool lane_law(ode::LaneLaw* out) const override {
    if (level_ == ModelLevel::Clipped) return false;
    ode::LaneLaw law;
    law.sx = 1.0;
    law.sy = plant_.k();
    const double ai = active_drive();
    const double b = effective_gd();
    law.drive[0] = ai;  // increase region: pure constant drive
    law.drive[1] = ai;
    // decrease: ai - b (y + C)(x + k y) = ai + (bC + b y) sigma
    law.g0[1] = b * plant_.capacity;
    law.g1[1] = level_ == ModelLevel::Linearized ? 0.0 : b;
    law.switched = true;
    *out = law;
    return true;
  }

 private:
  QcnParams qcn_;
};

// --- RCP --------------------------------------------------------------------
// Explicit-rate control: one advertised rate R for every flow, updated
// each interval d by the relative rate mismatch and the queue excess,
//   dR/dt = R (alpha (C - Y) - beta (q - q0)/d) / (C d),   Y = N R.
// In translated aggregate coordinates (Y = y + C):
//   dy/dt = (y + C)(-alpha y - (beta/d) x) / (C d),
// a single smooth law on the whole interior: unlike BCN/QCN there is no
// switching line, only the buffer walls.  Linearization at the origin
// gives lambda^2 + (alpha/d) lambda + beta/d^2, stable for any positive
// gains (the Voice & Raina alpha = 0.4, beta = 0.226 defaults put it in
// the well-damped spiral regime).
class RcpFluidMechanism final : public FluidMechanism {
 public:
  RcpFluidMechanism(const BcnParams& plant, const RcpParams& rcp,
                    ModelLevel level)
      : FluidMechanism(plant, level), rcp_(rcp) {}

  const char* name() const override { return "rcp"; }

  double sigma(Vec2 z) const override {
    return -rcp_.alpha * z.y - (rcp_.beta / rcp_.interval) * z.x;
  }

  ode::HybridSystem hybrid_system() const override {
    ode::HybridSystem system;
    const double alpha = rcp_.alpha;
    const double bd = rcp_.beta / rcp_.interval;  // beta/d
    const double d = rcp_.interval;
    const double cap = plant_.capacity;

    if (level_ == ModelLevel::Linearized) {
      const double ad = alpha / d;
      const double bdd = bd / d;  // beta/d^2
      system.modes.push_back([ad, bdd](double /*t*/, Vec2 z) -> Vec2 {
        return {z.y, -ad * z.y - bdd * z.x};
      });
    } else {
      system.modes.push_back(
          [alpha, bd, d, cap](double /*t*/, Vec2 z) -> Vec2 {
            return {z.y,
                    (z.y + cap) * (-alpha * z.y - bd * z.x) / (cap * d)};
          });
    }
    system.mode_of = [](double /*t*/, Vec2 /*z*/) { return 0; };
    if (level_ != ModelLevel::Clipped) return system;

    // Walls: the queue pins, the rate law keeps integrating with x frozen.
    const ode::Rhs wall = [alpha, bd, d, cap](double /*t*/, Vec2 z) -> Vec2 {
      return {0.0, (z.y + cap) * (-alpha * z.y - bd * z.x) / (cap * d)};
    };
    return with_buffer_walls(std::move(system), wall, wall);
  }

  std::vector<RegionLaw> region_laws() const override {
    const double d = rcp_.interval;
    return {{"interior", rcp_.alpha / d, rcp_.beta / (d * d), true}};
  }

  double group_rate_deriv(double x, double y_group, double y_total,
                          double share) const override {
    // Every flow is advertised the same R, so each group's aggregate
    // scales by the same relative update.
    const double cap = plant_.capacity;
    const double d = rcp_.interval;
    return (y_group + share) *
           (-rcp_.alpha * y_total - (rcp_.beta / d) * x) / (cap * d);
  }

  bool lane_law(ode::LaneLaw* out) const override {
    if (level_ == ModelLevel::Clipped) return false;
    ode::LaneLaw law;
    // RCP's single smooth law in lane form: with sigma = -(bd x + alpha y),
    //   dy = (y + C) sigma / (C d) = (1/d + y/(C d)) sigma.
    law.sx = rcp_.beta / rcp_.interval;
    law.sy = rcp_.alpha;
    const double inv_d = 1.0 / rcp_.interval;
    law.g0[0] = law.g0[1] = inv_d;
    const double g1 =
        level_ == ModelLevel::Linearized
            ? 0.0
            : inv_d / plant_.capacity;
    law.g1[0] = law.g1[1] = g1;
    law.switched = false;  // no switching line, interior only
    *out = law;
    return true;
  }

 private:
  RcpParams rcp_;
};

// --- registry ---------------------------------------------------------------

void set_bcn_gains(MechanismConfig& c, double g1, double g2) {
  c.plant.gi = g1;
  c.plant.gd = g2;
}
std::pair<double, double> default_bcn_gains(const MechanismConfig& c) {
  return {c.plant.gi, c.plant.gd};
}
void set_qcn_gains(MechanismConfig& c, double g1, double g2) {
  c.qcn.active_increase = g1;
  c.qcn.max_decrease = g2;
}
std::pair<double, double> default_qcn_gains(const MechanismConfig& c) {
  return {c.qcn.active_increase, c.qcn.max_decrease};
}
void set_rcp_gains(MechanismConfig& c, double g1, double g2) {
  c.rcp.alpha = g1;
  c.rcp.beta = g2;
}
std::pair<double, double> default_rcp_gains(const MechanismConfig& c) {
  return {c.rcp.alpha, c.rcp.beta};
}
void set_fera_gains(MechanismConfig& c, double g1, double g2) {
  c.fera.alpha = g1;
  c.fera.smoothing = g2;
}
std::pair<double, double> default_fera_gains(const MechanismConfig& c) {
  return {c.fera.alpha, c.fera.smoothing};
}

}  // namespace

const std::vector<MechanismInfo>& mechanism_registry() {
  static const std::vector<MechanismInfo> registry = {
      {"bcn",
       "BCN with fluid-matched feedback application (paper eq. (2)/(7))",
       "gi", "gd", true, true, set_bcn_gains, default_bcn_gains},
      {"bcn-draft",
       "BCN with the draft's literal per-message quantized jumps",
       "gi", "gd", true, true, set_bcn_gains, default_bcn_gains},
      {"qcn",
       "QCN-style: negative-only quantized feedback, source self-increase",
       "active_increase", "max_decrease", true, true, set_qcn_gains,
       default_qcn_gains},
      {"rcp",
       "RCP-style explicit rate: rate-mismatch + queue terms per interval",
       "alpha", "beta", true, true, set_rcp_gains, default_rcp_gains},
      {"fera",
       "FERA/ERICA-style explicit fair-share advertisement (packet only)",
       "alpha", "smoothing", false, true, set_fera_gains,
       default_fera_gains},
  };
  return registry;
}

const MechanismInfo* find_mechanism(std::string_view name) {
  for (const MechanismInfo& info : mechanism_registry()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::string mechanism_name_list() {
  std::string out;
  for (const MechanismInfo& info : mechanism_registry()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

std::string mechanism_flag(const ArgParser& args) {
  const auto flag = args.lookup("mechanism");
  if (!flag) return "bcn";
  if (!find_mechanism(flag->text)) {
    flag->fail("unknown mechanism '" + flag->text + "' (known: " +
               mechanism_name_list() + ")");
  }
  return flag->text;
}

std::unique_ptr<FluidMechanism> make_fluid_mechanism(
    std::string_view name, const MechanismConfig& config, ModelLevel level) {
  if (name == "bcn" || name == "bcn-draft") {
    return std::make_unique<FluidModel>(config.plant, level,
                                        name == "bcn-draft");
  }
  if (name == "qcn") {
    return std::make_unique<QcnFluidMechanism>(config.plant, config.qcn,
                                               level);
  }
  if (name == "rcp") {
    return std::make_unique<RcpFluidMechanism>(config.plant, config.rcp,
                                               level);
  }
  return nullptr;
}

}  // namespace bcn::core
