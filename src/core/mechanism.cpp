#include "core/mechanism.h"

#include <utility>

#include "common/args.h"
#include "core/fluid_laws.h"
#include "core/fluid_model.h"

namespace bcn::core {

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
class QcnFluidMechanism final : public LawFacet<QcnLaw> {
 public:
  QcnFluidMechanism(const BcnParams& plant, const QcnParams& qcn,
                    ModelLevel level)
      : LawFacet(plant, level,
                 QcnLaw(plant, qcn, level == ModelLevel::Linearized)) {}

  const char* name() const override { return "qcn"; }

  std::vector<RegionLaw> region_laws() const override {
    const double bc = law_.effective_gd() * plant_.capacity;
    return {{"increase (constant drive)", 0.0, 0.0, false},
            {"decrease", plant_.k() * bc, bc, true}};
  }

  bool has_equilibrium() const override { return false; }

  double group_rate_deriv(double x, double y_group, double y_total,
                          double share) const override {
    const double s = -(x + plant_.k() * y_total);
    const double ai = law_.active_drive();
    if (s > 0.0) return ai;
    return ai + law_.effective_gd() * (y_group + share) * s;
  }

  bool lane_law(ode::LaneLaw* out) const override {
    if (level_ == ModelLevel::Clipped) return false;
    ode::LaneLaw law;
    law.sx = 1.0;
    law.sy = plant_.k();
    const double ai = law_.active_drive();
    const double b = law_.effective_gd();
    law.drive[0] = ai;  // increase region: pure constant drive
    law.drive[1] = ai;
    // decrease: ai - b (y + C)(x + k y) = ai + (bC + b y) sigma
    law.g0[1] = b * plant_.capacity;
    law.g1[1] = level_ == ModelLevel::Linearized ? 0.0 : b;
    law.switched = true;
    *out = law;
    return true;
  }
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
class RcpFluidMechanism final : public LawFacet<RcpLaw> {
 public:
  RcpFluidMechanism(const BcnParams& plant, const RcpParams& rcp,
                    ModelLevel level)
      : LawFacet(plant, level,
                 RcpLaw(plant, rcp, level == ModelLevel::Linearized)),
        rcp_(rcp) {}

  const char* name() const override { return "rcp"; }

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
