// Fluid facet of the pluggable-mechanism layer: registry contents, gain
// plumbing, BCN's facet being FluidModel itself, the shared buffer walls,
// and the one integration routine and verdict every facet runs through.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/fluid_model.h"
#include "core/mechanism.h"
#include "core/simulate.h"
#include "core/stability.h"

namespace bcn::core {
namespace {

// The slow-regime plant used across the sim-layer references: every
// registered fluid facet is strongly stable here at its default gains.
BcnParams slow_regime() {
  BcnParams p;
  p.num_sources = 8;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  return p;
}

TEST(MechanismRegistryTest, RegistersTheFiveMechanisms) {
  const auto& reg = mechanism_registry();
  ASSERT_EQ(reg.size(), 5u);
  EXPECT_STREQ(reg[0].name, "bcn");
  EXPECT_STREQ(reg[1].name, "bcn-draft");
  EXPECT_STREQ(reg[2].name, "qcn");
  EXPECT_STREQ(reg[3].name, "rcp");
  EXPECT_STREQ(reg[4].name, "fera");
  EXPECT_EQ(mechanism_name_list(), "bcn, bcn-draft, qcn, rcp, fera");
}

TEST(MechanismRegistryTest, LookupByNameAndUnknownName) {
  for (const auto& info : mechanism_registry()) {
    const MechanismInfo* found = find_mechanism(info.name);
    ASSERT_NE(found, nullptr);
    EXPECT_STREQ(found->name, info.name);
  }
  EXPECT_EQ(find_mechanism("nope"), nullptr);
  EXPECT_EQ(find_mechanism(""), nullptr);
  EXPECT_EQ(find_mechanism("BCN"), nullptr);  // names are case-sensitive
}

TEST(MechanismRegistryTest, FluidFacetAvailabilityMatchesFlag) {
  for (const auto& info : mechanism_registry()) {
    const auto mech = make_fluid_mechanism(info.name);
    EXPECT_EQ(mech != nullptr, info.has_fluid) << info.name;
    if (mech) {
      EXPECT_STREQ(mech->name(), info.name);
    }
  }
  EXPECT_EQ(make_fluid_mechanism("nope"), nullptr);
}

TEST(MechanismRegistryTest, GainAxesRoundTripThroughTheConfig) {
  for (const auto& info : mechanism_registry()) {
    MechanismConfig cfg;
    cfg.plant = slow_regime();
    const auto [d1, d2] = info.default_gains(cfg);
    EXPECT_GT(d1, 0.0) << info.name;
    EXPECT_GT(d2, 0.0) << info.name;
    info.set_gains(cfg, 2.0 * d1, 0.5 * d2);
    const auto [g1, g2] = info.default_gains(cfg);
    EXPECT_DOUBLE_EQ(g1, 2.0 * d1) << info.name;
    EXPECT_DOUBLE_EQ(g2, 0.5 * d2) << info.name;
  }
}

TEST(FluidFacetTest, BcnFacetIsFluidModelAtTheRequestedLevel) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  for (const char* name : {"bcn", "bcn-draft"}) {
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear,
                             ModelLevel::Clipped}) {
      const auto mech = make_fluid_mechanism(name, cfg, level);
      const auto* model = dynamic_cast<const FluidModel*>(mech.get());
      ASSERT_NE(model, nullptr) << name;
      EXPECT_STREQ(model->name(), name);
      EXPECT_EQ(model->level(), level) << name;

      // Same dynamics as a directly built model: every mode's field,
      // the mode selection and the guards agree at probe states.
      const auto facet_sys = model->hybrid_system();
      const auto direct_sys = FluidModel(cfg.plant, level).hybrid_system();
      ASSERT_EQ(facet_sys.modes.size(), direct_sys.modes.size());
      ASSERT_EQ(facet_sys.guards.size(), direct_sys.guards.size());
      for (const Vec2 z : {Vec2{-2e6, 1e9}, Vec2{1e6, -3e8},
                           Vec2{model->x_min(), -1e8},
                           Vec2{model->x_max(), 1e8}}) {
        EXPECT_EQ(facet_sys.mode_of(0.0, z), direct_sys.mode_of(0.0, z));
        for (std::size_t m = 0; m < facet_sys.modes.size(); ++m) {
          EXPECT_EQ(facet_sys.modes[m](0.0, z).x,
                    direct_sys.modes[m](0.0, z).x);
          EXPECT_EQ(facet_sys.modes[m](0.0, z).y,
                    direct_sys.modes[m](0.0, z).y);
        }
        for (std::size_t g = 0; g < facet_sys.guards.size(); ++g) {
          EXPECT_EQ(facet_sys.guards[g](0.0, z),
                    direct_sys.guards[g](0.0, z));
        }
      }
    }
  }
}

TEST(FluidFacetTest, BcnSigmaMatchesFluidModel) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("bcn", cfg);
  ASSERT_NE(mech, nullptr);
  const FluidModel model(cfg.plant);
  for (const Vec2 z : {Vec2{-2e6, 1e9}, Vec2{0.0, 0.0}, Vec2{1e6, -3e8}}) {
    EXPECT_DOUBLE_EQ(mech->sigma(z), model.sigma(z));
  }
}

TEST(FluidFacetTest, BcnRegionLawsMatchClosedForms) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("bcn", cfg);
  ASSERT_NE(mech, nullptr);
  const auto laws = mech->region_laws();
  ASSERT_EQ(laws.size(), 2u);
  const BcnParams& p = cfg.plant;
  bool saw_increase = false;
  bool saw_decrease = false;
  for (const auto& law : laws) {
    EXPECT_TRUE(law.linearizable);
    if (std::abs(law.n - p.increase_n()) < 1e-9 * p.increase_n()) {
      EXPECT_DOUBLE_EQ(law.m, p.increase_m());
      saw_increase = true;
    } else {
      EXPECT_DOUBLE_EQ(law.m, p.decrease_m());
      EXPECT_DOUBLE_EQ(law.n, p.decrease_n());
      saw_decrease = true;
    }
  }
  EXPECT_TRUE(saw_increase);
  EXPECT_TRUE(saw_decrease);
}

TEST(FluidFacetTest, QcnHasNoEquilibriumTheOthersDo) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  EXPECT_TRUE(make_fluid_mechanism("bcn", cfg)->has_equilibrium());
  EXPECT_TRUE(make_fluid_mechanism("bcn-draft", cfg)->has_equilibrium());
  EXPECT_TRUE(make_fluid_mechanism("rcp", cfg)->has_equilibrium());
  // QCN's constant active increase keeps the field from vanishing: the
  // closed orbit is a sawtooth, not a settled point.
  EXPECT_FALSE(make_fluid_mechanism("qcn", cfg)->has_equilibrium());
}

TEST(FluidFacetTest, QcnQuantizedLawIsPiecewiseConstantDrive) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto laws = make_fluid_mechanism("qcn", cfg)->region_laws();
  ASSERT_FALSE(laws.empty());
  // At least the recovery region must be constant-drive (first order).
  bool any_constant = false;
  for (const auto& law : laws) any_constant |= !law.linearizable;
  EXPECT_TRUE(any_constant);
}

TEST(FluidFacetTest, EveryFluidFacetStableOnSlowRegimeDefaults) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  for (const auto& info : mechanism_registry()) {
    if (!info.has_fluid) continue;
    const auto mech = make_fluid_mechanism(info.name, cfg);
    const NumericVerdict v = numeric_strong_stability(*mech, 0.01);
    EXPECT_TRUE(v.strongly_stable) << info.name;
    EXPECT_LT(v.max_x, mech->x_max()) << info.name;
    EXPECT_GT(v.min_x, mech->x_min()) << info.name;
  }
}

// At the Clipped level every walled facet gets its walls from one shared
// helper: a start on the empty wall still draining, or on the full wall
// still filling, must select that wall's mode, whose field pins the
// queue, while interior states keep the facet's own modes.
void expect_wall_capture(const char* name, int empty_wall_mode) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism(name, cfg, ModelLevel::Clipped);
  ASSERT_NE(mech, nullptr) << name;
  const auto sys = mech->hybrid_system();
  ASSERT_EQ(sys.modes.size(), static_cast<std::size_t>(empty_wall_mode) + 2)
      << name;
  const double cap = cfg.plant.capacity;
  const Vec2 on_empty{mech->x_min(), -0.1 * cap};
  const Vec2 on_full{mech->x_max(), 0.1 * cap};
  EXPECT_EQ(sys.mode_of(0.0, on_empty), empty_wall_mode) << name;
  EXPECT_EQ(sys.mode_of(0.0, on_full), empty_wall_mode + 1) << name;
  EXPECT_LT(sys.mode_of(0.0, {0.0, 0.0}), empty_wall_mode) << name;
  EXPECT_EQ(sys.modes[empty_wall_mode](0.0, on_empty).x, 0.0) << name;
  EXPECT_EQ(sys.modes[empty_wall_mode + 1](0.0, on_full).x, 0.0) << name;

  // Integrated from the full wall, the queue never rises past it.
  FluidRunOptions opts;
  opts.z0 = on_full;
  opts.duration = 1e-4;
  const FluidRun run = simulate_fluid(*mech, opts);
  ASSERT_TRUE(run.completed) << name;
  EXPECT_LE(run.max_x, mech->x_max()) << name;
}

TEST(FluidFacetTest, BcnClippedStartOnAWallSelectsTheWallMode) {
  expect_wall_capture("bcn", kModeEmptyWall);
}

TEST(FluidFacetTest, QcnClippedStartOnAWallSelectsTheWallMode) {
  expect_wall_capture("qcn", kModeEmptyWall);
}

TEST(FluidFacetTest, RcpClippedStartOnAWallSelectsTheWallMode) {
  expect_wall_capture("rcp", 1);  // RCP has a single interior mode
}

TEST(FluidFacetTest, GroupRateDerivSignsAtTheWalls) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const double cap = cfg.plant.capacity;
  for (const char* name : {"bcn", "bcn-draft", "qcn", "rcp"}) {
    const auto mech = make_fluid_mechanism(name, cfg);
    ASSERT_NE(mech, nullptr) << name;
    // Empty queue, group trickling at 10% of its share: it must ramp up.
    // (Exactly zero rate is excluded: RCP's relative update is
    // multiplicative, so the zero-rate derivative is legitimately zero.)
    EXPECT_GT(mech->group_rate_deriv(-cfg.plant.q0, -0.45 * cap, -0.45 * cap,
                                     cap / 2.0),
              0.0)
        << name;
    // ...and with the queue far above q0 at full drive it must back off.
    EXPECT_LT(mech->group_rate_deriv(0.8 * (cfg.plant.buffer - cfg.plant.q0),
                                     cap / 4.0, cap / 2.0, cap / 2.0),
              0.0)
        << name;
  }
}

TEST(FluidFacetTest, RcpSettlesNearTheOrigin) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism("rcp", cfg);
  FluidRunOptions opts;
  opts.duration = 0.02;
  const FluidRun run = simulate_fluid(*mech, opts);
  ASSERT_TRUE(run.completed);
  ASSERT_FALSE(run.trajectory.empty());
  const auto& tail = run.trajectory.back();
  EXPECT_LT(std::abs(tail.z.x), 0.5 * cfg.plant.q0);
  EXPECT_LT(std::abs(tail.z.y), 0.1 * cfg.plant.capacity);
}

// A facet whose vector field turns NaN once t passes kNanAfter: the
// non-finite guard must surface through simulate_fluid and
// numeric_strong_stability for every facet, not only BCN's.
class NanAfterStartFacet final : public FluidMechanism {
 public:
  static constexpr double kNanAfter = 1e-3;

  NanAfterStartFacet()
      : FluidMechanism(slow_regime(), ModelLevel::Nonlinear) {}

  const char* name() const override { return "nan-after-start"; }
  double sigma(Vec2 z) const override { return -z.x; }
  ode::HybridSystem hybrid_system() const override {
    ode::HybridSystem system;
    system.modes.push_back([](double t, Vec2 z) -> Vec2 {
      if (t > kNanAfter) return {z.y, std::nan("")};
      return {z.y, -2e3 * z.y - 1e7 * z.x};
    });
    system.mode_of = [](double /*t*/, Vec2 /*z*/) { return 0; };
    return system;
  }
  std::vector<RegionLaw> region_laws() const override {
    return {{"interior", 2e3, 1e7, true}};
  }
  double group_rate_deriv(double, double, double, double) const override {
    return 0.0;
  }
};

TEST(FluidFacetTest, NonFiniteFieldSurfacesThroughSimulateAndVerdict) {
  const NanAfterStartFacet facet;
  FluidRunOptions opts;
  opts.duration = 0.01;
  const FluidRun run = simulate_fluid(facet, opts);
  EXPECT_TRUE(run.nonfinite);
  EXPECT_FALSE(run.completed);
  EXPECT_GT(run.nonfinite_t, 0.0);
  EXPECT_LE(run.nonfinite_t, NanAfterStartFacet::kNanAfter);
  ASSERT_FALSE(run.trajectory.empty());
  EXPECT_LE(run.trajectory.back().t, run.nonfinite_t);

  const NumericVerdict verdict = numeric_strong_stability(facet, 0.01);
  EXPECT_TRUE(verdict.nonfinite);
  EXPECT_FALSE(verdict.strongly_stable);
}

}  // namespace
}  // namespace bcn::core
