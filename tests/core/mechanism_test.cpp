// Fluid facet of the pluggable-mechanism layer: registry contents, gain
// plumbing, BCN's facet being FluidModel itself, the shared buffer walls,
// and the one integration routine and verdict every facet runs through.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fluid_laws.h"
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

// Two switched systems of one type agree at the probe states: each
// mode's field, the mode selection and every guard.
template <class System>
void expect_same_system(const System& a, const System& b,
                        const std::vector<Vec2>& probes, const char* name) {
  ASSERT_EQ(a.guard_count(), b.guard_count()) << name;
  for (const Vec2 z : probes) {
    EXPECT_EQ(a.mode_of(0.0, z), b.mode_of(0.0, z)) << name;
    for (int m = 0; m < System::kModes; ++m) {
      EXPECT_EQ(a.rhs(m, 0.0, z).x, b.rhs(m, 0.0, z).x) << name;
      EXPECT_EQ(a.rhs(m, 0.0, z).y, b.rhs(m, 0.0, z).y) << name;
    }
    for (std::size_t g = 0; g < a.guard_count(); ++g) {
      EXPECT_EQ(a.guard(g, 0.0, z), b.guard(g, 0.0, z)) << name;
    }
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
      // the mode selection and the guards agree at probe states, for the
      // interior law and for the law inside its walls.
      const FluidModel direct(cfg.plant, level);
      const std::vector<Vec2> probes = {Vec2{-2e6, 1e9}, Vec2{1e6, -3e8},
                                        Vec2{model->x_min(), -1e8},
                                        Vec2{model->x_max(), 1e8}};
      expect_same_system(model->law(), direct.law(), probes, name);
      expect_same_system(model->walls(), direct.walls(), probes, name);
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
// template: a start on the empty wall still draining, or on the full wall
// still filling, must select that wall's mode, whose field pins the
// queue, while interior states keep the facet's own modes.
template <class Law>
void expect_wall_capture(const char* name, int empty_wall_mode) {
  MechanismConfig cfg;
  cfg.plant = slow_regime();
  const auto mech = make_fluid_mechanism(name, cfg, ModelLevel::Clipped);
  ASSERT_NE(mech, nullptr) << name;
  const auto* facet = dynamic_cast<const LawFacet<Law>*>(mech.get());
  ASSERT_NE(facet, nullptr) << name;
  const BufferWalls<Law> sys = facet->walls();
  ASSERT_EQ(BufferWalls<Law>::kModes, empty_wall_mode + 2) << name;
  const double cap = cfg.plant.capacity;
  const Vec2 on_empty{mech->x_min(), -0.1 * cap};
  const Vec2 on_full{mech->x_max(), 0.1 * cap};
  EXPECT_EQ(sys.mode_of(0.0, on_empty), empty_wall_mode) << name;
  EXPECT_EQ(sys.mode_of(0.0, on_full), empty_wall_mode + 1) << name;
  EXPECT_LT(sys.mode_of(0.0, {0.0, 0.0}), empty_wall_mode) << name;
  EXPECT_EQ(sys.rhs(empty_wall_mode, 0.0, on_empty).x, 0.0) << name;
  EXPECT_EQ(sys.rhs(empty_wall_mode + 1, 0.0, on_full).x, 0.0) << name;

  // Integrated from the full wall, the queue never rises past it.
  FluidRunOptions opts;
  opts.z0 = on_full;
  opts.duration = 1e-4;
  const FluidRun run = simulate_fluid(*mech, opts);
  ASSERT_TRUE(run.completed) << name;
  EXPECT_LE(run.max_x, mech->x_max()) << name;
}

TEST(FluidFacetTest, BcnClippedStartOnAWallSelectsTheWallMode) {
  expect_wall_capture<BcnLaw>("bcn", 2);
}

TEST(FluidFacetTest, QcnClippedStartOnAWallSelectsTheWallMode) {
  expect_wall_capture<QcnLaw>("qcn", 2);
}

TEST(FluidFacetTest, RcpClippedStartOnAWallSelectsTheWallMode) {
  expect_wall_capture<RcpLaw>("rcp", 1);  // RCP has a single interior mode
}

// A mechanism's law is written twice: the typed law the scalar driver
// integrates, and the affine lane law the batch lanes step,
//   dy = drive[r] + (g0[r] + g1[r] y) sigma,  sigma = -(sx x + sy y).
// At seeded gains and states, at both interior levels, the two must give
// the same field to within 4 ulp of the summed terms (the worst seen is
// under 2), and the same region wherever sigma is clear of zero.
template <class Law>
void expect_lane_law_matches_typed_law(const char* name, std::uint64_t seed) {
  Rng rng(seed);
  const MechanismInfo& info = *find_mechanism(name);
  MechanismConfig base;
  base.plant = slow_regime();
  const auto [d1, d2] = info.default_gains(base);
  const auto log_uniform = [&](double d) {
    return d * std::pow(64.0, rng.uniform()) / 8.0;
  };
  for (int draw = 0; draw < 8; ++draw) {
    MechanismConfig cfg = base;
    info.set_gains(cfg, log_uniform(d1), log_uniform(d2));
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
      const auto mech = make_fluid_mechanism(name, cfg, level);
      const auto* facet = dynamic_cast<const LawFacet<Law>*>(mech.get());
      ASSERT_NE(facet, nullptr) << name;
      ode::LaneLaw lane;
      ASSERT_TRUE(mech->lane_law(&lane)) << name;
      EXPECT_EQ(lane.switched, Law::kModes == 2) << name;
      const double cap = cfg.plant.capacity;
      for (int i = 0; i < 64; ++i) {
        const Vec2 z{rng.uniform(mech->x_min(), mech->x_max()),
                     rng.uniform(-cap, cap)};
        const double sigma = -(lane.sx * z.x + lane.sy * z.y);
        const int r = lane.switched && !(sigma > 0.0) ? 1 : 0;
        const double gain = lane.g0[r] + lane.g1[r] * z.y;
        const double lane_dy = lane.drive[r] + gain * sigma;

        const int mode = facet->law().mode_of(0.0, z);
        const Vec2 typed = facet->law().rhs(mode, 0.0, z);
        EXPECT_EQ(typed.x, z.y) << name;
        // The summed terms: every product of the expanded field, before
        // any of them cancel.
        const double scale = std::abs(lane.sx * z.x) + std::abs(lane.sy * z.y);
        const double terms =
            std::abs(lane.drive[r]) +
            (std::abs(lane.g0[r]) + std::abs(lane.g1[r] * z.y)) * scale;
        const double ulps = std::abs(typed.y - lane_dy) /
                            (std::numeric_limits<double>::epsilon() * terms);
        EXPECT_LE(ulps, 4.0) << name << " level "
                             << static_cast<int>(level) << " at (" << z.x
                             << ", " << z.y << ")";
        if (lane.switched && std::abs(sigma) > 1e-9 * scale) {
          EXPECT_EQ(mode, r) << name;
        }
      }
    }
  }
}

TEST(FluidFacetTest, BcnLaneLawMatchesTypedLaw) {
  expect_lane_law_matches_typed_law<BcnLaw>("bcn", 101);
}

TEST(FluidFacetTest, QcnLaneLawMatchesTypedLaw) {
  expect_lane_law_matches_typed_law<QcnLaw>("qcn", 102);
}

TEST(FluidFacetTest, RcpLaneLawMatchesTypedLaw) {
  expect_lane_law_matches_typed_law<RcpLaw>("rcp", 103);
}

// group_rate_deriv, the competition model's per-group dy/dt, writes each
// law a third time.  One group carrying the whole aggregate
// (y_group = y_total = y, share = C) must give the Nonlinear typed law's
// dy/dt at seeded gains and states on both sides of sigma = 0, to within
// 4 ulp of the summed terms of the Nonlinear lane law's expansion.
template <class Law>
void expect_group_rate_matches_typed_law(const char* name,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const MechanismInfo& info = *find_mechanism(name);
  MechanismConfig base;
  base.plant = slow_regime();
  const auto [d1, d2] = info.default_gains(base);
  const auto log_uniform = [&](double d) {
    return d * std::pow(64.0, rng.uniform()) / 8.0;
  };
  for (int draw = 0; draw < 8; ++draw) {
    MechanismConfig cfg = base;
    info.set_gains(cfg, log_uniform(d1), log_uniform(d2));
    const auto mech = make_fluid_mechanism(name, cfg, ModelLevel::Nonlinear);
    const auto* facet = dynamic_cast<const LawFacet<Law>*>(mech.get());
    ASSERT_NE(facet, nullptr) << name;
    ode::LaneLaw lane;
    ASSERT_TRUE(mech->lane_law(&lane)) << name;
    const double cap = cfg.plant.capacity;
    int sides[2] = {0, 0};
    for (int i = 0; i < 64; ++i) {
      const Vec2 z{rng.uniform(mech->x_min(), mech->x_max()),
                   rng.uniform(-cap, cap)};
      const double sigma = -(lane.sx * z.x + lane.sy * z.y);
      ++sides[sigma > 0.0 ? 0 : 1];
      const double group = mech->group_rate_deriv(z.x, z.y, z.y, cap);
      const int mode = facet->law().mode_of(0.0, z);
      const double typed = facet->law().rhs(mode, 0.0, z).y;
      const int r = lane.switched && !(sigma > 0.0) ? 1 : 0;
      const double scale = std::abs(lane.sx * z.x) + std::abs(lane.sy * z.y);
      const double terms =
          std::abs(lane.drive[r]) +
          (std::abs(lane.g0[r]) + std::abs(lane.g1[r] * z.y)) * scale;
      const double ulps = std::abs(group - typed) /
                          (std::numeric_limits<double>::epsilon() * terms);
      EXPECT_LE(ulps, 4.0) << name << " at (" << z.x << ", " << z.y << ")";
    }
    EXPECT_GT(sides[0], 0) << name;
    EXPECT_GT(sides[1], 0) << name;
  }
}

TEST(FluidFacetTest, BcnGroupRateMatchesTypedLaw) {
  expect_group_rate_matches_typed_law<BcnLaw>("bcn", 201);
}

TEST(FluidFacetTest, QcnGroupRateMatchesTypedLaw) {
  expect_group_rate_matches_typed_law<QcnLaw>("qcn", 202);
}

TEST(FluidFacetTest, RcpGroupRateMatchesTypedLaw) {
  expect_group_rate_matches_typed_law<RcpLaw>("rcp", 203);
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

// A law whose vector field turns NaN once t passes kNanAfter: the
// non-finite guard must surface through simulate_fluid and
// numeric_strong_stability for every facet, not only BCN's.
struct NanAfterStartLaw {
  static constexpr double kNanAfter = 1e-3;
  static constexpr int kModes = 1;
  static constexpr bool kExtremaSettle = false;

  double sigma(Vec2 z) const { return -z.x; }
  Vec2 rhs(int /*mode*/, double t, Vec2 z) const {
    if (t > kNanAfter) return {z.y, std::nan("")};
    return {z.y, -2e3 * z.y - 1e7 * z.x};
  }
  int mode_of(double /*t*/, Vec2 /*z*/) const { return 0; }
  static constexpr std::size_t guard_count() { return 0; }
  double guard(std::size_t, double, Vec2) const { return 0.0; }
  Vec2 empty_wall(double t, Vec2 z) const { return {0.0, rhs(0, t, z).y}; }
  Vec2 full_wall(double t, Vec2 z) const { return {0.0, rhs(0, t, z).y}; }
};

class NanAfterStartFacet final : public LawFacet<NanAfterStartLaw> {
 public:
  static constexpr double kNanAfter = NanAfterStartLaw::kNanAfter;

  NanAfterStartFacet()
      : LawFacet(slow_regime(), ModelLevel::Nonlinear, NanAfterStartLaw{}) {}

  const char* name() const override { return "nan-after-start"; }
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
