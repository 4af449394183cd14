#include "core/fluid_model.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "test_params.h"

namespace bcn::core {
namespace {

// BCN's law inside the Clipped level's buffer walls.
using Walls = BufferWalls<BcnLaw>;

TEST(FluidModelTest, SigmaAndRegion) {
  const FluidModel m(BcnParams::standard_draft());
  const double k = m.plant().k();
  // At the analysis start (-q0, 0): sigma = q0 > 0 -> increase region.
  EXPECT_DOUBLE_EQ(m.sigma(m.analysis_initial_point()), m.plant().q0);
  EXPECT_EQ(m.region_of(m.analysis_initial_point()), Region::Increase);
  // A point with x + k y > 0 is in the decrease region.
  const Vec2 z{1e6, 1e9};
  EXPECT_LT(m.sigma(z), 0.0);
  EXPECT_EQ(m.region_of(z), Region::Decrease);
  // Points on the switching line have sigma = 0 (boundary -> Decrease by
  // the > 0 convention).
  const Vec2 on_line{1e6, -1e6 / k};
  EXPECT_NEAR(m.sigma(on_line), 0.0, 1e-3);
}

TEST(FluidModelTest, IncreaseRhsMatchesEq8) {
  const BcnParams p = BcnParams::standard_draft();
  const FluidModel m(p);
  const Vec2 z{-1e6, 2e8};
  const Vec2 d = m.law().rhs(kModeIncrease, 0.0, z);
  EXPECT_DOUBLE_EQ(d.x, z.y);
  EXPECT_DOUBLE_EQ(d.y, -p.a() * (z.x + p.k() * z.y));
}

TEST(FluidModelTest, DecreaseRhsNonlinearKeepsRateFactor) {
  const BcnParams p = BcnParams::standard_draft();
  const FluidModel nonlinear(p, ModelLevel::Nonlinear);
  const FluidModel linearized(p, ModelLevel::Linearized);
  const Vec2 z{1e6, 3e9};
  const double s = z.x + p.k() * z.y;
  EXPECT_DOUBLE_EQ(nonlinear.law().rhs(kModeDecrease, 0.0, z).y,
                   -p.b() * (z.y + p.capacity) * s);
  EXPECT_DOUBLE_EQ(linearized.law().rhs(kModeDecrease, 0.0, z).y,
                   -p.b() * p.capacity * s);
  // They agree exactly on y = 0 (the linearization point).
  const Vec2 z0{5e5, 0.0};
  EXPECT_NEAR(nonlinear.law().rhs(kModeDecrease, 0.0, z0).y,
              linearized.law().rhs(kModeDecrease, 0.0, z0).y, 1e-6);
}

TEST(FluidModelTest, CoordinateConversionsRoundTrip) {
  const BcnParams p = BcnParams::standard_draft();
  const FluidModel m(p);
  EXPECT_DOUBLE_EQ(m.queue_of(m.x_of_queue(3.3e6)), 3.3e6);
  EXPECT_DOUBLE_EQ(m.queue_of(0.0), p.q0);
  EXPECT_DOUBLE_EQ(m.aggregate_rate_of(0.0), p.capacity);
  EXPECT_DOUBLE_EQ(m.per_source_rate_of(0.0), p.capacity / p.num_sources);
  EXPECT_DOUBLE_EQ(m.x_min(), -p.q0);
  EXPECT_DOUBLE_EQ(m.x_max(), p.buffer - p.q0);
}

TEST(FluidModelTest, PhysicalInitialPoint) {
  BcnParams p = BcnParams::standard_draft();
  p.init_rate = 1e8;
  const FluidModel m(p);
  const Vec2 z = m.physical_initial_point();
  EXPECT_DOUBLE_EQ(z.x, -p.q0);
  EXPECT_DOUBLE_EQ(z.y, 50.0 * 1e8 - p.capacity);
}

TEST(FluidModelTest, UnclippedHybridHasTwoModesOneGuard) {
  const FluidModel m(BcnParams::standard_draft(), ModelLevel::Nonlinear);
  const BcnLaw& sys = m.law();
  EXPECT_EQ(BcnLaw::kModes, 2);
  EXPECT_EQ(sys.guard_count(), 1u);
  EXPECT_EQ(sys.mode_of(0.0, m.analysis_initial_point()), kModeIncrease);
  EXPECT_EQ(sys.mode_of(0.0, {1e6, 1e9}), kModeDecrease);
}

TEST(FluidModelTest, ClippedHybridWallModes) {
  const BcnParams p = BcnParams::standard_draft();
  const FluidModel m(p, ModelLevel::Clipped);
  const Walls sys = m.walls();
  EXPECT_EQ(Walls::kModes, 4);
  EXPECT_EQ(Walls::kEmptyWall, 2);
  EXPECT_EQ(Walls::kFullWall, 3);
  EXPECT_EQ(sys.guard_count(), 4u);
  // Empty wall: x = -q0, y <= 0.
  EXPECT_EQ(sys.mode_of(0.0, {-p.q0, -1e8}), Walls::kEmptyWall);
  EXPECT_EQ(sys.mode_of(0.0, {-p.q0, 0.0}), Walls::kEmptyWall);
  // Full wall: x = B - q0, y >= 0.
  EXPECT_EQ(sys.mode_of(0.0, {p.buffer - p.q0, 1e8}), Walls::kFullWall);
  // Interior still splits by sigma.
  EXPECT_EQ(sys.mode_of(0.0, {0.0, 1e8}), kModeDecrease);
  EXPECT_EQ(sys.mode_of(0.0, {-1e6, 0.0}), kModeIncrease);
}

TEST(FluidModelTest, EmptyWallDynamicsMatchWarmupLaw) {
  // On the empty wall the queue is pinned and dy/dt = a q0 (Section IV.C).
  const BcnParams p = BcnParams::standard_draft();
  const FluidModel m(p, ModelLevel::Clipped);
  const Walls sys = m.walls();
  const Vec2 wall{-p.q0, -1e8};
  const Vec2 d = sys.rhs(Walls::kEmptyWall, 0.0, wall);
  EXPECT_DOUBLE_EQ(d.x, 0.0);
  EXPECT_DOUBLE_EQ(d.y, p.a() * p.q0);
}

TEST(FluidModelTest, FullWallDynamicsDecreaseRate) {
  const BcnParams p = BcnParams::standard_draft();
  const FluidModel m(p, ModelLevel::Clipped);
  const Walls sys = m.walls();
  const Vec2 wall{p.buffer - p.q0, 5e8};
  const Vec2 d = sys.rhs(Walls::kFullWall, 0.0, wall);
  EXPECT_DOUBLE_EQ(d.x, 0.0);
  EXPECT_LT(d.y, 0.0);  // rate must fall while the buffer overflows
}

TEST(FluidModelTest, InvalidPlantThrowsInEveryBuild) {
  BcnParams below_q0 = BcnParams::standard_draft();
  below_q0.buffer = 0.5 * below_q0.q0;
  BcnParams nan_gain = BcnParams::standard_draft();
  nan_gain.gi = std::nan("");
  for (const BcnParams& p : {below_q0, nan_gain}) {
    const std::vector<std::string> violations = p.validate();
    ASSERT_FALSE(violations.empty());
    try {
      const FluidModel m(p);
      ADD_FAILURE() << "accepted an invalid plant";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), violations.front());
    }
    // The registry hands caller configs to the same constructor.
    MechanismConfig cfg;
    cfg.plant = p;
    EXPECT_THROW(make_fluid_mechanism("bcn", cfg), std::invalid_argument);
  }
}

}  // namespace
}  // namespace bcn::core
