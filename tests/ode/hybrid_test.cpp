#include "ode/hybrid.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/tracing.h"
#include "ode/hybrid_driver.h"
#include "ode/integrate.h"

namespace bcn::ode {
namespace {

// A switched oscillator: stiffness 1 for x > 0, stiffness 4 for x < 0.
// Solutions alternate half-periods pi (right) and pi/2 (left); amplitude in
// velocity is conserved, amplitude in x halves on the left half-plane.
struct SwitchedOscillator {
  Vec2 rhs(int mode, double, Vec2 z) const {
    return mode == 0 ? Vec2{z.y, -z.x} : Vec2{z.y, -4.0 * z.x};
  }
  int mode_of(double, Vec2 z) const { return z.x > 0.0 ? 0 : 1; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return z.x; }
};

// One mode with field `f`, and a guard that never crosses.
template <class F>
struct OneMode {
  F f;

  Vec2 rhs(int, double t, Vec2 z) const { return f(t, z); }
  int mode_of(double, Vec2) const { return 0; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2) const { return 1.0; }
};

// Mode 0: fall with constant velocity; mode 1 (wall at x <= 0): stay.
struct FallOntoWall {
  Vec2 rhs(int mode, double, Vec2) const {
    return mode == 0 ? Vec2{-1.0, 0.0} : Vec2{0.0, 0.0};
  }
  int mode_of(double, Vec2 z) const { return z.x > 1e-12 ? 0 : 1; }
  static constexpr std::size_t guard_count() { return 1; }
  double guard(std::size_t, double, Vec2 z) const { return z.x; }
};

TEST(HybridTest, SwitchesAtTheSurface) {
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.tol = {1e-10, 1e-10};
  // Start at x=1, v=0: half-period pi in mode 0, then crosses into mode 1.
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 2.5, opts);
  ASSERT_TRUE(res.completed);
  ASSERT_GE(res.switches.size(), 1u);
  const auto& sw = res.switches.front();
  EXPECT_NEAR(sw.t, 1.5707963267948966, 1e-7);  // quarter period: x=cos t
  EXPECT_EQ(sw.from_mode, 0);
  EXPECT_EQ(sw.to_mode, 1);
  EXPECT_NEAR(sw.z.x, 0.0, 1e-7);
  EXPECT_NEAR(sw.z.y, -1.0, 1e-7);
}

TEST(HybridTest, VelocityAmplitudePreservedAcrossManySwitches) {
  // Both modes conserve their own energy; at the switching surface x = 0
  // the energy is y^2/2 in both, so |y| at every crossing equals 1.
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.tol = {1e-11, 1e-11};
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 20.0, opts);
  ASSERT_TRUE(res.completed);
  ASSERT_GE(res.switches.size(), 6u);
  for (const auto& sw : res.switches) {
    EXPECT_NEAR(std::abs(sw.z.y), 1.0, 1e-6) << "at t=" << sw.t;
  }
}

TEST(HybridTest, MatchesSmoothIntegratorWhenNoSwitching) {
  const OneMode sys{[](double, Vec2 z) -> Vec2 { return {z.y, -z.x}; }};
  HybridOptions opts;
  opts.tol = {1e-10, 1e-10};
  const auto hybrid = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 5.0, opts);
  AdaptiveOptions aopts;
  aopts.tol = {1e-10, 1e-10};
  const auto smooth = integrate_adaptive(sys.f, 0.0, {1.0, 0.0}, 5.0, aopts);
  ASSERT_TRUE(hybrid.completed);
  ASSERT_TRUE(smooth.completed);
  EXPECT_TRUE(hybrid.switches.empty());
  EXPECT_NEAR(hybrid.trajectory.back().z.x, smooth.trajectory.back().z.x,
              1e-7);
}

TEST(HybridTest, StopWhenFires) {
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.stop_when = [](double t, Vec2) { return t > 1.0; };
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 100.0, opts);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_TRUE(res.completed);
  EXPECT_LT(res.trajectory.back().t, 2.0);
}

// Counts samples and settles after `limit` of them.
struct SettlesAfter {
  std::size_t limit = 0;
  std::size_t samples = 0;

  void sample(double, Vec2) { ++samples; }
  void mode_switch(const ModeSwitch&) {}
  bool settled() const { return samples >= limit; }
};

// A sink that has settled ends the orbit after the next plain step:
// completed, not stopped early, and a traced run's span still carries
// the steps it took.
TEST(HybridTest, SettledSinkEndsTheOrbit) {
  const SwitchedOscillator sys{};
  SettlesAfter sink{.limit = 20};
  obs::tracing_clear();
  obs::tracing_enable();
  const HybridStats stats = run_hybrid(sys, 0.0, {1.0, 0.0}, 100.0, {}, sink);
  obs::tracing_disable();
  obs::tracing_drain();
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.stopped_early);
  EXPECT_GE(sink.samples, 20u);
  EXPECT_LE(sink.samples, 21u);  // a crossing sample, then a plain step
  int spans = 0;
  for (const auto& s : obs::tracing_spans()) {
    if (std::string(s.name) != "ode.integrate_hybrid") continue;
    ++spans;
    ASSERT_EQ(s.n_args, 3u);
    EXPECT_EQ(std::string(s.args[1].key), "accepted");
    EXPECT_EQ(s.args[1].value, static_cast<double>(stats.steps_accepted));
  }
  EXPECT_EQ(spans, 1);
  obs::tracing_clear();
}

TEST(HybridTest, RecordIntervalResamplesUniformly) {
  const SwitchedOscillator sys{};
  HybridOptions opts;
  opts.record_interval = 0.1;
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 1.0, opts);
  ASSERT_TRUE(res.completed);
  ASSERT_GE(res.trajectory.size(), 10u);
  EXPECT_NEAR(res.trajectory[1].t - res.trajectory[0].t, 0.1, 1e-9);
  EXPECT_NEAR(res.trajectory[1].z.x, std::cos(0.1), 1e-6);
}

TEST(HybridTest, DegenerateSpanCompletes) {
  const SwitchedOscillator sys{};
  const auto res = integrate_hybrid(sys, 1.0, {1.0, 0.0}, 1.0, {});
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.trajectory.size(), 1u);
}

TEST(HybridTest, WallModeSaturation) {
  const auto res = integrate_hybrid(FallOntoWall{}, 0.0, {1.0, 0.0}, 5.0, {});
  ASSERT_TRUE(res.completed);
  EXPECT_NEAR(res.trajectory.back().z.x, 0.0, 1e-6);
  ASSERT_EQ(res.switches.size(), 1u);
  EXPECT_NEAR(res.switches[0].t, 1.0, 1e-6);
}

// Non-finite guard: a RHS that emits NaN once past a threshold must
// abort the integration with nonfinite set instead of letting the NaN
// pass DOPRI5's acceptance test (NaN comparisons are false, so
// `error > 1` never rejects a poisoned step).
TEST(HybridTest, NonfiniteStateAbortsWithDiagnostics) {
  const OneMode sys{[](double t, Vec2 z) -> Vec2 {
    if (t > 1.0) return {std::nan(""), std::nan("")};
    return {z.y, -z.x};
  }};
  const auto res = integrate_hybrid(sys, 0.0, {1.0, 0.0}, 10.0, {});
  EXPECT_TRUE(res.nonfinite);
  EXPECT_FALSE(res.completed);
  EXPECT_GE(res.nonfinite_t, 0.0);
  EXPECT_LE(res.nonfinite_t, 10.0);
  // Only finite samples may land in the trajectory.
  for (const auto& s : res.trajectory.samples()) {
    EXPECT_TRUE(std::isfinite(s.z.x) && std::isfinite(s.z.y))
        << "at t=" << s.t;
  }
}

// An oscillator whose field turns NaN past t = `at`.
struct BlowsUpAfter {
  double at;

  Vec2 rhs(int, double t, Vec2 z) const {
    if (t > at) return {std::nan(""), std::nan("")};
    return {z.y, -z.x};
  }
  int mode_of(double, Vec2) const { return 0; }
  static constexpr std::size_t guard_count() { return 0; }
  double guard(std::size_t, double, Vec2) const { return 0.0; }
};

void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

// A paired orbit must hand its sink what its own run does, and end with
// its own run's statistics, bit for bit.
void expect_same_orbit(const HybridStats& stats, const RecordingSink& sink,
                       const HybridResult& own) {
  EXPECT_EQ(stats.completed, own.completed);
  EXPECT_EQ(stats.stopped_early, own.stopped_early);
  EXPECT_EQ(stats.steps_accepted, own.steps_accepted);
  EXPECT_EQ(stats.steps_rejected, own.steps_rejected);
  EXPECT_EQ(stats.event_bisection_iterations, own.event_bisection_iterations);
  EXPECT_EQ(stats.nonfinite, own.nonfinite);
  expect_same_bits(stats.min_accepted_step, own.min_accepted_step);
  expect_same_bits(stats.nonfinite_t, own.nonfinite_t);
  ASSERT_EQ(sink.trajectory.size(), own.trajectory.size());
  for (std::size_t i = 0; i < own.trajectory.size(); ++i) {
    const auto& a = sink.trajectory.samples()[i];
    const auto& b = own.trajectory.samples()[i];
    expect_same_bits(a.t, b.t);
    expect_same_bits(a.z.x, b.z.x);
    expect_same_bits(a.z.y, b.z.y);
  }
  ASSERT_EQ(sink.switches.size(), own.switches.size());
  for (std::size_t i = 0; i < own.switches.size(); ++i) {
    expect_same_bits(sink.switches[i].t, own.switches[i].t);
    EXPECT_EQ(sink.switches[i].to_mode, own.switches[i].to_mode);
  }
}

// One lane of a pair turns non-finite and stops; the other runs on to its
// horizon, and each reads as its own run.
TEST(HybridPairTest, NonfiniteLaneStopsWhileTheOtherRunsOn) {
  const BlowsUpAfter bad{1.0};
  const BlowsUpAfter good{1e300};
  const HybridOptions opts;
  RecordingSink sinks[2];
  const auto stats = run_hybrid_pair<BlowsUpAfter, RecordingSink>(
      {&bad, &good}, {HybridLane<RecordingSink>{0.0, {1.0, 0.0}, 10.0, &opts,
                                                &sinks[0]},
                      {0.0, {1.0, 0.0}, 10.0, &opts, &sinks[1]}});
  EXPECT_TRUE(stats[0].nonfinite);
  EXPECT_FALSE(stats[0].completed);
  EXPECT_FALSE(stats[1].nonfinite);
  EXPECT_TRUE(stats[1].completed);
  EXPECT_GT(stats[1].steps_accepted, 2 * stats[0].steps_accepted);
  expect_same_orbit(stats[0], sinks[0],
                    integrate_hybrid(bad, 0.0, {1.0, 0.0}, 10.0, opts));
  expect_same_orbit(stats[1], sinks[1],
                    integrate_hybrid(good, 0.0, {1.0, 0.0}, 10.0, opts));
}

// Two switched orbits with their own starts, horizons and options (one
// records on a grid, one stops early) end at different steps, and each
// reads as its own run, whichever lane it takes.
TEST(HybridPairTest, LanesMatchTheirOwnRuns) {
  const SwitchedOscillator sys{};
  HybridOptions gridded;
  gridded.record_interval = 0.05;
  HybridOptions stopping;
  stopping.tol = {1e-11, 1e-10};
  stopping.stop_when = [](double t, Vec2) { return t > 6.0; };
  const HybridLane<RecordingSink> lanes[2] = {
      {0.0, {1.0, 0.0}, 12.0, &gridded, nullptr},
      {0.5, {-0.3, 2.0}, 7.0, &stopping, nullptr}};
  for (const int first : {0, 1}) {
    RecordingSink sinks[2];
    HybridLane<RecordingSink> a = lanes[first];
    HybridLane<RecordingSink> b = lanes[1 - first];
    a.sink = &sinks[0];
    b.sink = &sinks[1];
    const auto stats = run_hybrid_pair<SwitchedOscillator, RecordingSink>(
        {&sys, &sys}, {a, b});
    for (int i = 0; i < 2; ++i) {
      const HybridLane<RecordingSink>& lane = i == 0 ? a : b;
      const auto own =
          integrate_hybrid(sys, lane.t0, lane.z0, lane.t1, *lane.options);
      EXPECT_GT(own.switches.size(), 2u);
      expect_same_orbit(stats[i], sinks[i], own);
    }
  }
}

TEST(HybridTest, NonfiniteInitialConditionAbortsImmediately) {
  const SwitchedOscillator sys{};
  const auto res =
      integrate_hybrid(sys, 0.0, {std::nan(""), 0.0}, 1.0, {});
  EXPECT_TRUE(res.nonfinite);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.steps_accepted, 0u);
}

}  // namespace
}  // namespace bcn::ode
