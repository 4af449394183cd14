#include "core/stability.h"

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "analysis/sweep.h"
#include "common/rng.h"
#include "digest.h"
#include "service/protocol.h"
#include "test_params.h"

namespace bcn::core {
namespace {

using namespace testing;

TEST(StabilityTest, StandardDraftReport) {
  const auto report = analyze_stability(case1_params());
  EXPECT_EQ(report.classification.paper_case, PaperCase::Case1);
  EXPECT_EQ(report.proposition, 2);
  // Overshoot ~11.3 Mbit above q0 >> B - q0 = 2.5 Mbit: not strongly
  // stable, even though the linear baseline declares it stable.
  EXPECT_FALSE(report.proposition_satisfied);
  EXPECT_FALSE(report.theorem1_satisfied);
  EXPECT_TRUE(report.baseline.declared_stable);
  EXPECT_NEAR(report.theorem1_required_buffer, 13.81e6, 0.02e6);
  EXPECT_NEAR(report.predicted_max_x, 11.3e6, 0.05e6);
  EXPECT_GT(report.predicted_min_x, -2.5e6);
  EXPECT_FALSE(report.summary().empty());
}

TEST(StabilityTest, EnlargedBufferBecomesStable) {
  BcnParams p = case1_params();
  p.buffer = 14e6;  // above the 13.81 Mbit requirement
  p.qsc = 13.5e6;
  const auto report = analyze_stability(p);
  EXPECT_TRUE(report.theorem1_satisfied);
  EXPECT_TRUE(report.proposition_satisfied);
  const auto verdict = numeric_strong_stability(p);
  EXPECT_TRUE(verdict.strongly_stable);
}

TEST(StabilityTest, NumericConfirmsDraftInstability) {
  const auto verdict = numeric_strong_stability(case1_params());
  EXPECT_FALSE(verdict.strongly_stable);
  // Overflow, not underflow, is the failure mode here.
  EXPECT_GT(verdict.max_x, case1_params().buffer - case1_params().q0);
  EXPECT_GT(verdict.min_x, -case1_params().q0);
}

TEST(StabilityTest, Case3AlwaysStable) {
  const auto report = analyze_stability(case3_params());
  EXPECT_EQ(report.proposition, 4);
  EXPECT_TRUE(report.proposition_satisfied);
  const auto verdict = numeric_strong_stability(case3_params());
  EXPECT_TRUE(verdict.strongly_stable);
  // Case 3: no overshoot above the reference.
  EXPECT_LT(verdict.max_x, 0.05 * case3_params().q0);
}

TEST(StabilityTest, Case4AlwaysStable) {
  const auto report = analyze_stability(case4_params());
  EXPECT_EQ(report.proposition, 4);
  EXPECT_TRUE(report.proposition_satisfied);
  EXPECT_TRUE(numeric_strong_stability(case4_params()).strongly_stable);
}

TEST(StabilityTest, Case2UsesProposition3) {
  const auto report = analyze_stability(case2_params());
  EXPECT_EQ(report.proposition, 3);
  // With the dyadic toy buffer (B - q0 = 48) versus the predicted
  // overshoot, the verdict must match the numeric one.
  const auto verdict = numeric_strong_stability(
      case2_params(), {.level = ModelLevel::Linearized});
  EXPECT_EQ(report.proposition_satisfied, verdict.strongly_stable);
}

TEST(StabilityTest, Theorem1SoundnessOnLinearizedModel) {
  // Property: Theorem 1 is a sufficient condition, so whenever it holds
  // the linearized numeric verdict must be strongly stable.
  Rng rng(23);
  int holds = 0;
  for (int trial = 0; trial < 30; ++trial) {
    BcnParams p = case1_params();
    p.gi = rng.uniform(0.2, 10.0);
    p.gd = rng.uniform(1.0 / 512.0, 1.0 / 8.0);
    p.buffer = rng.uniform(4e6, 40e6);
    p.qsc = p.buffer * 0.9;
    if (!p.is_valid()) continue;
    if (!p.satisfies_theorem1()) continue;
    const auto verdict =
        numeric_strong_stability(p, {.level = ModelLevel::Linearized});
    EXPECT_TRUE(verdict.strongly_stable) << p.describe();
    ++holds;
  }
  EXPECT_GE(holds, 5);
}

TEST(StabilityTest, BaselineBlindToBuffer) {
  // The Lu et al. baseline verdict cannot change with B -- the paper's
  // key criticism.
  BcnParams small = case1_params();
  BcnParams large = case1_params();
  large.buffer = 100e6;
  large.qsc = 90e6;
  const auto rs = analyze_stability(small);
  const auto rl = analyze_stability(large);
  EXPECT_EQ(rs.baseline.declared_stable, rl.baseline.declared_stable);
  // While strong stability does change.
  EXPECT_FALSE(rs.proposition_satisfied);
  EXPECT_TRUE(rl.proposition_satisfied);
}

// The closed-form half of every stability-map cell must not touch the
// heap.
TEST(StabilityTest, AnalyzeStabilityAllocatesNothing) {
  const BcnParams p = case1_params();
  ASSERT_EQ(classify_case(p).paper_case, PaperCase::Case1);
  const bcn::testing::AllocationCounter counter;
  const StabilityReport report = analyze_stability(p);
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_GT(report.predicted_max_x, 0.0);
}

// The raw bits of the scalar verdict on E22's 33x33 (Gi, Gd) grid
// (bench/map_throughput.cpp) at both interior levels.  The rendered
// reports print %.6g and the service is compared with the CLI, which runs
// the same code, so neither would notice a re-associated product that
// moves only low bits; this digest does.
TEST(StabilityTest, E22GridVerdictsMatchPinnedDigest) {
  BcnParams base = BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  bcn::testing::Digest digest;
  int stable[2] = {0, 0};
  for (const double gi : analysis::logspace(0.125, 32.0, 33)) {
    for (const double gd : analysis::logspace(1.0 / 1024.0, 0.5, 33)) {
      BcnParams p = base;
      p.gi = gi;
      p.gd = gd;
      int index = 0;
      for (const auto level :
           {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
        const NumericVerdict v = numeric_strong_stability(p, {.level = level});
        digest.add(v.max_x)
            .add(v.min_x)
            .add(v.strongly_stable)
            .add(v.converged)
            .add(v.nonfinite);
        stable[index++] += v.strongly_stable ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(stable[0], 762);
  EXPECT_EQ(stable[1], 999);
  EXPECT_EQ(digest.value(), 0x726ac7dca2947d98ull);
}

// At Clipped the analysis start (-q0, 0) sits on the empty wall, and
// leaving it is a mode switch.  That departure is not the switching event
// of Definition 1, so on E22's plant, whose orbits stay off the walls
// once they leave, the Clipped verdict must read like the Nonlinear one,
// cell for cell.
TEST(StabilityTest, ClippedVerdictsMatchNonlinearOnE22Grid) {
  BcnParams base = BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  int stable = 0;
  for (const double gi : analysis::logspace(0.125, 32.0, 9)) {
    for (const double gd : analysis::logspace(1.0 / 1024.0, 0.5, 9)) {
      BcnParams p = base;
      p.gi = gi;
      p.gd = gd;
      const NumericVerdict non =
          numeric_strong_stability(p, {.level = ModelLevel::Nonlinear});
      const NumericVerdict clip =
          numeric_strong_stability(p, {.level = ModelLevel::Clipped});
      EXPECT_EQ(clip.strongly_stable, non.strongly_stable) << p.describe();
      stable += clip.strongly_stable ? 1 : 0;
    }
  }
  EXPECT_GT(stable, 0);
  EXPECT_LT(stable, 81);
}

// Leaving the empty wall is not an underflow: qcn at its default gains,
// and bcn at gi = 0.5 with a 30 Mbit buffer, are stable at Clipped as at
// Nonlinear.
TEST(StabilityTest, LeavingTheEmptyWallIsNotAnUnderflow) {
  BcnParams bcn = BcnParams::standard_draft();
  bcn.gi = 0.5;
  bcn.buffer = 30e6;
  bcn.qsc = 28e6;
  for (const auto level : {ModelLevel::Nonlinear, ModelLevel::Clipped}) {
    const int l = static_cast<int>(level);
    EXPECT_TRUE(
        numeric_strong_stability(*make_fluid_mechanism("qcn", {}, level))
            .strongly_stable)
        << l;
    EXPECT_TRUE(numeric_strong_stability(bcn, {.level = level}).strongly_stable)
        << l;
  }
}

// The full wall captures an orbit anywhere within wall_tol() of it, and
// holds it there, often a hair below x_max.  That is still an overflow:
// qcn and rcp driven into the full wall of a 3 Mbit buffer read unstable
// at Clipped, as at Nonlinear, where they overshoot it.
TEST(StabilityTest, ReachingTheFullWallIsAnOverflow) {
  MechanismConfig cfg;
  cfg.qcn.active_increase = 3.7e7;
  cfg.rcp.alpha = 0.13;
  cfg.rcp.beta = 0.03;
  cfg.plant.buffer = 3e6;
  cfg.plant.qsc = 2.8e6;
  for (const char* name : {"qcn", "rcp"}) {
    const auto non = make_fluid_mechanism(name, cfg, ModelLevel::Nonlinear);
    const auto clip = make_fluid_mechanism(name, cfg, ModelLevel::Clipped);
    const NumericVerdict vn = numeric_strong_stability(*non);
    const NumericVerdict vc = numeric_strong_stability(*clip);
    EXPECT_GT(vn.max_x, non->x_max()) << name;
    EXPECT_FALSE(vn.strongly_stable) << name;
    EXPECT_GE(vc.max_x, clip->x_max() - clip->wall_tol()) << name;
    EXPECT_LE(vc.max_x, clip->x_max() + clip->wall_tol()) << name;
    EXPECT_FALSE(vc.strongly_stable) << name;
  }
}

// The raw bits of the generic verdict over each mechanism's registered
// gain axes (9x9, log-spaced 1/8x..8x around the defaults, as the
// generic stability map sweeps them): qcn and rcp at every level, and bcn
// at Clipped, which E22GridVerdictsMatchPinnedDigest leaves out.  The
// draft plant with a 3 Mbit buffer gives the interior levels verdicts of
// both kinds.
TEST(StabilityTest, MechanismGridVerdictsMatchPinnedDigest) {
  MechanismConfig base;
  base.plant = BcnParams::standard_draft();
  base.plant.buffer = 3e6;
  base.plant.qsc = 2.8e6;
  const auto levels = {ModelLevel::Linearized, ModelLevel::Nonlinear,
                       ModelLevel::Clipped};
  const std::vector<std::pair<const char*, std::vector<ModelLevel>>> runs = {
      {"qcn", levels}, {"rcp", levels}, {"bcn", {ModelLevel::Clipped}}};
  bcn::testing::Digest digest;
  std::vector<int> stable;
  for (const auto& [name, mech_levels] : runs) {
    const MechanismInfo& info = *find_mechanism(name);
    const auto [d1, d2] = info.default_gains(base);
    const auto g1 = analysis::logspace(d1 / 8.0, d1 * 8.0, 9);
    const auto g2 = analysis::logspace(d2 / 8.0, d2 * 8.0, 9);
    for (const ModelLevel level : mech_levels) {
      int count = 0;
      for (const double a : g1) {
        for (const double b : g2) {
          MechanismConfig cfg = base;
          info.set_gains(cfg, a, b);
          const NumericVerdict v = numeric_strong_stability(
              *make_fluid_mechanism(name, cfg, level));
          digest.add(v.max_x)
              .add(v.min_x)
              .add(v.strongly_stable)
              .add(v.converged)
              .add(v.nonfinite);
          count += v.strongly_stable ? 1 : 0;
        }
      }
      stable.push_back(count);
    }
  }
  EXPECT_EQ(stable, (std::vector<int>{45, 49, 49, 38, 42, 42, 0}));
  EXPECT_EQ(digest.value(), 0xbdbec6fdfcd34bfdull);
}

// The run behind a verdict of the facet: summarize_fluid at the
// verdict's options (`duration` 0 selects verdict_horizon).
FluidRunOptions verdict_options(const FluidMechanism& facet,
                                double duration = 0.0) {
  FluidRunOptions opts;
  opts.duration = duration > 0.0 ? duration : verdict_horizon(facet);
  opts.convergence_tol = 1e-8;
  return opts;
}

std::size_t steps_of(const FluidRun& run) {
  return run.steps_accepted + run.steps_rejected;
}

// A verdict folds its extrema as the driver steps and keeps no orbit, so
// a ten times longer horizon (more steps, more switches) must not cost a
// single extra allocation.  The dyadic Case 4 plant's node orbits do not
// turn within 10 ms, so their folds do not settle, and at 1 ms and 10 ms
// neither reaches the convergence stop: the longer run takes more steps.
TEST(StabilityTest, VerdictAllocationsDoNotGrowWithHorizon) {
  const BcnParams p = case4_params();
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
    const FluidModel facet(p, level);
    std::uint64_t counts[2] = {0, 0};
    std::size_t steps[2] = {0, 0};
    const double durations[2] = {0.001, 0.01};
    for (int i = 0; i < 2; ++i) {
      const bcn::testing::AllocationCounter counter;
      const NumericVerdict v = numeric_strong_stability(
          p, {.level = level, .duration = durations[i]});
      counts[i] = counter.count();
      EXPECT_FALSE(v.converged);
      steps[i] = steps_of(
          summarize_fluid(facet, verdict_options(facet, durations[i])));
    }
    EXPECT_EQ(counts[0], counts[1]) << static_cast<int>(level);
    EXPECT_LT(steps[0], steps[1]) << static_cast<int>(level);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// A paired verdict must be its own call's, field for field, bit for bit.
void expect_same_verdict(const NumericVerdict& paired,
                         const NumericVerdict& own, const std::string& where) {
  EXPECT_TRUE(same_bits(paired.max_x, own.max_x)) << where;
  EXPECT_TRUE(same_bits(paired.min_x, own.min_x)) << where;
  EXPECT_EQ(paired.strongly_stable, own.strongly_stable) << where;
  EXPECT_EQ(paired.converged, own.converged) << where;
  EXPECT_EQ(paired.nonfinite, own.nonfinite) << where;
}

// So must every field of a paired run, step counts included.
void expect_same_run(const FluidRun& paired, const FluidRun& own,
                     const std::string& where) {
  for (const auto& [a, b] :
       {std::pair{paired.max_x, own.max_x}, {paired.min_x, own.min_x},
        {paired.max_y, own.max_y}, {paired.min_y, own.min_y},
        {paired.post_switch_max_x, own.post_switch_max_x},
        {paired.post_switch_min_x, own.post_switch_min_x},
        {paired.min_step, own.min_step},
        {paired.nonfinite_t, own.nonfinite_t}}) {
    EXPECT_TRUE(same_bits(a, b)) << where;
  }
  EXPECT_EQ(paired.completed, own.completed) << where;
  EXPECT_EQ(paired.converged, own.converged) << where;
  EXPECT_EQ(paired.nonfinite, own.nonfinite) << where;
  EXPECT_EQ(paired.steps_accepted, own.steps_accepted) << where;
  EXPECT_EQ(paired.steps_rejected, own.steps_rejected) << where;
  EXPECT_EQ(paired.event_bisections, own.event_bisections) << where;
}

// The report's paired verdicts on E22's 33x33 grid, the plants of
// E22GridVerdictsMatchPinnedDigest: the Linearized and Nonlinear orbits
// of each plant stepped together must read as their own calls.
TEST(StabilityTest, PairedVerdictsMatchOwnCallsOnE22Grid) {
  BcnParams base = BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  for (const double gi : analysis::logspace(0.125, 32.0, 33)) {
    for (const double gd : analysis::logspace(1.0 / 1024.0, 0.5, 33)) {
      BcnParams p = base;
      p.gi = gi;
      p.gd = gd;
      const FluidModel lin(p, ModelLevel::Linearized);
      const FluidModel non(p, ModelLevel::Nonlinear);
      const auto paired = numeric_strong_stability_pair(lin, non);
      expect_same_verdict(paired[0], numeric_strong_stability(lin),
                          "lin " + p.describe());
      expect_same_verdict(paired[1], numeric_strong_stability(non),
                          "non " + p.describe());
    }
  }
}

// qcn and rcp over the gain grids of MechanismGridVerdictsMatchPinnedDigest,
// where the two orbits of a pair often end at different steps: one
// converges early, or takes more steps, and the other runs on alone.
TEST(StabilityTest, PairedVerdictsMatchOwnCallsOnMechanismGrids) {
  MechanismConfig base;
  base.plant = BcnParams::standard_draft();
  base.plant.buffer = 3e6;
  base.plant.qsc = 2.8e6;
  int uneven = 0;
  int converged = 0;
  for (const char* name : {"qcn", "rcp"}) {
    const MechanismInfo& info = *find_mechanism(name);
    const auto [d1, d2] = info.default_gains(base);
    for (const double a : analysis::logspace(d1 / 8.0, d1 * 8.0, 9)) {
      for (const double b : analysis::logspace(d2 / 8.0, d2 * 8.0, 9)) {
        MechanismConfig cfg = base;
        info.set_gains(cfg, a, b);
        const auto lin =
            make_fluid_mechanism(name, cfg, ModelLevel::Linearized);
        const auto non =
            make_fluid_mechanism(name, cfg, ModelLevel::Nonlinear);
        const std::string where = std::string(name) + " " +
                                  std::to_string(a) + " " + std::to_string(b);
        const auto paired = numeric_strong_stability_pair(*lin, *non);
        expect_same_verdict(paired[0], numeric_strong_stability(*lin),
                            "lin " + where);
        expect_same_verdict(paired[1], numeric_strong_stability(*non),
                            "non " + where);

        FluidRunOptions opts;
        opts.duration = verdict_horizon(*lin);
        opts.convergence_tol = 1e-8;
        const auto runs = summarize_fluid_pair(*lin, *non, {opts, opts});
        const FluidRun own[2] = {summarize_fluid(*lin, opts),
                                 summarize_fluid(*non, opts)};
        expect_same_run(runs[0], own[0], "lin " + where);
        expect_same_run(runs[1], own[1], "non " + where);
        uneven += own[0].steps_accepted + own[0].steps_rejected !=
                  own[1].steps_accepted + own[1].steps_rejected;
        converged += own[0].converged + own[1].converged;
      }
    }
  }
  EXPECT_GT(uneven, 100);
  EXPECT_GT(converged, 50);
}

// Pairing is for two facets of one law at interior levels.
TEST(StabilityTest, PairingNeedsOneLawAtInteriorLevels) {
  const BcnParams p = case1_params();
  const FluidModel lin(p, ModelLevel::Linearized);
  const FluidModel clip(p, ModelLevel::Clipped);
  const auto qcn = make_fluid_mechanism("qcn", {}, ModelLevel::Nonlinear);
  EXPECT_THROW(numeric_strong_stability_pair(lin, clip), std::invalid_argument);
  EXPECT_THROW(numeric_strong_stability_pair(lin, *qcn), std::invalid_argument);
  EXPECT_NO_THROW(numeric_strong_stability_pair(lin, lin));
}

// A paired verdict folds both orbits' extrema as it steps, so a ten times
// longer horizon must not cost a single extra allocation either; Case 4's
// orbits run to either horizon, as in VerdictAllocationsDoNotGrowWithHorizon.
TEST(StabilityTest, PairedVerdictAllocationsDoNotGrowWithHorizon) {
  const BcnParams p = case4_params();
  const FluidModel lin(p, ModelLevel::Linearized);
  const FluidModel non(p, ModelLevel::Nonlinear);
  std::uint64_t counts[2] = {0, 0};
  std::array<FluidRun, 2> runs[2];
  const double durations[2] = {0.001, 0.01};
  for (int i = 0; i < 2; ++i) {
    const bcn::testing::AllocationCounter counter;
    const auto v = numeric_strong_stability_pair(lin, non, durations[i]);
    counts[i] = counter.count();
    EXPECT_FALSE(v[0].converged);
    EXPECT_FALSE(v[1].converged);
    runs[i] = summarize_fluid_pair(lin, non,
                                   {verdict_options(lin, durations[i]),
                                    verdict_options(non, durations[i])});
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_LT(steps_of(runs[0][0]), steps_of(runs[1][0]));
  EXPECT_LT(steps_of(runs[0][1]), steps_of(runs[1][1]));
}

// The verdict folds max x, the first switch time and the post-switch
// min x as the driver steps; simulate_fluid at the same duration and
// convergence stop records the orbit and reads them afterwards.  They
// must read the same bits, for every facet at every level.
TEST(StabilityTest, VerdictFoldMatchesRecordedRun) {
  std::vector<std::pair<std::unique_ptr<FluidMechanism>, double>> facets;
  for (const BcnParams& p : typed_core_plants()) {
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear,
                             ModelLevel::Clipped}) {
      auto model = std::make_unique<FluidModel>(p, level);
      const double horizon = verdict_horizon(*model);
      facets.emplace_back(std::move(model), horizon);
    }
  }
  for (const char* name : {"qcn", "rcp"}) {
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear,
                             ModelLevel::Clipped}) {
      facets.emplace_back(make_fluid_mechanism(name, {}, level), 0.01);
    }
  }
  for (const auto& [facet, duration] : facets) {
    const NumericVerdict v = numeric_strong_stability(*facet, duration);
    FluidRunOptions opts;
    opts.duration = duration;
    opts.convergence_tol = 1e-8;
    const FluidRun run = simulate_fluid(*facet, opts);
    const std::string where =
        std::string(facet->name()) + " " + facet->plant().describe() +
        " level " + std::to_string(static_cast<int>(facet->level()));
    ASSERT_FALSE(run.trajectory.empty()) << where;
    EXPECT_TRUE(same_bits(v.max_x, run.max_x)) << where;
    EXPECT_TRUE(same_bits(v.min_x, run.post_switch_min_x)) << where;
    EXPECT_EQ(v.converged, run.converged) << where;
    EXPECT_EQ(v.nonfinite, run.nonfinite) << where;
  }
}

// Definition 1 on the facet's whole orbit `run`: simulate_fluid at the
// verdict's options records it, and its sink never settles.
NumericVerdict full_orbit_verdict(const FluidMechanism& facet,
                                  const FluidRun& run) {
  NumericVerdict v;
  v.max_x = run.max_x;
  v.min_x = run.post_switch_min_x;
  v.nonfinite = run.nonfinite;
  v.strongly_stable =
      strongly_stable_orbit(facet.x_min(), facet.x_max(), run.max_x,
                            run.post_switch_min_x,
                            run.completed && !run.nonfinite);
  return v;
}

// The plant's own and paired verdicts at both interior levels must read
// their whole orbits' max_x, min_x, strongly_stable and nonfinite bit for
// bit, however early their folds settled.  Returns how many of the two
// verdict runs settled, ending before their full runs.
int expect_verdicts_read_full_orbits(const BcnParams& p) {
  const FluidModel lin(p, ModelLevel::Linearized);
  const FluidModel non(p, ModelLevel::Nonlinear);
  const auto paired = numeric_strong_stability_pair(lin, non);
  int settled = 0;
  int l = 0;
  for (const FluidModel* facet : {&lin, &non}) {
    const auto opts = verdict_options(*facet);
    const FluidRun run = simulate_fluid(*facet, opts);
    const NumericVerdict full = full_orbit_verdict(*facet, run);
    const std::string where =
        std::string(l == 0 ? "lin " : "non ") + p.describe();
    for (const NumericVerdict& v :
         {numeric_strong_stability(*facet), paired[l]}) {
      EXPECT_TRUE(same_bits(v.max_x, full.max_x)) << where;
      EXPECT_TRUE(same_bits(v.min_x, full.min_x)) << where;
      EXPECT_EQ(v.strongly_stable, full.strongly_stable) << where;
      EXPECT_EQ(v.nonfinite, full.nonfinite) << where;
    }
    settled += steps_of(summarize_fluid(*facet, opts)) < steps_of(run);
    ++l;
  }
  return settled;
}

// E22's 33x33 grid, the plants of E22GridVerdictsMatchPinnedDigest: every
// bcn orbit there spirals in, and every fold settles.
TEST(StabilityTest, SettledVerdictsReadFullOrbitsOnE22Grid) {
  BcnParams base = BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  int settled = 0;
  for (const double gi : analysis::logspace(0.125, 32.0, 33)) {
    for (const double gd : analysis::logspace(1.0 / 1024.0, 0.5, 33)) {
      BcnParams p = base;
      p.gi = gi;
      p.gd = gd;
      settled += expect_verdicts_read_full_orbits(p);
    }
  }
  EXPECT_EQ(settled, 2 * 33 * 33);
}

// The verdict service's cold plants: a log-uniform in [8e8, 4e9] and b in
// [1/256, 1/64] on the draft plant, as a request carries them.
TEST(StabilityTest, SettledVerdictsReadFullOrbitsOnServicePlants) {
  const BcnParams d = BcnParams::standard_draft();
  Rng rng(2431);
  int settled = 0;
  for (int i = 0; i < 500; ++i) {
    const double a = 8e8 * std::pow(5.0, rng.uniform());
    const double b = std::pow(4.0, rng.uniform()) / 256.0;
    settled += expect_verdicts_read_full_orbits(
        service::canonical_plant(a, b, d.k(), d.q0, d.buffer));
  }
  EXPECT_EQ(settled, 1000);
}

// Log-uniform plants far beyond E22's ranges: k spans about 1e-12 to
// 3e-5, so the draws hold near-neutral spirals, whose peaks fall by less
// than a sampled peak's error, next to nodes that stop turning.  A stop
// rule that trusts sampled peaks fails here and nowhere else.
TEST(StabilityTest, SettledVerdictsReadFullOrbitsOnWidePlants) {
  Rng rng(3119);
  const auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  int settled = 0;
  for (int i = 0; i < 2000; ++i) {
    BcnParams p = BcnParams::standard_draft();
    p.gi = log_uniform(0.01, 100.0);
    p.gd = log_uniform(1e-4, 1.0);
    p.pm = log_uniform(0.005, 1.0);
    p.w = log_uniform(0.1, 20.0);
    p.num_sources = log_uniform(1.0, 500.0);
    p.capacity = log_uniform(1e8, 1e11);
    p.q0 = log_uniform(1e5, 1e7);
    p.buffer = p.q0 * log_uniform(1.05, 20.0);
    p.qsc = p.q0 + 0.9 * (p.buffer - p.q0);
    ASSERT_TRUE(p.is_valid()) << p.describe();
    settled += expect_verdicts_read_full_orbits(p);
  }
  EXPECT_GT(settled, 3000);
  EXPECT_LT(settled, 4000);
}

// A fold may settle before the orbit reaches the 1e-8 ball: the verdict
// then reads converged = false where its whole orbit converged, and every
// field Definition 1 reads stays the whole orbit's.
TEST(StabilityTest, FoldCanSettleBeforeTheConvergenceStop) {
  BcnParams p = BcnParams::standard_draft();
  p.num_sources = 108.0;
  p.capacity = 1.046e8;
  p.q0 = 108e3;
  p.buffer = 129.4e3;
  p.qsc = 127.3e3;
  p.w = 17.5;
  p.pm = 0.00586;
  p.gi = 2.026;
  p.gd = 0.0015;
  EXPECT_EQ(expect_verdicts_read_full_orbits(p), 2);
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
    const FluidModel facet(p, level);
    EXPECT_TRUE(simulate_fluid(facet, verdict_options(facet)).converged);
    EXPECT_FALSE(numeric_strong_stability(facet).converged);
  }
}

// E22's plant, the one BM_StabilityMapCell times, settles within a third
// of the steps of its whole orbit at both levels.
TEST(StabilityTest, E22PlantSettlesWithinAThirdOfItsSteps) {
  BcnParams p = BcnParams::standard_draft();
  p.buffer = 12e6;
  p.qsc = 11e6;
  for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
    const FluidModel facet(p, level);
    const auto opts = verdict_options(facet);
    EXPECT_LT(3 * steps_of(summarize_fluid(facet, opts)),
              steps_of(simulate_fluid(facet, opts)))
        << static_cast<int>(level);
  }
}

TEST(StabilityTest, InvalidPlantThrows) {
  BcnParams p = case1_params();
  p.buffer = p.q0;  // B must exceed q0
  EXPECT_THROW(analyze_stability(p), std::invalid_argument);
}

}  // namespace
}  // namespace bcn::core
