// The verdict-report renderer is the shared source of truth for
// bcn_analyze stdout and the stability-verdict service: these tests pin
// its determinism and the agreement between the rendered text and the
// structured summary fields.
#include "analysis/report.h"

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "../support/digest.h"
#include "analysis/sweep.h"
#include "core/mechanism.h"
#include "core/stability.h"

namespace bcn::analysis {
namespace {

TEST(VerdictReport, DeterministicByteForByte) {
  VerdictRequest request;
  request.params = core::BcnParams::standard_draft();
  const auto first = render_verdict_report(request);
  const auto second = render_verdict_report(request);
  EXPECT_EQ(first.text, second.text);
  EXPECT_FALSE(first.text.empty());
}

TEST(VerdictReport, BcnPathCarriesClosedFormVerdicts) {
  VerdictRequest request;
  request.params = core::BcnParams::standard_draft();
  const auto report = render_verdict_report(request);
  EXPECT_TRUE(report.has_fluid);
  EXPECT_TRUE(report.closed_form);
  EXPECT_FALSE(report.nonfinite);
  // Structured fields agree with an independent closed-form analysis.
  const auto stability = core::analyze_stability(request.params);
  EXPECT_EQ(report.proposition, stability.proposition);
  EXPECT_EQ(report.proposition_satisfied, stability.proposition_satisfied);
  EXPECT_EQ(report.theorem1_satisfied, stability.theorem1_satisfied);
  EXPECT_DOUBLE_EQ(report.theorem1_required_buffer,
                   stability.theorem1_required_buffer);
  // The standard draft is the paper's under-buffered case: unstable.
  EXPECT_FALSE(report.stable_nonlinear);
  // The text mentions both verdict layers.
  EXPECT_NE(report.text.find("Theorem 1"), std::string::npos);
  EXPECT_NE(report.text.find("numeric"), std::string::npos);
}

TEST(VerdictReport, StructuredExtremaMatchNumericVerdicts) {
  VerdictRequest request;
  request.params = core::BcnParams::standard_draft();
  request.params.buffer = 30e6;
  request.params.qsc = 28e6;
  request.params.gi = 0.5;
  const auto report = render_verdict_report(request);
  core::NumericVerdictOptions options;
  options.level = core::ModelLevel::Nonlinear;
  const auto numeric =
      core::numeric_strong_stability(request.params, options);
  EXPECT_EQ(report.stable_nonlinear, numeric.strongly_stable);
  EXPECT_DOUBLE_EQ(report.peak_q_nonlinear,
                   numeric.max_x + request.params.q0);
}

TEST(VerdictReport, GenericMechanismPathHasNoClosedForm) {
  VerdictRequest request;
  request.params = core::BcnParams::standard_draft();
  request.mechanism = "qcn";
  const auto report = render_verdict_report(request);
  EXPECT_TRUE(report.has_fluid);
  EXPECT_FALSE(report.closed_form);
  EXPECT_NE(report.text.find("mechanism: qcn"), std::string::npos);
}

TEST(VerdictReport, PacketOnlyMechanismSaysSo) {
  VerdictRequest request;
  request.params = core::BcnParams::standard_draft();
  request.mechanism = "fera";
  const auto report = render_verdict_report(request);
  EXPECT_FALSE(report.has_fluid);
  EXPECT_FALSE(report.closed_form);
  EXPECT_NE(report.text.find("packet-only"), std::string::npos);
  // The hint names a bench that exists and runs fera.
  EXPECT_NE(report.text.find("packet_vs_fluid --mechanism fera"),
            std::string::npos);
}

// Every byte of the report text and every structured field, on 9x9
// grids log-spaced 1/8x..8x around a center (as the generic stability map
// sweeps a mechanism's gains), on E22's plant (the draft with a 12 Mbit
// buffer), which gives verdicts of both kinds.  bcn and bcn-draft sweep
// their gain axes gi and gd.  A request carries no qcn or rcp gains, so
// those two sweep plant axes their laws read: the setpoint q0, and the
// source count (qcn's drive) or the capacity (rcp's).  No center is a power of
// two: a dyadic gain multiplies exactly and would hide a re-associated
// product.
TEST(VerdictReport, MechanismGridReportsMatchPinnedDigest) {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  struct Axis {
    double core::BcnParams::*field;
    double center;
  };
  const Axis gi{&core::BcnParams::gi, 3.7};
  const Axis gd{&core::BcnParams::gd, 0.011};
  const Axis q0{&core::BcnParams::q0, 1.3e6};
  const std::vector<std::tuple<const char*, Axis, Axis>> runs = {
      {"bcn", gi, gd},
      {"bcn-draft", gi, gd},
      {"qcn", {&core::BcnParams::num_sources, 50.0}, q0},
      {"rcp", {&core::BcnParams::capacity, 10e9}, q0}};
  bcn::testing::Digest digest;
  std::vector<int> stable;  // Linearized, Nonlinear per mechanism
  for (const auto& [name, first, second] : runs) {
    int count[2] = {0, 0};
    for (const double g1 : logspace(first.center / 8, first.center * 8, 9)) {
      for (const double g2 :
           logspace(second.center / 8, second.center * 8, 9)) {
        VerdictRequest request;
        request.mechanism = name;
        request.params = base;
        request.params.*first.field = g1;
        request.params.*second.field = g2;
        ASSERT_TRUE(request.params.is_valid()) << request.params.describe();
        const VerdictReport r = render_verdict_report(request);
        for (const char c : r.text) digest.add(c);
        digest.add(r.nonfinite).add(r.has_fluid);
        digest.add(r.stable_linearized).add(r.stable_nonlinear);
        digest.add(r.peak_q_linearized).add(r.dip_q_linearized);
        digest.add(r.peak_q_nonlinear).add(r.dip_q_nonlinear);
        digest.add(r.closed_form).add(r.proposition);
        digest.add(r.proposition_satisfied).add(r.theorem1_satisfied);
        digest.add(r.theorem1_required_buffer);
        for (const char c : r.paper_case) digest.add(c);
        for (const char c : r.monitor_error) digest.add(c);
        count[0] += r.stable_linearized;
        count[1] += r.stable_nonlinear;
      }
    }
    stable.insert(stable.end(), {count[0], count[1]});
  }
  EXPECT_EQ(stable, (std::vector<int>{45, 71, 45, 71, 79, 80, 72, 79}));
  EXPECT_EQ(digest.value(), 0x2c889c190a2afaa4ull);
}

}  // namespace
}  // namespace bcn::analysis
