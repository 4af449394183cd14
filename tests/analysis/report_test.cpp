// The verdict-report renderer is the shared source of truth for
// bcn_analyze stdout and the stability-verdict service: these tests pin
// its determinism and the agreement between the rendered text and the
// structured summary fields.
#include "analysis/report.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace bcn::analysis
