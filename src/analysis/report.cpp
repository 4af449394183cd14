#include "analysis/report.h"

#include <string_view>
#include <tuple>

#include "analysis/transient.h"
#include "common/format.h"
#include "common/table.h"
#include "control/frequency.h"
#include "core/mechanism.h"
#include "core/stability.h"

namespace bcn::analysis {

std::string finite_monitor_message(const char* what) {
  return strf(
      "monitor: finite: %s fluid integration produced a "
      "non-finite state; no verdict\n",
      what);
}

namespace {

// The summary of a fluid facet without closed forms: equilibrium and
// region laws.  False for packet-only mechanisms, which end the report.
bool render_facet_summary(const VerdictRequest& request,
                          VerdictReport& report) {
  const auto* info = core::find_mechanism(request.mechanism);
  report.text += strf("mechanism: %s -- %s\n", info->name, info->summary);
  core::MechanismConfig mcfg;
  mcfg.plant = request.params;
  const auto mech = core::make_fluid_mechanism(request.mechanism, mcfg);
  if (!mech) {
    report.has_fluid = false;
    report.text += strf(
        "packet-only mechanism: no fluid facet to analyze; run its "
        "packet simulation with packet_vs_fluid --mechanism %s.\n",
        request.mechanism.c_str());
    return false;
  }
  report.text += strf("equilibrium at the origin: %s\n",
                      mech->has_equilibrium() ? "yes" : "no (sawtooth orbit)");
  TablePrinter laws({"region", "lambda^2 + m lambda + n", "m", "n"});
  for (const auto& law : mech->region_laws()) {
    laws.add_row({law.label,
                  law.linearizable ? "second-order" : "constant drive",
                  TablePrinter::format(law.m), TablePrinter::format(law.n)});
  }
  report.text += laws.to_string("linearized region laws");
  return true;
}

// Numeric Definition-1 verdicts of the facet at the Linearized and
// Nonlinear levels, whose orbits step together.  The closed-form
// mechanisms integrate the automatic horizon under eq.-labelled lines;
// the others request.duration.  False when the finite monitor stopped
// the report.
bool render_numeric_verdicts(const VerdictRequest& request, bool closed_form,
                             VerdictReport& report) {
  core::MechanismConfig mcfg;
  mcfg.plant = request.params;
  const double duration = closed_form ? 0.0 : request.duration;
  const double q0 = request.params.q0;
  const auto verdicts = core::numeric_strong_stability_pair(
      *core::make_fluid_mechanism(request.mechanism, mcfg,
                                  core::ModelLevel::Linearized),
      *core::make_fluid_mechanism(request.mechanism, mcfg,
                                  core::ModelLevel::Nonlinear),
      duration);
  for (const auto& [verdict, closed_form_name, facet_name, stable, peak,
                    dip] :
       {std::tuple{verdicts[0], "linearized (eq.9) ", "linearized",
                   &report.stable_linearized, &report.peak_q_linearized,
                   &report.dip_q_linearized},
        std::tuple{verdicts[1], "nonlinear  (eq.8) ", "nonlinear ",
                   &report.stable_nonlinear, &report.peak_q_nonlinear,
                   &report.dip_q_nonlinear}}) {
    const char* name = closed_form ? closed_form_name : facet_name;
    report.nonfinite = report.nonfinite || verdict.nonfinite;
    if (request.finite_monitor && verdict.nonfinite) {
      report.monitor_error = finite_monitor_message(name);
      return false;
    }
    *stable = verdict.strongly_stable;
    *peak = verdict.max_x + q0;
    *dip = verdict.min_x + q0;
    const std::string_view label =
        verdict.strongly_stable ? "strongly stable" : "NOT strongly stable";
    std::string& text = report.text;
    text += "numeric ";
    text += name;
    text += ": ";
    text += label;
    text.append(22 - label.size(), ' ');  // %-22s
    text += " peak q = ";
    append_g(text, *peak);
    text += ", dip q = ";
    append_g(text, *dip);
    text += '\n';
  }
  return true;
}

// The closed-form analysis heading the bcn / bcn-draft report.
void render_closed_form(const core::BcnParams& p, VerdictReport& report) {
  const auto analysis = core::analyze_stability(p);
  report.closed_form = true;
  report.paper_case = core::to_string(analysis.classification.paper_case);
  report.proposition = analysis.proposition;
  report.proposition_satisfied = analysis.proposition_satisfied;
  report.theorem1_satisfied = analysis.theorem1_satisfied;
  report.theorem1_required_buffer = analysis.theorem1_required_buffer;
  report.text += "analysis: ";
  report.text += analysis.summary();
  report.text += "\n\n";
}

// The transient estimate and frequency margins closing the bcn /
// bcn-draft report.
void render_closed_form_tail(const core::BcnParams& p, VerdictReport& report) {
  std::string& text = report.text;
  // "label%.4g" pieces.
  const auto num = [&text](const char* label, double v) {
    text += label;
    append_g(text, v, 4);
  };
  if (const auto est = analysis::estimate_transient(p)) {
    num("\ntransient estimate: cycle ", est->cycle_time);
    text += " s, contraction ";
    append_f(text, est->contraction_ratio, 6);
    num(" per cycle, settling to 5% band in ", est->settling_time);
    text += " s\n";
  }

  const control::LoopTransfer inc{p.a(), p.k()};
  const control::LoopTransfer dec{p.b() * p.capacity, p.k()};
  num("\nfrequency margins: increase crossover ", control::gain_crossover(inc));
  num(" rad/s, phase margin ", control::phase_margin(inc));
  num(" rad, delay margin ", control::delay_margin(inc));
  num(" s; decrease ", control::gain_crossover(dec));
  num(" rad/s, ", control::phase_margin(dec));
  num(" rad, ", control::delay_margin(dec));
  text += " s\n";
}

}  // namespace

VerdictReport render_verdict_report(const VerdictRequest& request) {
  VerdictReport report;
  report.text.reserve(1024);  // a report is under 1 KiB
  report.text += request.params.describe();
  report.text += "\n\n";
  const bool closed_form =
      request.mechanism == "bcn" || request.mechanism == "bcn-draft";
  if (closed_form) {
    render_closed_form(request.params, report);
  } else if (!render_facet_summary(request, report)) {
    return report;
  }
  if (render_numeric_verdicts(request, closed_form, report) && closed_form) {
    render_closed_form_tail(request.params, report);
  }
  return report;
}

}  // namespace bcn::analysis
