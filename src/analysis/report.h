// The canonical stability-verdict report: the exact text bcn_analyze
// prints for a configuration (parameter echo, case classification,
// closed-form and numeric verdicts, transient estimate, frequency
// margins), factored behind one renderer so every consumer — the CLI,
// the stability-verdict service, tests — shares the same bytes.
//
// Determinism contract: for a given (params, mechanism, duration) the
// rendered text is byte-identical to what `bcn_analyze` writes to
// stdout with the matching flags and no extras (--plot / --delay /
// --trace append after this text and are CLI-only).  The service's
// verdict cache stores rendered reports, so a cached answer is
// byte-identical to a cold one and to the CLI by construction.
#pragma once

#include <string>

#include "core/bcn_params.h"

namespace bcn::analysis {

struct VerdictRequest {
  core::BcnParams params;
  // Registry name (core/mechanism.h); bcn and bcn-draft add the
  // closed-form analysis around the numeric verdicts, other fluid facets
  // a summary of their region laws.
  std::string mechanism = "bcn";
  // Integration horizon of the numeric verdicts for mechanisms without
  // closed forms (bcn and bcn-draft integrate core::verdict_horizon).
  double duration = 1.5e-3;
  // Mirrors `bcn_analyze --monitors finite`: rendering stops before a
  // numeric verdict built on a non-finite integration, and
  // `monitor_error` carries the message the CLI prints to stderr.
  bool finite_monitor = false;
};

struct VerdictReport {
  // Byte-identical to the bcn_analyze stdout for this request.
  std::string text;

  // Any numeric integration hit a non-finite state.  With
  // finite_monitor set, `text` is truncated before the offending
  // verdict line and `monitor_error` holds the CLI's stderr message
  // (callers exit with obs::kMonitorViolationExit, like the CLI).
  bool nonfinite = false;
  std::string monitor_error;

  // Structured summary for machine consumers (the service protocol).
  bool has_fluid = true;  // false for packet-only mechanisms (fera)
  bool stable_linearized = false;
  bool stable_nonlinear = false;
  double peak_q_linearized = 0.0;
  double dip_q_linearized = 0.0;
  double peak_q_nonlinear = 0.0;
  double dip_q_nonlinear = 0.0;

  // Closed-form verdicts, present only on the bcn / bcn-draft path.
  bool closed_form = false;
  std::string paper_case;
  int proposition = 0;
  bool proposition_satisfied = false;
  bool theorem1_satisfied = false;
  double theorem1_required_buffer = 0.0;
};

// The message the finite monitor reports when the fluid integration of
// `what` (a level label in the report, a mechanism name in the service's
// crossval and svg_plot ops) went non-finite: bcn_analyze's stderr line.
std::string finite_monitor_message(const char* what);

// Renders the report for a valid parameter set and a registered
// mechanism name.  Callers are expected to have run params.validate()
// and core::find_mechanism first (bcn_analyze and the service both
// reject invalid requests before rendering).
VerdictReport render_verdict_report(const VerdictRequest& request);

}  // namespace bcn::analysis
