// bcn_analyze: one-shot stability analysis of a BCN configuration.
//
//   bcn_analyze [--N 50] [--C 10e9] [--q0 2.5e6] [--B 5e6] [--qsc 4.5e6]
//               [--gi 4] [--gd 0.0078125] [--ru 8e6] [--w 2] [--pm 0.01]
//               [--delay 0] [--plot] [--duration 1.5e-3]
//
// Prints: parameter echo, case classification, closed-form transient
// extrema, Propositions 2-4 / Theorem 1 / baseline verdicts, numeric
// verdicts at every model level, transient estimates, frequency-domain
// margins, and (with --plot) an ASCII queue transient.
//
// The report body (everything before the --delay / --plot extras) is
// rendered by analysis::render_verdict_report, the same function the
// stability-verdict service (tools/bcn_serve) answers from — so a
// service verdict is byte-identical to this tool's output by
// construction (docs/SERVICE.md, scripts/check.sh gate 10).
#include <cstdio>

#include "analysis/report.h"
#include "common/args.h"
#include "common/table.h"
#include "core/delayed_model.h"
#include "core/mechanism.h"
#include "core/simulate.h"
#include "obs/monitor.h"
#include "obs/tracing.h"
#include "plot/ascii.h"

using namespace bcn;

namespace {

void usage() {
  std::puts(
      "usage: bcn_analyze [--N n] [--C bps] [--q0 bits] [--B bits]\n"
      "                   [--qsc bits] [--gi x] [--gd x] [--ru bps]\n"
      "                   [--w x] [--pm x] [--delay seconds]\n"
      "                   [--duration seconds] [--plot]\n"
      "                   [--mechanism name] [--trace file] [--help]\n"
      "  --mechanism m analyze this congestion-control mechanism's fluid\n"
      "                facet instead of BCN's (see core/mechanism.h);\n"
      "                closed-form BCN propositions apply to bcn only\n"
      "  --monitors s  arm runtime invariant monitors (BCN_MONITORS env\n"
      "                fallback); with `finite` armed a non-finite fluid\n"
      "                integration exits with code 3 instead of printing\n"
      "                a verdict built on NaN\n"
      "  --trace file  record wall-clock spans, print the self-profile\n"
      "                table and write Chrome trace-event JSON there\n"
      "                (BCN_TRACE env fallback)");
}

int run(const ArgParser& args) {
  if (args.get_bool("help")) {
    usage();
    return 0;
  }
  if (!reject_unknown_flags(args, {"help", "N", "C", "q0", "B", "qsc", "gi",
                                   "gd", "ru", "w", "pm", "delay", "duration",
                                   "plot", "trace", "mechanism", "monitors"})) {
    usage();
    return 2;
  }
  const std::string mechanism = core::mechanism_flag(args);
  obs::MonitorSpec monitors;
  if (const auto spec = args.lookup("monitors", "BCN_MONITORS")) {
    monitors = spec->parse(obs::parse_monitor_spec, obs::monitor_spec_usage());
  }

  core::BcnParams p = core::BcnParams::standard_draft();
  p.num_sources = args.get_double("N", p.num_sources);
  p.capacity = args.get_double("C", p.capacity);
  p.q0 = args.get_double("q0", p.q0);
  p.buffer = args.get_double("B", p.buffer);
  p.qsc = args.get_double("qsc", std::min(0.9 * p.buffer, p.buffer - 1.0));
  p.gi = args.get_double("gi", p.gi);
  p.gd = args.get_double("gd", p.gd);
  p.ru = args.get_double("ru", p.ru);
  p.w = args.get_double("w", p.w);
  p.pm = args.get_double("pm", p.pm);
  // --duration defaults differ: the report's fluid run spans 1.5 ms, the
  // --delay run 5 ms.
  const double duration = args.get_double("duration", 1.5e-3);
  const double delay = args.get_double("delay", 0.0);
  const double delay_duration = args.get_double("duration", 5e-3);
  const bool plot = args.get_bool("plot");
  const auto trace_path = obs::maybe_enable_tracing(args);

  const auto issues = p.validate();
  if (!issues.empty()) {
    std::fprintf(stderr, "invalid parameters:\n");
    for (const auto& issue : issues) {
      std::fprintf(stderr, "  - %s\n", issue.c_str());
    }
    return 1;
  }

  analysis::VerdictRequest request;
  request.params = p;
  request.mechanism = mechanism;
  request.duration = duration;
  request.finite_monitor = monitors.finite;
  const auto report = analysis::render_verdict_report(request);
  std::fputs(report.text.c_str(), stdout);
  if (monitors.finite && report.nonfinite) {
    std::fputs(report.monitor_error.c_str(), stderr);
    return obs::kMonitorViolationExit;
  }

  // The delay model, the integrator statistics and the --trace profile
  // are BCN-only extras.
  const bool closed_form = mechanism == "bcn" || mechanism == "bcn-draft";
  if (closed_form && delay > 0.0) {
    core::DelayedRunOptions dopts;
    dopts.delay = delay;
    dopts.duration = delay_duration;
    const auto run = core::simulate_delayed(p, dopts);
    std::printf("\nwith feedback delay %.4g s: peak q = %.6g%s\n", delay,
                run.max_x + p.q0, run.diverged ? " (DIVERGED)" : "");
    if (const auto crit = core::critical_delay(p, 1e-3)) {
      std::printf("critical delay for this buffer: %.4g s\n", *crit);
    }
  }

  if (plot && report.has_fluid) {
    core::MechanismConfig mcfg;
    mcfg.plant = p;
    core::FluidRunOptions opts;
    opts.duration = request.duration;
    opts.record_interval = opts.duration / 1000.0;
    const auto run = core::simulate_fluid(
        *core::make_fluid_mechanism(mechanism, mcfg), opts);
    plot::Series q;
    q.name = "q(t)";
    for (const auto& s : run.trajectory.samples()) {
      q.add(s.t * 1e3, (s.z.x + p.q0) / 1e6);
    }
    plot::AsciiOptions ascii;
    ascii.title = closed_form ? "queue transient (nonlinear fluid model)"
                              : "queue transient (nonlinear fluid facet)";
    ascii.x_label = "t [ms]";
    ascii.y_label = "q [Mbit]";
    std::printf("\n%s", plot::render_ascii({q}, ascii).c_str());
    if (closed_form) {
      std::printf("\nintegrator: %zu steps accepted, %zu rejected, min "
                  "accepted dt %.3g s, %zu event-localization bisection "
                  "iterations across %zu mode switches\n",
                  run.steps_accepted, run.steps_rejected, run.min_step,
                  run.event_bisections, run.switches.size());
    }
  }

  if (closed_form && trace_path) {
    obs::tracing_drain();
    const auto profile = obs::build_self_profile(obs::tracing_spans());
    TablePrinter table({"span", "calls", "total s", "self s"});
    for (const auto& e : profile) {
      table.add_row({e.name, std::to_string(e.calls),
                     TablePrinter::format(e.total_seconds),
                     TablePrinter::format(e.self_seconds)});
    }
    std::printf("\n%s", table.to_string("self-profile (wall-clock)").c_str());
    obs::finalize_tracing(*trace_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_cli(argc, argv, run); }
