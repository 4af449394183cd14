// E11: packet-level simulator vs fluid model cross-validation (the
// substitution experiment: the paper's claims live in the fluid model; the
// packet simulator exercises the same control laws frame by frame).
// --mechanism swaps both sides together: the registered fluid facet and
// the packet facet of the same mechanism.
#include <cstdio>

#include "analysis/crossval.h"
#include "bench_util.h"
#include "runner.h"
#include "common/table.h"
#include "core/mechanism.h"
#include "core/simulate.h"
#include "sim/network.h"

using namespace bcn;

namespace {

core::BcnParams slow_regime() {
  core::BcnParams p;
  p.num_sources = 5;
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

std::string fmt_period(const std::optional<double>& period) {
  return period ? TablePrinter::format(*period * 1e3) : std::string("-");
}

}  // namespace

namespace {

int run(bench::RunContext& ctx) {
  std::printf("=== E11: packet simulator vs fluid model (--mechanism %s) "
              "===\n",
              ctx.mechanism.c_str());
  const core::BcnParams p = slow_regime();
  bench::print_params(p);
  std::printf("calibration: per-source BCN interval ~%.0f us << oscillation "
              "period, so the frame-level system can track the fluid "
              "dynamics.\n",
              p.num_sources * 12000.0 / (p.pm * p.capacity) * 1e6);

  constexpr double kDuration = 0.04;

  // Fluid runs of the mechanism's facet at both interior levels (BCN's is
  // FluidModel).  FERA is packet-only: its fluid side is skipped entirely.
  core::FluidRun lin, non;
  const bool has_fluid = core::find_mechanism(ctx.mechanism)->has_fluid;
  if (has_fluid) {
    core::MechanismConfig mcfg;
    mcfg.plant = p;
    core::FluidRunOptions fopts;
    fopts.duration = kDuration;
    fopts.record_interval = 2e-5;
    lin = core::simulate_fluid(
        *core::make_fluid_mechanism(ctx.mechanism, mcfg,
                                    core::ModelLevel::Linearized),
        fopts);
    non = core::simulate_fluid(
        *core::make_fluid_mechanism(ctx.mechanism, mcfg,
                                    core::ModelLevel::Nonlinear),
        fopts);
    bench::record_fluid_metrics(lin, ctx.metrics);
    bench::record_fluid_metrics(non, ctx.metrics);
  }

  // Packet run under the same mechanism.
  sim::NetworkConfig cfg;
  cfg.params = p;
  cfg.mechanism = ctx.mechanism;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.record_interval = 20 * sim::kMicrosecond;
  cfg.faults = ctx.faults;
  cfg.monitors = ctx.monitors;
  if (cfg.monitors.spec.any()) {
    cfg.monitors.fluid_strongly_stable =
        analysis::fluid_stability_hint(p, ctx.mechanism);
  }
  sim::Network net(cfg);
  net.run(sim::from_seconds(kDuration));
  bench::record_sim_metrics(net.stats(), ctx.metrics);
  if (ctx.metrics) {
    net.simulator().export_metrics(*ctx.metrics);
    if (ctx.faults.armed()) {
      sim::export_fault_metrics(net.fault_counters(), *ctx.metrics);
    }
  }
  bench::record_monitor_metrics(net.monitor(), ctx.metrics);
  bench::export_observability(net.stats(), "packet_vs_fluid");
  const auto packet = net.stats().to_phase_trajectory(p.q0, p.capacity);

  const double prominence = 0.05 * p.q0;
  if (!has_fluid) {
    const auto f_pkt = analysis::extract_features(packet, prominence);
    std::printf("\n%s is packet-only (no fluid facet); packet transient: "
                "peak q %.3f Mbit at %.2f ms, settle q %.3f Mbit\n",
                ctx.mechanism.c_str(), (f_pkt.peak_value + p.q0) / 1e6,
                f_pkt.peak_time * 1e3, (f_pkt.final_value + p.q0) / 1e6);
    return 0;
  }
  const auto features = analysis::extract_features_batch(
      {&lin.trajectory, &non.trajectory, &packet}, prominence, ctx.threads);
  const auto& f_lin = features[0];
  const auto& f_non = features[1];
  const auto& f_pkt = features[2];

  TablePrinter table({"system", "peak q (Mbit)", "peak t (ms)",
                      "trough q (Mbit)", "period (ms)", "settle q (Mbit)"});
  auto row = [&](const char* name, const analysis::TrajectoryFeatures& f) {
    table.add_row({name, TablePrinter::format((f.peak_value + p.q0) / 1e6),
                   TablePrinter::format(f.peak_time * 1e3),
                   TablePrinter::format((f.trough_value + p.q0) / 1e6),
                   fmt_period(f.period),
                   TablePrinter::format((f.final_value + p.q0) / 1e6)});
  };
  row("fluid linearized (eq.9)", f_lin);
  row("fluid nonlinear (eq.8)", f_non);
  row("packet simulator", f_pkt);
  std::fputs(table.to_string("transient features").c_str(), stdout);

  const auto cmp = analysis::compare_shapes(non.trajectory, packet, prominence);
  // Settling error measured in queue space relative to q0 (the x-space
  // relative error is meaningless when both settle near x = 0).
  const double settle_err =
      std::abs(cmp.b.final_value - cmp.a.final_value) / p.q0;
  std::printf("\nshape agreement packet-vs-nonlinear-fluid: same character "
              "(damped oscillation): %s | peak rel.err %.2f | period "
              "rel.err %.2f | settle offset %.3f q0\n",
              cmp.same_character ? "yes" : "NO",
              cmp.peak_rel_error, cmp.period_rel_error, settle_err);

  std::printf("packet counters: sent=%llu delivered=%llu dropped=%llu "
              "bcn+=%llu bcn-=%llu throughput=%.3f Gbps\n",
              static_cast<unsigned long long>(net.stats().counters.frames_sent),
              static_cast<unsigned long long>(net.stats().counters.frames_delivered),
              static_cast<unsigned long long>(net.stats().counters.frames_dropped),
              static_cast<unsigned long long>(net.stats().counters.bcn_positive),
              static_cast<unsigned long long>(net.stats().counters.bcn_negative),
              net.stats().throughput(sim::from_seconds(kDuration)) / 1e9);

  plot::AsciiOptions ascii;
  ascii.title = "q(t): packet simulator vs fluid model";
  ascii.x_label = "t [ms]";
  ascii.y_label = "q [Mbit]";
  plot::SvgOptions svg;
  svg.title = ascii.title;
  svg.x_label = ascii.x_label;
  svg.y_label = ascii.y_label;
  svg.ref_lines.push_back({false, p.q0 / 1e6, "q0"});
  bench::emit_figure(
      "packet_vs_fluid",
      {bench::queue_series(lin.trajectory, p.q0, "fluid lin"),
       bench::queue_series(non.trajectory, p.q0, "fluid nonlin"),
       bench::queue_series(packet, p.q0, "packet")},
      ascii, svg);

  std::printf("\nSuccess bar: same damped-oscillation character, peak "
              "within 2x, both settle on q0 -- shape, not absolute "
              "agreement (frame quantization and per-source feedback "
              "timing are real effects the fluid model drops).\n");
  return 0;
}

}  // namespace

BCN_EXPERIMENT("packet_vs_fluid", "E11: packet simulator vs fluid model cross-validation", run)
