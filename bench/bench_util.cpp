#include "bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "common/csv.h"
#include "control/closed_form.h"
#include "core/analytic_tracer.h"
#include "core/classifier.h"
#include "core/simulate.h"
#include "core/stability.h"

namespace bcn::bench {

namespace {
std::filesystem::path g_output_dir_override;
}  // namespace

std::filesystem::path output_dir() {
  if (!g_output_dir_override.empty()) return g_output_dir_override;
  if (const char* env = std::getenv("BCN_BENCH_OUT")) return env;
  return "bench_out";
}

void set_output_dir(std::filesystem::path dir) {
  g_output_dir_override = std::move(dir);
}

plot::Series phase_series(const ode::Trajectory& trajectory,
                          std::string name) {
  plot::Series s;
  s.name = std::move(name);
  s.points.reserve(trajectory.size());
  for (const auto& sample : trajectory.samples()) {
    s.add(sample.z.x / 1e6, sample.z.y / 1e9);
  }
  return s;
}

plot::Series queue_series(const ode::Trajectory& trajectory, double q0,
                          std::string name) {
  plot::Series s;
  s.name = std::move(name);
  s.points.reserve(trajectory.size());
  for (const auto& sample : trajectory.samples()) {
    s.add(sample.t * 1e3, (sample.z.x + q0) / 1e6);
  }
  return s;
}

plot::Series rate_series(const ode::Trajectory& trajectory, double capacity,
                         std::string name) {
  plot::Series s;
  s.name = std::move(name);
  s.points.reserve(trajectory.size());
  for (const auto& sample : trajectory.samples()) {
    s.add(sample.t * 1e3, (sample.z.y + capacity) / 1e9);
  }
  return s;
}

void emit_figure(const std::string& stem,
                 const std::vector<plot::Series>& series,
                 const plot::AsciiOptions& ascii,
                 const plot::SvgOptions& svg) {
  std::fputs(plot::render_ascii(series, ascii).c_str(), stdout);
  const auto path = output_dir() / (stem + ".svg");
  if (plot::write_svg(path, series, svg)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  } else {
    std::printf("  [artifact] FAILED to write %s\n", path.string().c_str());
  }
}

void emit_csv(const std::string& stem, const ode::Trajectory& trajectory) {
  CsvWriter csv({"t_seconds", "x_bits", "y_bits_per_s"});
  for (const auto& s : trajectory.samples()) {
    csv.add_row({s.t, s.z.x, s.z.y});
  }
  const auto path = output_dir() / (stem + ".csv");
  if (csv.write_file(path)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  }
}

void print_params(const core::BcnParams& params) {
  std::printf("%s\n", params.describe().c_str());
}

void record_sim_metrics(const sim::SimStats& stats,
                        obs::MetricsRegistry* registry,
                        const std::string& prefix) {
  if (!registry) return;
  stats.export_metrics(*registry, prefix);
}

void record_fluid_metrics(const core::FluidRun& run,
                          obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  if (!registry) return;
  registry->counter(prefix + "steps_accepted").inc(run.steps_accepted);
  registry->counter(prefix + "steps_rejected").inc(run.steps_rejected);
  registry->counter(prefix + "event_bisections").inc(run.event_bisections);
  auto& min_dt = registry->gauge(prefix + "min_dt_seconds");
  if (run.min_step > 0.0 &&
      (min_dt.value() == 0.0 || run.min_step < min_dt.value())) {
    min_dt.set(run.min_step);
  }
}

void record_monitor_metrics(const obs::RunMonitor& monitor,
                            obs::MetricsRegistry* registry) {
  if (!monitor.armed()) return;
  if (registry) monitor.export_metrics(*registry);
  std::printf("  [monitor] %llu checks, %llu violations\n",
              static_cast<unsigned long long>(monitor.checks()),
              static_cast<unsigned long long>(monitor.violation_count()));
}

void export_observability(const sim::SimStats& stats,
                          const std::string& stem) {
  if (stats.timelines().total_points() > 0) {
    const auto path = output_dir() / (stem + "_timelines.csv");
    if (stats.timelines().write_csv(path)) {
      std::printf("  [artifact] %s\n", path.string().c_str());
    }
  }
  if (!stats.events().empty()) {
    const auto path = output_dir() / (stem + "_events.csv");
    if (stats.events().write_csv(path)) {
      std::printf("  [artifact] %s\n", path.string().c_str());
    }
  }
}

CaseBenchResult run_case_dynamics(const core::BcnParams& params,
                                  const std::string& title,
                                  const std::string& stem, double duration) {
  print_params(params);
  const auto cls = core::classify_case(params);
  std::printf("classification: %s (increase: %s, decrease: %s)\n",
              core::to_string(cls.paper_case).c_str(),
              control::to_string(cls.increase_kind).c_str(),
              control::to_string(cls.decrease_kind).c_str());

  const auto closed = core::AnalyticTracer(params).extrema();

  core::FluidRunOptions ropts;
  ropts.duration = duration;
  ropts.record_interval = duration / 2000.0;
  const auto lin = core::simulate_fluid(
      core::FluidModel(params, core::ModelLevel::Linearized), ropts);
  const auto non = core::simulate_fluid(
      core::FluidModel(params, core::ModelLevel::Nonlinear), ropts);

  TablePrinter extrema({"quantity", "closed form", "numeric (linearized)",
                        "numeric (nonlinear)"});
  extrema.add_row({"max x", TablePrinter::format(closed.max_x),
                   TablePrinter::format(lin.max_x),
                   TablePrinter::format(non.max_x)});
  extrema.add_row({"min x (post-crossing)",
                   TablePrinter::format(closed.min_x),
                   TablePrinter::format(lin.post_switch_min_x),
                   TablePrinter::format(non.post_switch_min_x)});
  std::fputs(extrema.to_string("transient extrema [bits]").c_str(), stdout);

  const auto report = core::analyze_stability(params);
  const auto verdict = core::numeric_strong_stability(params);
  std::printf("\n%s\nnumeric ground truth: %s (max_x=%.6g, min_x=%.6g)\n",
              report.summary().c_str(),
              verdict.strongly_stable ? "strongly stable"
                                      : "NOT strongly stable",
              verdict.max_x, verdict.min_x);

  // Raw units so the driver works for both the datacenter-scale and the
  // scaled-down plants.
  auto raw_phase = [](const ode::Trajectory& traj, std::string name) {
    return plot::series_phase(traj, std::move(name));
  };
  auto raw_queue = [&](const ode::Trajectory& traj, std::string name) {
    plot::Series s = plot::series_vs_time(traj, 0, std::move(name), 1e3);
    for (auto& pt : s.points) pt.y += params.q0;
    return s;
  };

  plot::AsciiOptions ascii;
  ascii.title = title + " - phase portrait";
  ascii.x_label = "x = q - q0 [bits]";
  ascii.y_label = "y = N r - C [bits/s]";
  plot::SvgOptions svg;
  svg.title = ascii.title;
  svg.x_label = ascii.x_label;
  svg.y_label = ascii.y_label;
  svg.ref_lines.push_back({true, params.buffer - params.q0, "B - q0"});
  svg.ref_lines.push_back({true, -params.q0, "-q0"});
  emit_figure(stem + "_phase",
              {raw_phase(lin.trajectory, "linearized"),
               raw_phase(non.trajectory, "nonlinear")},
              ascii, svg);

  plot::AsciiOptions ascii_q;
  ascii_q.title = title + " - queue evolution";
  ascii_q.x_label = "t [ms]";
  ascii_q.y_label = "q [bits]";
  plot::SvgOptions svg_q;
  svg_q.title = ascii_q.title;
  svg_q.x_label = ascii_q.x_label;
  svg_q.y_label = ascii_q.y_label;
  svg_q.ref_lines.push_back({false, params.q0, "q0"});
  emit_figure(stem + "_queue",
              {raw_queue(lin.trajectory, "linearized"),
               raw_queue(non.trajectory, "nonlinear")},
              ascii_q, svg_q);

  return {closed.max_x, closed.min_x, lin.max_x, non.max_x,
          verdict.strongly_stable};
}

core::BcnParams scaled_plant() {
  core::BcnParams p;
  p.num_sources = 50.0;
  p.capacity = 1e6;  // 1 Mbps bottleneck
  p.q0 = 1e3;
  p.buffer = 2e4;
  p.qsc = 1.5e4;
  p.w = 50.0;
  p.pm = 0.5;   // k = w/(pm C) = 1e-4, threshold 4/k^2 = 4e8
  p.gi = 4.0;   // a = Ru Gi N = 1.6e6 by default (spiral)
  p.gd = 10.0;  // b C = 1e7 by default (spiral)
  p.ru = 8e3;
  return p;
}

}  // namespace bcn::bench
