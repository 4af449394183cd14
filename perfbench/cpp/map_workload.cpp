// map workload: the "where is this plant stable" question answered by
// the fluid model.  All analysis/core/ode/exec work, no sim or service.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/stability_map.h"
#include "analysis/sweep.h"
#include "core/batch_verdict.h"
#include "ode/batch.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kGrid = 97;
constexpr int kThreads = 2;

struct MapInputs {
  bcn::core::BcnParams base;
  std::vector<double> gi, gd;
  bcn::analysis::StabilityMapOptions options;
};

// E22's pinned plant and gain ranges on a 97x97 grid.  The seed does not
// enter: the map question has no random input.
MapInputs make_inputs() {
  MapInputs in;
  in.base = bcn::core::BcnParams::standard_draft();
  in.base.buffer = 12e6;
  in.base.qsc = 11e6;
  in.gi = bcn::analysis::logspace(0.125, 32.0, kGrid);
  in.gd = bcn::analysis::logspace(1.0 / 1024.0, 0.5, kGrid);
  in.options.numeric_level = bcn::core::ModelLevel::Linearized;
  in.options.mode = bcn::analysis::MapMode::Adaptive;
  in.options.threads = kThreads;
  return in;
}

std::vector<std::uint8_t> verdict_bitmap(const bcn::analysis::StabilityMap& m) {
  std::vector<std::uint8_t> bits(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    bits[i] = m.cells[i].numeric.strongly_stable ? 1 : 0;
  }
  return bits;
}

// The Batch-mode map of the same grid: every cell integrated.
std::vector<std::uint8_t> reference_bitmap(const MapInputs& in,
                                           bool corrupt) {
  auto opts = in.options;
  opts.mode = bcn::analysis::MapMode::Batch;
  auto bits = verdict_bitmap(
      bcn::analysis::compute_stability_map(in.base, in.gi, in.gd, opts));
  if (corrupt) bits[bits.size() / 2] ^= 1;
  return bits;
}

double timed_map(const MapInputs& in, bcn::analysis::StabilityMap* out) {
  const auto start = Clock::now();
  *out = bcn::analysis::compute_stability_map(in.base, in.gi, in.gd,
                                              in.options);
  return seconds_since(start);
}

// --- layer probes -----------------------------------------------------------

// The per-region macro-step rule of core/batch_verdict.cpp, restated so
// the integrator can be timed on its own; the probe only counts when its
// extrema reproduce batch_numeric_verdicts bit for bit.
double region_rate(const bcn::ode::LaneLaw& law, int r, double capacity) {
  const double g_eff = law.g0[r] + std::abs(law.g1[r]) * capacity;
  return std::max(std::abs(g_eff * law.sy), std::sqrt(std::abs(g_eff * law.sx)));
}

bcn::ode::BatchLane batch_lane(const bcn::core::VerdictLane& lane) {
  const bcn::core::BatchVerdictOptions defaults;
  bcn::ode::BatchLane b;
  b.law = lane.law;
  b.x0 = -lane.q0;
  b.t_end = lane.duration;
  const double r0 = region_rate(lane.law, 0, lane.capacity);
  const double r1 = region_rate(lane.law, 1, lane.capacity);
  const double rmax = std::max(r0, r1);
  if (rmax <= 0.0) {
    b.dt[0] = b.dt[1] = lane.duration / (100.0 * defaults.oversample);
  } else {
    b.dt[0] = 1.0 / (defaults.oversample * (r0 > 0.0 ? r0 : rmax));
    b.dt[1] = 1.0 / (defaults.oversample * (r1 > 0.0 ? r1 : rmax));
  }
  b.inv_x_scale = 1.0 / lane.q0;
  b.inv_y_scale = 1.0 / lane.capacity;
  b.stop_tol = defaults.convergence_tol;
  return b;
}

template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    t.push_back(seconds_since(start));
  }
  return median(t);
}

}  // namespace

Result run_map(const Options& options) {
  Result result;
  const MapInputs in = make_inputs();
  const double cells = static_cast<double>(in.gi.size() * in.gd.size());
  bcn::analysis::StabilityMap map;
  timed_map(in, &map);  // warm-up: the first map runs ~2x slower
  const double setup_cpu = process_cpu_seconds();
  if (options.setup_only) {
    result.add("setup_s", setup_cpu, "s");
    return result;
  }

  std::vector<double> latencies, cpu;
  std::vector<std::vector<std::uint8_t>> bitmaps;
  const auto start = Clock::now();
  do {
    const double cpu0 = process_cpu_seconds();
    latencies.push_back(timed_map(in, &map));
    cpu.push_back(process_cpu_seconds() - cpu0);
    bitmaps.push_back(verdict_bitmap(map));
  } while (seconds_since(start) < options.seconds);
  const double elapsed = seconds_since(start);

  const auto reference = reference_bitmap(in, options.corrupt_reference);
  for (const auto& bits : bitmaps) result.check(bits == reference);
  const double ops = static_cast<double>(latencies.size());
  std::printf("map: %zu maps of %.0f cells; %d stable, %zu integrated, "
              "%d waves\n  wall: %.0f cells/s, p50 %.3f ms, p99 %.3f ms\n",
              latencies.size(), cells, map.numeric_stable,
              map.integrated_cells, map.refinement_waves,
              cells * ops / elapsed, 1e3 * quantile(latencies, 0.5),
              1e3 * quantile(latencies, 0.99));
  add_end_to_end(result, setup_cpu, median(cpu));
  return result;
}

Result trace_map(const Options& options) {
  Result result;
  const MapInputs in = make_inputs();
  const auto reference = reference_bitmap(in, options.corrupt_reference);
  constexpr int kReps = 3;

  // Untraced and traced maps alternate; medians of each.
  std::vector<double> untraced, traced;
  bcn::analysis::StabilityMap map;
  std::size_t first_span = 0;
  for (int r = 0; r < kReps; ++r) {
    untraced.push_back(timed_map(in, &map));
    result.check(verdict_bitmap(map) == reference);
    bcn::obs::tracing_drain();
    first_span = bcn::obs::tracing_spans().size();
    bcn::obs::tracing_enable();
    {
      bcn::obs::TraceSpan root("bench.map");
      traced.push_back(timed_map(in, &map));
    }
    bcn::obs::tracing_disable();
    bcn::obs::tracing_drain();
    result.check(verdict_bitmap(map) == reference);
  }

  // Attribution of the last traced map (spans [first_span, end)).
  const auto& all = bcn::obs::tracing_spans();
  const std::vector<bcn::obs::SpanRecord> spans(all.begin() + first_span,
                                                all.end());
  const bcn::obs::SpanRecord* root = last_span(spans, "bench.map");
  const double wall = static_cast<double>(root->dur_ns) / 1e9;
  auto rows = layer_self_times(spans, root->tid, root->start_ns,
                               root->start_ns + root->dur_ns);
  // Each exec.parallel_for region on the main thread waits for its
  // workers; the workers' mean chunk time is the body's share of that
  // wait: closed-form cells (core) outside a refinement wave, batched
  // lane integration (ode) inside one.  The rest stays with exec.
  double to_core = 0.0, to_ode = 0.0;
  for (const auto& p : spans) {
    if (p.tid != root->tid || std::string_view(p.name) != "exec.parallel_for") {
      continue;
    }
    const std::uint64_t end = p.start_ns + p.dur_ns;
    bool in_wave = false;
    for (const auto& w : spans) {
      if (w.tid == root->tid && std::string_view(w.name) == "analysis.map_wave" &&
          w.start_ns <= p.start_ns && w.start_ns + w.dur_ns >= end) {
        in_wave = true;
      }
    }
    double busy = 0.0;
    for (const auto& c : spans) {
      if (c.tid != root->tid && std::string_view(c.name) == "exec.chunk" &&
          c.start_ns >= p.start_ns && c.start_ns + c.dur_ns <= end) {
        busy += static_cast<double>(c.dur_ns) / 1e9;
      }
    }
    const double threads = p.n_args > 1 ? p.args[1].value : 1.0;
    const double share = std::min(busy / std::max(1.0, threads),
                                  static_cast<double>(p.self_ns) / 1e9);
    (in_wave ? to_ode : to_core) += share;
  }
  move_self_time(rows, "exec", "core", to_core);
  move_self_time(rows, "exec", "ode", to_ode);
  const double unattributed =
      print_layer_table("map (one traced compute_stability_map)", rows,
                        "bench", wall);

  // Layer probes over the same grid.
  const double cells = static_cast<double>(in.gi.size() * in.gd.size());
  std::vector<bcn::core::VerdictLane> lanes;
  for (const auto& cell : map.cells) {
    if (!cell.integrated) continue;
    auto p = in.base;
    p.gi = cell.gi;
    p.gd = cell.gd;
    lanes.push_back(bcn::core::make_bcn_verdict_lane(p, in.options.numeric_level));
  }
  int theorem1_cells = 0;
  const double closed_form_s = median_seconds(kReps, [&] {
    theorem1_cells = 0;
    for (const double gi : in.gi) {
      for (const double gd : in.gd) {
        auto p = in.base;
        p.gi = gi;
        p.gd = gd;
        theorem1_cells += bcn::core::analyze_stability(p).theorem1_satisfied;
      }
    }
  });
  std::vector<bcn::core::NumericVerdict> verdicts;
  bcn::core::BatchVerdictOptions serial;
  serial.threads = 1;
  bcn::core::BatchVerdictOptions parallel;
  parallel.threads = kThreads;
  const double t1 = median_seconds(kReps, [&] {
    verdicts = bcn::core::batch_numeric_verdicts(lanes, serial);
  });
  const double t2 = median_seconds(kReps, [&] {
    bcn::core::batch_numeric_verdicts(lanes, parallel);
  });

  std::vector<bcn::ode::BatchLane> batch;
  for (const auto& lane : lanes) batch.push_back(batch_lane(lane));
  bcn::ode::BatchIntegrator integrator;
  const double integrate_s = median_seconds(kReps, [&] {
    integrator.reset(batch);
    integrator.run_to_completion();
  });
  double steps = 0.0;
  bool same = true;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto& r = integrator.results()[i];
    steps += r.steps;
    same = same && r.max_x == verdicts[i].max_x &&
           r.post_switch_min_x == verdicts[i].min_x;
  }
  result.check(same);
  if (!same) std::printf("  ode probe extrema differ from batch verdicts\n");

  const double integrated = static_cast<double>(map.integrated_cells);
  result.add("analysis.map_s", median(traced), "s");
  result.add("analysis.cells_per_s", cells / median(untraced), "1/s");
  result.add("analysis.integrated_share", integrated / cells, "ratio");
  result.add("analysis.waves", map.refinement_waves, "count");
  result.add("core.closed_form_us_per_cell", 1e6 * closed_form_s / cells, "us");
  result.add("core.batch_verdict_us_per_lane",
             1e6 * t1 / static_cast<double>(lanes.size()), "us");
  result.add("ode.batch_ns_per_lane_step",
             same ? 1e9 * integrate_s / steps : -1.0, "ns");
  result.add("exec.map_parallel_efficiency", t1 / (kThreads * t2), "ratio");
  result.add("analysis.unattributed_share", unattributed, "ratio");
  result.add("analysis.trace_overhead_share",
             median(traced) / median(untraced) - 1.0, "ratio");
  std::printf("map probes: %zu integrated lanes, %.0f lane steps, batch "
              "T1 %.4f s T2 %.4f s, %d Theorem-1 cells\n",
              lanes.size(), steps, t1, t2, theorem1_cells);
  return result;
}

}  // namespace perfbench
