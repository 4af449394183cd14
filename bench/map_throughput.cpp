// E22: stability-map throughput -- cells/sec of the numeric ground-truth
// map in its three execution strategies (scalar per-cell hybrid
// integration, SoA batched integration, batched + adaptive quadtree
// boundary refinement) on the E9 pinned configuration, plus the verdict
// cross-checks that make the speedup trustworthy: batch and adaptive
// must reproduce the scalar verdict in every cell, and adaptive must do
// it while integrating a minority of them.  Emits
// BENCH_map_throughput.json for tools/bcn_bench_diff tracking.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "analysis/stability_map.h"
#include "analysis/sweep.h"
#include "bench_util.h"
#include "common/json.h"
#include "ode/batch.h"
#include "runner.h"

using namespace bcn;

namespace {

int run(bench::RunContext& ctx) {
  const int grid = ctx.args->get_count("grid", 33, 2);
  const int reps = ctx.args->get_count("reps", 3);
  std::printf("=== map throughput: scalar vs batch vs adaptive ===\n");
  std::printf("batch lanes step on the %s vector pass\n",
              ode::batch_kernel_name());
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;

  const auto gi = analysis::logspace(0.125, 32.0, grid);
  const auto gd = analysis::logspace(1.0 / 1024.0, 0.5, grid);
  const std::size_t cells = gi.size() * gd.size();

  analysis::StabilityMap maps[3];
  double seconds[3] = {0.0, 0.0, 0.0};
  const analysis::MapMode modes[3] = {analysis::MapMode::Scalar,
                                      analysis::MapMode::Batch,
                                      analysis::MapMode::Adaptive};
  for (int m = 0; m < 3; ++m) {
    analysis::StabilityMapOptions opts;
    opts.numeric_level = core::ModelLevel::Linearized;
    opts.threads = ctx.threads;
    opts.mode = modes[m];
    opts.metrics = modes[m] == analysis::MapMode::Adaptive ? ctx.metrics
                                                          : nullptr;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      maps[m] = analysis::compute_stability_map(base, gi, gd, opts);
      best = std::min(
          best, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    }
    seconds[m] = best;
    std::printf("  %-8s %8.3f s  %10.0f cells/s  (%d/%zu stable, "
                "%zu integrated, %d wave(s))\n",
                analysis::to_string(modes[m]).c_str(), best,
                best > 0.0 ? cells / best : 0.0, maps[m].numeric_stable,
                cells, maps[m].integrated_cells, maps[m].refinement_waves);
  }

  // Verdict agreement: the speedup only counts if the cheap paths call
  // every cell exactly like the scalar ground truth.
  int batch_mismatch = 0;
  int adaptive_mismatch = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const bool s = maps[0].cells[i].numeric.strongly_stable;
    if (maps[1].cells[i].numeric.strongly_stable != s) ++batch_mismatch;
    if (maps[2].cells[i].numeric.strongly_stable != s) ++adaptive_mismatch;
  }
  const double adaptive_fraction =
      static_cast<double>(maps[2].integrated_cells) /
      static_cast<double>(cells);
  // Every mode's closed-form half stops each cell's walk at its first
  // proven contraction.  The most rounds any cell of the Adaptive map
  // stitched is an exact, host-independent guard against a return to
  // full-length traces.
  int closed_form_rounds_max = 0;
  for (const analysis::MapCell& cell : maps[2].cells) {
    closed_form_rounds_max =
        std::max(closed_form_rounds_max, cell.report.closed_form_rounds);
  }
  const double batch_speedup =
      seconds[1] > 0.0 ? seconds[0] / seconds[1] : 0.0;
  const double adaptive_speedup =
      seconds[2] > 0.0 ? seconds[0] / seconds[2] : 0.0;

  std::printf("\nbatch:    %d/%zu verdict mismatches vs scalar, %.2fx\n",
              batch_mismatch, cells, batch_speedup);
  std::printf("adaptive: %d/%zu verdict mismatches vs scalar, %.2fx, "
              "integrated %.1f%% of cells\n",
              adaptive_mismatch, cells, adaptive_speedup,
              100.0 * adaptive_fraction);

  JsonWriter json;
  json.add("benchmark", "map_throughput");
  json.add("grid", grid);
  json.add("cells", static_cast<std::int64_t>(cells));
  json.add("reps", reps);
  json.add("threads", ctx.threads);
  json.add("scalar_seconds", seconds[0]);
  json.add("batch_seconds", seconds[1]);
  json.add("adaptive_seconds", seconds[2]);
  json.add("scalar_cells_per_sec",
           seconds[0] > 0.0 ? cells / seconds[0] : 0.0);
  json.add("batch_cells_per_sec",
           seconds[1] > 0.0 ? cells / seconds[1] : 0.0);
  json.add("adaptive_cells_per_sec",
           seconds[2] > 0.0 ? cells / seconds[2] : 0.0);
  json.add("batch_speedup", batch_speedup);
  json.add("adaptive_speedup", adaptive_speedup);
  json.add("scalar_stable", maps[0].numeric_stable);
  json.add("batch_stable", maps[1].numeric_stable);
  json.add("adaptive_stable", maps[2].numeric_stable);
  json.add("batch_mismatch", batch_mismatch);
  json.add("adaptive_mismatch", adaptive_mismatch);
  json.add("adaptive_integrated_cells",
           static_cast<std::int64_t>(maps[2].integrated_cells));
  json.add("adaptive_integrated_fraction", adaptive_fraction);
  json.add("adaptive_waves", maps[2].refinement_waves);
  json.add("closed_form_rounds_max", closed_form_rounds_max);
  json.add("batch_kernel", ode::batch_kernel_name());
  const auto path = ctx.out_dir / "BENCH_map_throughput.json";
  if (json.write_file(path)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  }

  if (batch_mismatch != 0 || adaptive_mismatch != 0) {
    std::fprintf(stderr,
                 "FAIL: batched/adaptive verdicts diverge from scalar\n");
    return 1;
  }
  if (adaptive_fraction >= 0.5) {
    std::fprintf(stderr,
                 "FAIL: adaptive refinement integrated %.1f%% of cells "
                 "(expected < 50%%)\n",
                 100.0 * adaptive_fraction);
    return 1;
  }
  return 0;
}

}  // namespace

BCN_EXPERIMENT("map_throughput",
               "stability-map cells/sec: scalar vs SoA batch vs adaptive "
               "refinement, with verdict cross-checks",
               run, "grid", "reps")
