// E9 / paper Propositions 1-4: subsystem Hurwitz stability, the
// case-by-case strong-stability verdicts over a (Gi, Gd) gain grid, and a
// numeric probe of Proposition 4's a-boundary branch.
//
// The grid is the parallel-sweep showcase: --grid n sweeps an n x n gain
// grid and --threads 0 evaluates its cells on every hardware thread, with
// the per-cell CSV bitwise identical to the serial run.
#include <cstdio>

#include "analysis/stability_map.h"
#include "analysis/sweep.h"
#include "core/batch_verdict.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/format.h"
#include "common/table.h"
#include "core/mechanism.h"
#include "core/stability.h"
#include "exec/parallel_for.h"
#include "runner.h"

using namespace bcn;

namespace {

// Verdict horizon of the generic map's cells [s].
constexpr double kGenericDuration = 0.01;

// The Propositions and Theorem 1 are BCN theorems, so --mechanism other
// than bcn/bcn-draft gets the generic map instead: the registry's own
// gain axes (log-spaced 1/8x..8x around the defaults) scored by the
// generic numeric phase-plane verdict.
int run_generic_map(bench::RunContext& ctx, const core::MechanismInfo& info,
                    const core::BcnParams& base, int grid) {
  core::MechanismConfig cfg0;
  cfg0.plant = base;
  const auto [d1, d2] = info.default_gains(cfg0);
  const auto g1 = analysis::logspace(d1 / 8.0, d1 * 8.0, grid);
  const auto g2 = analysis::logspace(d2 / 8.0, d2 * 8.0, grid);

  struct Cell {
    bool stable = false;
    double max_x = 0.0;
    double min_x = 0.0;
  };
  std::vector<Cell> cells;
  bool batched = ctx.map_mode != analysis::MapMode::Scalar;
  if (batched) {
    // Batched path: every cell's mechanism exposes its affine lane law
    // and the whole grid goes through the SoA integrator at once.  (The
    // quadtree refinement is a (Gi, Gd)/BCN-map feature; for generic
    // maps adaptive degrades to plain batch.)
    std::vector<core::VerdictLane> lanes;
    lanes.reserve(g1.size() * g2.size());
    for (std::size_t idx = 0; idx < g1.size() * g2.size(); ++idx) {
      core::MechanismConfig cfg;
      cfg.plant = base;
      info.set_gains(cfg, g1[idx / g2.size()], g2[idx % g2.size()]);
      const auto mech = core::make_fluid_mechanism(info.name, cfg);
      const auto lane =
          core::make_mechanism_verdict_lane(*mech, kGenericDuration);
      if (!lane) {
        batched = false;  // no lane form: fall back to the scalar path
        lanes.clear();
        break;
      }
      lanes.push_back(*lane);
    }
    if (batched) {
      const auto verdicts =
          core::batch_numeric_verdicts(lanes, {.threads = ctx.threads});
      cells.reserve(verdicts.size());
      for (const auto& v : verdicts) {
        cells.push_back({v.strongly_stable, v.max_x, v.min_x});
      }
    }
  }
  if (!batched) {
    cells = exec::parallel_map<Cell>(
        g1.size() * g2.size(),
        [&, d1 = d1, d2 = d2](std::size_t idx) {
          core::MechanismConfig cfg;
          cfg.plant = base;
          info.set_gains(cfg, g1[idx / g2.size()], g2[idx % g2.size()]);
          const auto mech = core::make_fluid_mechanism(info.name, cfg);
          const auto verdict =
              core::numeric_strong_stability(*mech, kGenericDuration);
          return Cell{verdict.strongly_stable, verdict.max_x, verdict.min_x};
        },
        {.threads = ctx.threads});
  }

  std::printf("\nmechanism: %s -- %s\n", info.name, info.summary);
  std::printf("map legend: generic numeric verdict per cell -- '#' bounded "
              "strictly inside the buffer strip, '.' not; columns %s="
              "%.4g..%.4g (log), rows %s=%.4g..%.4g (log)\n",
              info.gain2, g2.front(), g2.back(), info.gain1, g1.front(),
              g1.back());
  int stable = 0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < g1.size(); ++i) {
    std::printf("%s=%8.4g  ", info.gain1, g1[i]);
    for (std::size_t j = 0; j < g2.size(); ++j, ++idx) {
      stable += cells[idx].stable ? 1 : 0;
      std::fputc(cells[idx].stable ? '#' : '.', stdout);
    }
    std::fputc('\n', stdout);
  }
  std::printf("\n%d/%zu cells strongly stable (Theorem-1/Proposition "
              "columns are BCN-only and skipped for this mechanism)\n",
              stable, cells.size());

  CsvWriter csv({info.gain1, info.gain2, "numeric_stable", "max_x_bits",
                 "min_x_bits"});
  idx = 0;
  for (std::size_t i = 0; i < g1.size(); ++i) {
    for (std::size_t j = 0; j < g2.size(); ++j, ++idx) {
      csv.add_row({CsvWriter::format(g1[i]), CsvWriter::format(g2[j]),
                   cells[idx].stable ? "1" : "0",
                   CsvWriter::format(cells[idx].max_x),
                   CsvWriter::format(cells[idx].min_x)});
    }
  }
  const auto csv_path = ctx.out_dir / "propositions_stability_map.csv";
  if (csv.write_file(csv_path)) {
    std::printf("  [artifact] %s\n", csv_path.string().c_str());
  }
  return 0;
}

int run(bench::RunContext& ctx) {
  const int grid = ctx.args->get_count("grid", 9, 2);
  std::printf("=== Propositions 1-4: stability map ===\n");
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  bench::print_params(base);

  // Proposition 1: both subsystems Hurwitz-stable for any physical gains.
  const auto rep = control::analyze_linear_baseline(base.a(), base.b(),
                                                    base.k(), base.capacity);
  std::printf("\nProposition 1 (subsystem Hurwitz stability): increase %s, "
              "decrease %s\n",
              rep.increase.hurwitz_stable ? "stable" : "UNSTABLE",
              rep.decrease.hurwitz_stable ? "stable" : "UNSTABLE");

  // (Gi, Gd) map against the linearized numeric ground truth.
  if (ctx.mechanism != "bcn" && ctx.mechanism != "bcn-draft") {
    const auto* info = core::find_mechanism(ctx.mechanism);
    if (!info->has_fluid) {
      std::printf("\nmechanism '%s' is packet-only (no fluid facet); no "
                  "stability map to draw -- see bench/mechanism_matrix for "
                  "its packet-level behavior.\n",
                  info->name);
      return 0;
    }
    return run_generic_map(ctx, *info, base, grid);
  }
  const auto gi = analysis::logspace(0.125, 32.0, grid);
  const auto gd = analysis::logspace(1.0 / 1024.0, 0.5, grid);
  const auto map = analysis::compute_stability_map(
      base, gi, gd,
      {.numeric_level = core::ModelLevel::Linearized,
       .threads = ctx.threads,
       .mode = ctx.map_mode,
       .metrics = ctx.metrics});
  if (ctx.map_mode != analysis::MapMode::Scalar) {
    std::printf("\nmap mode %s: integrated %zu/%zu cells in %d wave(s)\n",
                analysis::to_string(ctx.map_mode).c_str(),
                map.integrated_cells, map.cells.size(),
                map.refinement_waves);
  }

  std::printf("\nmap legend: numeric ground truth per cell -- '#' strongly "
              "stable, '.' unstable; columns Gd=%.4g..%.4g (log), rows "
              "Gi=%.4g..%.4g (log)\n",
              gd.front(), gd.back(), gi.front(), gi.back());
  std::size_t idx = 0;
  for (std::size_t i = 0; i < gi.size(); ++i) {
    std::printf("Gi=%8.4g  ", gi[i]);
    for (std::size_t j = 0; j < gd.size(); ++j, ++idx) {
      std::fputc(map.cells[idx].numeric.strongly_stable ? '#' : '.', stdout);
    }
    std::fputc('\n', stdout);
  }

  TablePrinter agg({"criterion", "cells declared stable", "false positives "
                    "vs numeric"});
  agg.add_row({"Theorem 1 (sufficient)",
               TablePrinter::format(map.theorem1_stable),
               TablePrinter::format(map.theorem1_false_positive)});
  agg.add_row({"Propositions 2-4",
               TablePrinter::format(map.proposition_stable),
               TablePrinter::format(map.proposition_false_positive)});
  agg.add_row({"numeric ground truth",
               TablePrinter::format(map.numeric_stable), "0"});
  std::fputs(
      agg.to_string(strf("\naggregate over the %dx%d grid", grid, grid))
          .c_str(),
      stdout);

  std::printf("\nTheorem 1 soundness: %s (a sound sufficient criterion must "
              "have 0 false positives)\n",
              map.theorem1_false_positive == 0 ? "PASS" : "FAIL");

  // Case distribution across the grid.
  int case_counts[5] = {0, 0, 0, 0, 0};
  for (const auto& cell : map.cells) {
    case_counts[static_cast<int>(cell.report.classification.paper_case)]++;
  }
  std::printf("\ncase distribution: Case1=%d Case2=%d Case3=%d Case4=%d "
              "Case5=%d\n",
              case_counts[0], case_counts[1], case_counts[2], case_counts[3],
              case_counts[4]);

  // Per-cell CSV: the artifact the determinism acceptance check diffs
  // between --threads 1 and --threads 0 runs.
  CsvWriter csv({"gi", "gd", "paper_case", "theorem1_satisfied",
                 "proposition_satisfied", "numeric_stable", "max_x_bits",
                 "min_x_bits"});
  for (const auto& cell : map.cells) {
    csv.add_row({CsvWriter::format(cell.gi), CsvWriter::format(cell.gd),
                 core::to_string(cell.report.classification.paper_case),
                 cell.report.theorem1_satisfied ? "1" : "0",
                 cell.report.proposition_satisfied ? "1" : "0",
                 cell.numeric.strongly_stable ? "1" : "0",
                 CsvWriter::format(cell.numeric.max_x),
                 CsvWriter::format(cell.numeric.min_x)});
  }
  const auto csv_path = ctx.out_dir / "propositions_stability_map.csv";
  if (csv.write_file(csv_path)) {
    std::printf("  [artifact] %s\n", csv_path.string().c_str());
  }

  // --- Proposition 4 boundary probe -------------------------------------
  // The paper claims a = 4 pm^2 C^2 / w^2 (with any b) is unconditionally
  // strongly stable, reasoning that the switching line is then a phase
  // trajectory (lambda = -1/k).  But at the boundary lambda = -2/k, not
  // -1/k, so the trajectory still crosses into the decrease region and
  // overshoots; with a small buffer the overshoot overflows.
  core::BcnParams boundary = bench::scaled_plant();
  boundary.gi =
      boundary.spiral_threshold() / (boundary.ru * boundary.num_sources);
  boundary.gd = 10.0;       // b C = 1e7, well below the threshold
  boundary.buffer = 2.5e3;  // B - q0 = 1500 < the ~1764-bit overshoot
  boundary.qsc = 2.2e3;
  const auto cls = core::classify_case(boundary);
  const auto report = core::analyze_stability(boundary);
  const auto verdict = core::numeric_strong_stability(
      boundary, {.level = core::ModelLevel::Linearized});
  std::printf("\nProposition 4 a-boundary probe: %s | Prop.4 verdict: "
              "stable | numeric: %s (max_x=%.6g vs B-q0=%.6g)\n",
              core::to_string(cls.paper_case).c_str(),
              verdict.strongly_stable ? "strongly stable"
                                      : "NOT strongly stable",
              verdict.max_x, boundary.buffer - boundary.q0);
  std::printf("-> %s\n",
              verdict.strongly_stable
                  ? "no counterexample at these parameters"
                  : "COUNTEREXAMPLE: Proposition 4's a-boundary branch is "
                    "not unconditional (see EXPERIMENTS.md); Theorem 1 "
                    "itself remains sound");
  (void)report;
  return 0;
}

}  // namespace

BCN_EXPERIMENT("propositions_stability_map",
               "Propositions 1-4 + Theorem-1 soundness over a (Gi, Gd) grid",
               run, "grid")
