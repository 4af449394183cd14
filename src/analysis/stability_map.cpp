#include "analysis/stability_map.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "core/batch_verdict.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/tracing.h"

namespace bcn::analysis {
namespace {

// The analytic half of every cell (classification, Propositions,
// Theorem 1) — shared by all modes; the numeric half is filled in by the
// mode-specific passes below.  Each cell's report equals
// analyze_stability of its plant to the bit, from per-axis pieces: the
// decrease flow of each column once per map, and in each row's task the
// increase flow and round 0 once, from which every cell finishes its
// walk.
std::vector<MapCell> analytic_cells(const core::BcnParams& base,
                                    const std::vector<double>& gi_values,
                                    const std::vector<double>& gd_values,
                                    int threads) {
  const std::size_t rows = gi_values.size();
  const std::size_t cols = gd_values.size();
  std::vector<MapCell> cells(rows * cols);
  if (cells.empty()) return cells;
  const auto plant = [&](double gi, double gd) {
    core::BcnParams p = base;
    p.gi = gi;
    p.gd = gd;
    return p;
  };
  // Column j's tracer is cell (0, j)'s and row i's is cell (i, 0)'s; both
  // check their plants, which covers every field of cell (i, j)'s.
  std::vector<core::AnalyticTracer> columns;
  columns.reserve(cols);
  for (const double gd : gd_values) {
    columns.emplace_back(plant(gi_values[0], gd));
  }
  exec::parallel_for(
      rows,
      [&](std::size_t i) {
        const core::AnalyticTracer row(plant(gi_values[i], gd_values[0]));
        const core::FirstRound first = row.first_round();
        for (std::size_t j = 0; j < cols; ++j) {
          MapCell& cell = cells[i * cols + j];
          cell.gi = gi_values[i];
          cell.gd = gd_values[j];
          cell.report = core::analyze_stability(
              plant(cell.gi, cell.gd), row.extrema(first, columns[j]));
        }
      },
      {.threads = threads});
  return cells;
}

core::VerdictLane cell_lane(const core::BcnParams& base, double gi, double gd,
                            const StabilityMapOptions& options) {
  core::BcnParams p = base;
  p.gi = gi;
  p.gd = gd;
  return core::make_bcn_verdict_lane(p, options.numeric_level,
                                     options.numeric_duration);
}

void accumulate_aggregates(StabilityMap& map) {
  for (const MapCell& cell : map.cells) {
    if (cell.report.theorem1_satisfied) ++map.theorem1_stable;
    if (cell.numeric.strongly_stable) ++map.numeric_stable;
    if (cell.report.proposition_satisfied) ++map.proposition_stable;
    if (cell.report.theorem1_satisfied && !cell.numeric.strongly_stable) {
      ++map.theorem1_false_positive;
    }
    if (cell.report.proposition_satisfied && !cell.numeric.strongly_stable) {
      ++map.proposition_false_positive;
    }
  }
}

// --- adaptive refinement ----------------------------------------------------
//
// Level-synchronous quadtree over the cell grid.  Level 0 tiles the grid
// with stride-sized blocks; each level classifies every block by its four
// corner verdicts and refines blocks that mix (or touch a mixing block —
// the one-block margin that catches boundary wiggles between corners),
// sampling the subdivision midpoints in one batched wave per level.
// Blocks that stay uniform fill their unsampled interior from a corner
// without integrating it.
void adaptive_numeric(const core::BcnParams& base, StabilityMap& map,
                      const StabilityMapOptions& options) {
  const int rows = static_cast<int>(map.gi_values.size());
  const int cols = static_cast<int>(map.gd_values.size());
  const std::size_t total = static_cast<std::size_t>(rows) * cols;
  const auto cell_id = [cols](int i, int j) {
    return static_cast<std::size_t>(i) * cols + j;
  };

  int stride = options.initial_stride;
  if (stride <= 0) {
    const int target = (std::max(rows, cols) - 1) / 8;
    stride = 1;
    while (stride * 2 <= target) stride *= 2;
  }

  std::vector<std::int8_t> verdict(total, -1);  // -1 unsampled, else 0/1
  std::vector<std::uint8_t> sampled(total, 0);  // sampled or queued
  std::vector<std::int32_t> fill_src(total, -1);

  core::BatchVerdictOptions bopts;
  bopts.oversample = options.oversample;
  bopts.threads = options.threads;

  std::vector<std::size_t> pending;
  const auto enqueue = [&](int i, int j) {
    const std::size_t id = cell_id(i, j);
    if (!sampled[id]) {
      sampled[id] = 1;
      pending.push_back(id);
    }
  };
  const auto run_wave = [&]() {
    if (pending.empty()) return;
    obs::TraceSpan span("analysis.map_wave");
    span.arg("wave", map.refinement_waves);
    span.arg("lanes", static_cast<double>(pending.size()));
    std::vector<core::VerdictLane> lanes;
    lanes.reserve(pending.size());
    for (const std::size_t id : pending) {
      lanes.push_back(cell_lane(base, map.gi_values[id / cols],
                                map.gd_values[id % cols], options));
    }
    const auto verdicts = core::batch_numeric_verdicts(lanes, bopts);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      map.cells[pending[k]].numeric = verdicts[k];
      map.cells[pending[k]].integrated = true;
      verdict[pending[k]] = verdicts[k].strongly_stable ? 1 : 0;
    }
    map.integrated_cells += pending.size();
    map.wave_cells.push_back(pending.size());
    ++map.refinement_waves;
    if (options.metrics) {
      options.metrics->counter("map.waves").inc();
      options.metrics->counter("map.cells_integrated").inc(pending.size());
      options.metrics->gauge("map.max_wave_lanes")
          .set_max(static_cast<double>(pending.size()));
    }
    pending.clear();
  };

  // A block spans cells [i0, i1] x [j0, j1]; (bi, bj) is its position on
  // the current level's block grid, used for neighbor lookups.
  struct Block {
    int i0, i1, j0, j1, bi, bj;
  };
  const auto axis_origins = [](int n, int s) {
    std::vector<int> v;
    if (n <= 1) {
      v.push_back(0);
      return v;
    }
    for (int o = 0; o + 1 < n; o += s) v.push_back(o);
    return v;
  };
  std::vector<Block> blocks;
  {
    const auto is = axis_origins(rows, stride);
    const auto js = axis_origins(cols, stride);
    for (int a = 0; a < static_cast<int>(is.size()); ++a) {
      for (int b = 0; b < static_cast<int>(js.size()); ++b) {
        blocks.push_back({is[a],
                          rows <= 1 ? 0 : std::min(is[a] + stride, rows - 1),
                          js[b],
                          cols <= 1 ? 0 : std::min(js[b] + stride, cols - 1),
                          a, b});
      }
    }
  }

  for (const Block& b : blocks) {
    enqueue(b.i0, b.j0);
    enqueue(b.i0, b.j1);
    enqueue(b.i1, b.j0);
    enqueue(b.i1, b.j1);
  }
  run_wave();

  const auto neighbor_key = [](int bi, int bj) {
    // bi/bj are small non-negative block coordinates; bias by 1 so the
    // -1 lookups at the grid edge stay in range.
    return (static_cast<std::uint64_t>(bi + 1) << 32) |
           static_cast<std::uint32_t>(bj + 1);
  };

  while (!blocks.empty()) {
    const int nb = static_cast<int>(blocks.size());
    std::vector<std::uint8_t> mixed(nb, 0);
    std::unordered_map<std::uint64_t, int> pos;
    pos.reserve(static_cast<std::size_t>(nb) * 2);
    for (int bdx = 0; bdx < nb; ++bdx) {
      const Block& b = blocks[bdx];
      const std::int8_t v = verdict[cell_id(b.i0, b.j0)];
      mixed[bdx] = v != verdict[cell_id(b.i0, b.j1)] ||
                   v != verdict[cell_id(b.i1, b.j0)] ||
                   v != verdict[cell_id(b.i1, b.j1)];
      pos.emplace(neighbor_key(b.bi, b.bj), bdx);
    }

    std::vector<Block> next;
    for (int bdx = 0; bdx < nb; ++bdx) {
      const Block& b = blocks[bdx];
      bool refine = mixed[bdx] != 0;
      for (int di = -1; di <= 1 && !refine; ++di) {
        for (int dj = -1; dj <= 1 && !refine; ++dj) {
          if (di == 0 && dj == 0) continue;
          const auto it = pos.find(neighbor_key(b.bi + di, b.bj + dj));
          if (it != pos.end() && mixed[it->second]) refine = true;
        }
      }
      const bool can_i = b.i1 - b.i0 > 1;
      const bool can_j = b.j1 - b.j0 > 1;
      if (refine && (can_i || can_j)) {
        const int mi = can_i ? (b.i0 + b.i1) / 2 : b.i1;
        const int mj = can_j ? (b.j0 + b.j1) / 2 : b.j1;
        const int ni = can_i ? 2 : 1;
        const int nj = can_j ? 2 : 1;
        for (int ci = 0; ci < ni; ++ci) {
          for (int cj = 0; cj < nj; ++cj) {
            Block child;
            child.i0 = ci == 0 ? b.i0 : mi;
            child.i1 = ci == 0 ? mi : b.i1;
            child.j0 = cj == 0 ? b.j0 : mj;
            child.j1 = cj == 0 ? mj : b.j1;
            child.bi = 2 * b.bi + ci;
            child.bj = 2 * b.bj + cj;
            next.push_back(child);
            enqueue(child.i0, child.j0);
            enqueue(child.i0, child.j1);
            enqueue(child.i1, child.j0);
            enqueue(child.i1, child.j1);
          }
        }
      } else if (!mixed[bdx]) {
        // Uniform and unrefined: the interior inherits the corner
        // verdict.  (A mixed-but-unsplittable block is all corners, so
        // everything in it is already sampled.)
        const auto src = static_cast<std::int32_t>(cell_id(b.i0, b.j0));
        for (int i = b.i0; i <= b.i1; ++i) {
          for (int j = b.j0; j <= b.j1; ++j) {
            const std::size_t id = cell_id(i, j);
            if (!sampled[id] && fill_src[id] < 0) {
              fill_src[id] = src;
            }
          }
        }
      }
    }
    blocks.swap(next);
    run_wave();
  }

  // Apply the recorded fills; any cell neither sampled nor covered by a
  // uniform block (possible only if a fill source was itself sampled to
  // a different verdict later — not in the current scheme, but cheap to
  // keep airtight) is integrated directly in one last wave.
  for (std::size_t id = 0; id < total; ++id) {
    if (sampled[id]) continue;
    if (fill_src[id] >= 0) {
      map.cells[id].numeric = map.cells[fill_src[id]].numeric;
      map.cells[id].integrated = false;
    } else {
      enqueue(static_cast<int>(id / cols), static_cast<int>(id % cols));
    }
  }
  run_wave();
}

}  // namespace

std::string to_string(MapMode mode) {
  switch (mode) {
    case MapMode::Scalar:
      return "scalar";
    case MapMode::Batch:
      return "batch";
    case MapMode::Adaptive:
      return "adaptive";
  }
  return "scalar";
}

bool parse_map_mode(std::string_view text, MapMode* mode) {
  if (text == "scalar") {
    *mode = MapMode::Scalar;
  } else if (text == "batch") {
    *mode = MapMode::Batch;
  } else if (text == "adaptive") {
    *mode = MapMode::Adaptive;
  } else {
    return false;
  }
  return true;
}

StabilityMap compute_stability_map(const core::BcnParams& base,
                                   const std::vector<double>& gi_values,
                                   const std::vector<double>& gd_values,
                                   const StabilityMapOptions& options) {
  StabilityMap map;
  map.gi_values = gi_values;
  map.gd_values = gd_values;

  // Clipped dynamics have buffer walls outside the batched lane family.
  const MapMode mode = options.numeric_level == core::ModelLevel::Clipped
                           ? MapMode::Scalar
                           : options.mode;
  map.mode = mode;

  obs::TraceSpan span("analysis.stability_map");
  span.arg("cells", static_cast<double>(gi_values.size() * gd_values.size()));
  span.arg("threads", options.threads);
  span.arg("mode", static_cast<double>(mode));

  if (mode == MapMode::Scalar) {
    core::NumericVerdictOptions nopts;
    nopts.level = options.numeric_level;
    nopts.duration = options.numeric_duration;

    // Row-major grid, one independent task per cell; parallel_map places
    // cell (i, j) at index i * |gd| + j whatever the thread count, so the
    // parallel map is cell-for-cell identical to the serial one.
    const std::size_t cols = gd_values.size();
    exec::ParallelForOptions popts;
    popts.threads = options.threads;
    map.cells = exec::parallel_map<MapCell>(
        gi_values.size() * cols,
        [&](std::size_t idx) {
          obs::TraceSpan cell_span("analysis.map_cell");
          MapCell cell;
          cell.gi = gi_values[idx / cols];
          cell.gd = gd_values[idx % cols];
          core::BcnParams p = base;
          p.gi = cell.gi;
          p.gd = cell.gd;
          cell.report = core::analyze_stability(p);
          cell.numeric = core::numeric_strong_stability(p, nopts);
          return cell;
        },
        popts);
    map.integrated_cells = map.cells.size();
  } else {
    map.cells = analytic_cells(base, gi_values, gd_values, options.threads);
    if (mode == MapMode::Batch) {
      std::vector<core::VerdictLane> lanes;
      lanes.reserve(map.cells.size());
      for (const MapCell& cell : map.cells) {
        lanes.push_back(cell_lane(base, cell.gi, cell.gd, options));
      }
      core::BatchVerdictOptions bopts;
      bopts.oversample = options.oversample;
      bopts.threads = options.threads;
      const auto verdicts = core::batch_numeric_verdicts(lanes, bopts);
      for (std::size_t i = 0; i < map.cells.size(); ++i) {
        map.cells[i].numeric = verdicts[i];
      }
      map.integrated_cells = map.cells.size();
      map.refinement_waves = 1;
      map.wave_cells.push_back(map.cells.size());
    } else {
      adaptive_numeric(base, map, options);
    }
  }

  accumulate_aggregates(map);
  return map;
}

}  // namespace bcn::analysis
