// E21 (extension): the mechanism matrix.
//
// Two sweeps over the congestion-control registry (core/mechanism.h):
//
//   1. Per-mechanism stability maps: every mechanism with a fluid facet
//      gets a 3x3 gain grid (its registry gain axes scaled by 0.5/1/2
//      around the defaults), each cell scored with the generic numeric
//      phase-plane verdict (bounded strictly inside the buffer strip).
//   2. Heterogeneous competition: mechanism A vs mechanism B sharing one
//      bottleneck, in both layers -- the 3-state fluid competition model
//      (analysis/competition.h) and the packet simulator with a split
//      source population -- reporting boundedness, tail oscillation, and
//      share-normalized Jain fairness per pair.
//
// Artifact: BENCH_mechanism_matrix.json -- flat numeric keys, fully
// deterministic (byte-identical across runs and thread counts), so CI
// can self-diff it with bcn_bench_diff at threshold 0.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/competition.h"
#include "bench_util.h"
#include "common/format.h"
#include "common/json.h"
#include "common/table.h"
#include "core/mechanism.h"
#include "core/stability.h"
#include "exec/parallel_for.h"
#include "runner.h"
#include "sim/network.h"

using namespace bcn;

namespace {

constexpr double kGainFactors[] = {0.5, 1.0, 2.0};
constexpr double kVerdictDuration = 0.01;  // seconds
constexpr double kPacketDuration = 0.04;   // seconds

core::BcnParams slow_regime() {
  core::BcnParams p;
  p.num_sources = 8;
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

struct MapCell {
  double g1 = 0.0;
  double g2 = 0.0;
  bool stable = false;
  double max_x = 0.0;
};

// The 3x3 gain grid for one fluid mechanism, cells in row-major
// (g1-major) order.
std::vector<MapCell> stability_map(const core::MechanismInfo& info,
                                   int threads) {
  core::MechanismConfig base;
  base.plant = slow_regime();
  const auto [d1, d2] = info.default_gains(base);
  return exec::parallel_map<MapCell>(
      std::size(kGainFactors) * std::size(kGainFactors),
      [&, d1 = d1, d2 = d2](std::size_t i) {
        MapCell cell;
        cell.g1 = d1 * kGainFactors[i / std::size(kGainFactors)];
        cell.g2 = d2 * kGainFactors[i % std::size(kGainFactors)];
        core::MechanismConfig cfg = base;
        info.set_gains(cfg, cell.g1, cell.g2);
        const auto mech = core::make_fluid_mechanism(info.name, cfg);
        const auto verdict =
            core::numeric_strong_stability(*mech, kVerdictDuration);
        cell.stable = verdict.strongly_stable;
        cell.max_x = verdict.max_x;
        return cell;
      },
      {.threads = threads});
}

struct PacketCompetition {
  double rate_a = 0.0;  // mean final per-source rate, group A [bits/s]
  double rate_b = 0.0;
  double fairness = 0.0;  // Jain over the share-normalized group rates
  double peak_queue = 0.0;
  double tail_p2p = 0.0;
  std::uint64_t drops = 0;
};

PacketCompetition run_packet_competition(const char* mech_a,
                                         const char* mech_b,
                                         const sim::FaultPlan& faults) {
  sim::NetworkConfig cfg;
  cfg.params = slow_regime();
  cfg.mechanism = mech_a;
  cfg.mechanism_b = mech_b;
  cfg.sources_b = 4;  // 4 vs 4 of the 8 sources
  cfg.initial_rate = cfg.params.capacity / cfg.params.num_sources;
  cfg.record_interval = 20 * sim::kMicrosecond;
  cfg.record_timelines = false;
  cfg.faults = faults;
  sim::Network net(cfg);
  net.run(sim::from_seconds(kPacketDuration));
  const auto& st = net.stats();

  PacketCompetition r;
  const std::size_t n = net.sources().size();
  const std::size_t first_b = n - cfg.sources_b;
  for (std::size_t i = 0; i < n; ++i) {
    (i < first_b ? r.rate_a : r.rate_b) += net.sources()[i]->rate();
  }
  r.rate_a /= static_cast<double>(first_b);
  r.rate_b /= static_cast<double>(n - first_b);
  // Both groups hold 4 of 8 sources, so the share-normalized Jain index
  // reduces to Jain over the two group means.
  const double s = r.rate_a + r.rate_b;
  const double sq = r.rate_a * r.rate_a + r.rate_b * r.rate_b;
  r.fairness = sq > 0.0 ? s * s / (2.0 * sq) : 0.0;
  r.peak_queue = st.max_queue();
  double lo = 1e18, hi = -1e18;
  for (const auto& tp : st.trace()) {
    if (sim::to_seconds(tp.t) < kPacketDuration / 2) continue;
    lo = std::min(lo, tp.queue_bits);
    hi = std::max(hi, tp.queue_bits);
  }
  r.tail_p2p = hi > lo ? hi - lo : 0.0;
  r.drops = st.counters.frames_dropped;
  return r;
}

int run(bench::RunContext& ctx) {
  std::printf("=== E21: mechanism matrix ===\n");
  const core::BcnParams p = slow_regime();
  bench::print_params(p);

  JsonWriter json;
  json.add("benchmark", "mechanism_matrix");
  json.add("gain_factors", 3.0);

  // --- per-mechanism stability maps --------------------------------------
  TablePrinter map_table(
      {"mechanism", "gain axes", "stable cells", "solo verdict",
       "solo peak q (Mbit)"});
  for (const auto& info : core::mechanism_registry()) {
    if (!info.has_fluid) continue;
    const auto cells = stability_map(info, ctx.threads);
    int stable = 0;
    for (const auto& c : cells) stable += c.stable ? 1 : 0;
    const std::string prefix = strf("map.%s.", info.name);
    json.add(prefix + "stable_cells", static_cast<std::int64_t>(stable));
    json.add(prefix + "cells", static_cast<std::int64_t>(cells.size()));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::string cp = strf("%scell%zu.", prefix.c_str(), i);
      json.add(cp + "g1", cells[i].g1);
      json.add(cp + "g2", cells[i].g2);
      json.add(cp + "stable", static_cast<std::int64_t>(cells[i].stable));
    }

    // Solo verdict at the registry defaults (the center cell).
    core::MechanismConfig base;
    base.plant = p;
    const auto mech = core::make_fluid_mechanism(info.name, base);
    const auto solo = core::numeric_strong_stability(*mech, kVerdictDuration);
    json.add(prefix + "solo_stable",
             static_cast<std::int64_t>(solo.strongly_stable));
    json.add(prefix + "solo_max_x_bits", solo.max_x);
    map_table.add_row(
        {info.name, strf("%s x %s", info.gain1, info.gain2),
         strf("%d/%zu", stable, cells.size()),
         solo.strongly_stable ? "bounded in strip" : "LEAVES STRIP",
         TablePrinter::format((solo.max_x + p.q0) / 1e6, 4)});
  }
  std::fputs(
      map_table.to_string("per-mechanism 3x3 gain maps (fluid facet)")
          .c_str(),
      stdout);

  // --- heterogeneous competition -----------------------------------------
  const std::pair<const char*, const char*> pairs[] = {
      {"bcn", "bcn"},  // homogeneous control
      {"bcn", "qcn"},
      {"bcn", "rcp"},
      {"qcn", "rcp"},
  };

  TablePrinter comp(
      {"pair", "layer", "bounded", "fairness", "tail p2p (Mbit)",
       "rate A (Gbps)", "rate B (Gbps)", "drops"});
  for (const auto& [a, b] : pairs) {
    const std::string key = strf("comp.%s_vs_%s.", a, b);

    core::MechanismConfig base;
    base.plant = p;
    analysis::CompetitionOptions copts;
    copts.duration = kPacketDuration;
    const auto fluid = analysis::simulate_fluid_competition(a, b, base, copts);
    json.add(key + "fluid.bounded",
             static_cast<std::int64_t>(fluid.bounded));
    json.add(key + "fluid.fairness", fluid.fairness);
    json.add(key + "fluid.tail_p2p_bits", fluid.tail_x_p2p);
    json.add(key + "fluid.tail_queue_mean_bits", fluid.tail_queue_mean);
    json.add(key + "fluid.tail_rate_a_bps", fluid.tail_rate_a);
    json.add(key + "fluid.tail_rate_b_bps", fluid.tail_rate_b);
    comp.add_row({strf("%s vs %s", a, b), "fluid",
                  fluid.bounded ? "yes" : "NO",
                  TablePrinter::format(fluid.fairness, 4),
                  TablePrinter::format(fluid.tail_x_p2p / 1e6, 4),
                  TablePrinter::format(fluid.tail_rate_a / 1e9, 4),
                  TablePrinter::format(fluid.tail_rate_b / 1e9, 4), "-"});

    const auto pkt = run_packet_competition(a, b, ctx.faults);
    json.add(key + "packet.fairness", pkt.fairness);
    json.add(key + "packet.peak_queue_bits", pkt.peak_queue);
    json.add(key + "packet.tail_p2p_bits", pkt.tail_p2p);
    json.add(key + "packet.rate_a_bps", pkt.rate_a);
    json.add(key + "packet.rate_b_bps", pkt.rate_b);
    json.add(key + "packet.frames_dropped",
             static_cast<std::int64_t>(pkt.drops));
    comp.add_row({strf("%s vs %s", a, b), "packet",
                  pkt.drops == 0 ? "yes" : "NO",
                  TablePrinter::format(pkt.fairness, 4),
                  TablePrinter::format(pkt.tail_p2p / 1e6, 4),
                  TablePrinter::format(pkt.rate_a * 4.0 / 1e9, 4),
                  TablePrinter::format(pkt.rate_b * 4.0 / 1e9, 4),
                  TablePrinter::format(static_cast<double>(pkt.drops))});
  }
  std::fputs(
      comp.to_string("mechanism A vs B on one bottleneck (4 + 4 sources)")
          .c_str(),
      stdout);

  const auto path = bench::output_dir() / "BENCH_mechanism_matrix.json";
  if (json.write_file(path)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  }

  std::printf("\nReading: homogeneous BCN is the fairness baseline (Jain "
              "~1, both layers).  Mixing disciplines skews the split: "
              "QCN loses to BCN because its quantized multiplicative cuts "
              "are drastic while its fixed R_AI recovery is slow, so BCN's "
              "proportional AIMD re-absorbs the headroom first; RCP's "
              "capacity-seeking advert wins the packet transient against "
              "either AIMD group (it jumps straight to the rate that "
              "fills the link) even though its fluid limit shares almost "
              "fairly.  The phase-plane verdict survives every pairing: "
              "bounded inside the buffer strip, zero drops, queue pinned "
              "near q0 -- heterogeneity costs fairness, not stability.\n");
  return 0;
}

}  // namespace

BCN_EXPERIMENT("mechanism_matrix",
               "E21: per-mechanism gain maps + heterogeneous competition "
               "(fluid + packet)",
               run)
