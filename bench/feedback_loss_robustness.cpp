// E20 (extension): robustness of the BCN loop to feedback loss.
//
// The fluid model -- and the paper's phase-plane taxonomy built on it --
// assumes every sigma notification reaches its rate regulator.  This
// bench degrades that assumption with the fault-injection layer
// (sim/faults.h): it sweeps the BCN-loss probability across three gain
// settings (draft, high-Gi, heavy sigma weight) and measures how the
// queue excursion, tail oscillation amplitude, and delivered throughput
// degrade versus the lossless baseline of the same gains.  Lost negative
// feedback lets the queue overshoot further before the loop reacts; lost
// positive feedback slows recovery -- both stretch the limit cycle the
// taxonomy predicts for the operating point.
//
// Artifacts: BENCH_feedback_loss.json (per-cell metrics, keyed
// "<gains>.p<loss>.*" -- deterministic, byte-identical across runs of
// the same plan) and feedback_loss_timelines.csv / _events.csv for the
// representative draft-gain p=0.3 run.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/crossval.h"
#include "bench_util.h"
#include "common/format.h"
#include "common/json.h"
#include "common/table.h"
#include "exec/parallel_for.h"
#include "runner.h"
#include "sim/network.h"

using namespace bcn;

namespace {

struct GainSetting {
  const char* name;
  double gi;
  double gd;
  double w;
};

constexpr GainSetting kGains[] = {
    {"draft", 0.5, 1.0 / 128.0, 2.0},
    {"high_gi", 2.0, 1.0 / 128.0, 2.0},
    {"heavy_w", 0.5, 1.0 / 128.0, 8.0},
};

constexpr double kLossRates[] = {0.0, 0.1, 0.3, 0.5};
constexpr double kDuration = 0.04;  // seconds

struct CellResult {
  double peak_queue = 0.0;       // bits
  double tail_p2p = 0.0;         // tail peak-to-peak queue swing [bits]
  double throughput = 0.0;       // bits/s
  std::uint64_t drops = 0;
  std::uint64_t bcn_dropped = 0;
  std::uint64_t bcn_sent = 0;
};

core::BcnParams cell_params(const GainSetting& g) {
  core::BcnParams p;
  p.num_sources = 5;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.pm = 0.2;
  p.ru = 8e6;
  p.gi = g.gi;
  p.gd = g.gd;
  p.w = g.w;
  return p;
}

sim::NetworkConfig cell_config(const GainSetting& g, double loss,
                               const sim::FaultPlan& base) {
  sim::NetworkConfig cfg;
  cfg.params = cell_params(g);
  cfg.initial_rate = cfg.params.capacity / cfg.params.num_sources;
  cfg.record_interval = 20 * sim::kMicrosecond;
  cfg.record_timelines = false;
  // The sweep owns the BCN-loss axis; everything else (seed, extra fault
  // classes) comes from --faults so a custom plan composes with the grid.
  cfg.faults = base;
  cfg.faults.bcn_drop_p = loss;
  return cfg;
}

CellResult run_cell(const sim::NetworkConfig& cfg) {
  sim::Network net(cfg);
  net.run(sim::from_seconds(kDuration));
  const auto& st = net.stats();

  CellResult r;
  r.peak_queue = st.max_queue();
  double lo = 1e18, hi = -1e18;
  for (const auto& tp : st.trace()) {
    if (sim::to_seconds(tp.t) < kDuration / 2) continue;
    lo = std::min(lo, tp.queue_bits);
    hi = std::max(hi, tp.queue_bits);
  }
  r.tail_p2p = hi > lo ? hi - lo : 0.0;
  r.throughput = st.throughput(sim::from_seconds(kDuration));
  r.drops = st.counters.frames_dropped;
  r.bcn_dropped = net.fault_counters().bcn_dropped;
  r.bcn_sent = st.counters.bcn_negative + st.counters.bcn_positive;
  return r;
}

int run(bench::RunContext& ctx) {
  // Read first, so a malformed value stops the run before the sweep.
  const double initial_rate = ctx.args->get_double(
      "initial-rate", cell_config(kGains[0], 0.3, ctx.faults).initial_rate);
  std::printf("=== E20: feedback-loss robustness ===\n");
  std::printf("BCN-loss probability x (Gi, Gd, w) on the single-bottleneck "
              "network (N = 5, C = 10 Gbps, %.0f ms); fault seed %llu.\n\n",
              kDuration * 1e3,
              static_cast<unsigned long long>(ctx.faults.seed));

  constexpr std::size_t kNumGains = std::size(kGains);
  constexpr std::size_t kNumLoss = std::size(kLossRates);

  // One independent simulation per (gains, loss) cell; parallel_map keeps
  // the output index-ordered, so the artifact is thread-count invariant.
  const auto cells = exec::parallel_map<CellResult>(
      kNumGains * kNumLoss,
      [&](std::size_t i) {
        const GainSetting& g = kGains[i / kNumLoss];
        const double loss = kLossRates[i % kNumLoss];
        return run_cell(cell_config(g, loss, ctx.faults));
      },
      {.threads = ctx.threads});

  JsonWriter json;
  json.add("benchmark", "feedback_loss");
  json.add("duration_seconds", kDuration);
  json.add("fault_seed", static_cast<std::int64_t>(ctx.faults.seed));
  TablePrinter table({"gains", "loss p", "BCN lost/sent", "peak q (Mbit)",
                      "tail p2p (Mbit)", "thpt (Gbps)", "drops",
                      "peak vs lossless"});
  for (std::size_t gi = 0; gi < kNumGains; ++gi) {
    const CellResult& lossless = cells[gi * kNumLoss];
    for (std::size_t li = 0; li < kNumLoss; ++li) {
      const CellResult& c = cells[gi * kNumLoss + li];
      const double peak_ratio =
          lossless.peak_queue > 0.0 ? c.peak_queue / lossless.peak_queue : 0.0;
      const std::string key =
          strf("%s.p%02.0f.", kGains[gi].name, kLossRates[li] * 100.0);
      json.add(key + "peak_queue_bits", c.peak_queue);
      json.add(key + "tail_p2p_bits", c.tail_p2p);
      json.add(key + "throughput_bps", c.throughput);
      json.add(key + "frames_dropped", static_cast<std::int64_t>(c.drops));
      json.add(key + "bcn_dropped", static_cast<std::int64_t>(c.bcn_dropped));
      json.add(key + "peak_queue_vs_lossless", peak_ratio);
      table.add_row({kGains[gi].name,
                     TablePrinter::format(kLossRates[li], 2),
                     strf("%llu/%llu",
                          static_cast<unsigned long long>(c.bcn_dropped),
                          static_cast<unsigned long long>(c.bcn_sent)),
                     TablePrinter::format(c.peak_queue / 1e6, 4),
                     TablePrinter::format(c.tail_p2p / 1e6, 4),
                     TablePrinter::format(c.throughput / 1e9, 4),
                     TablePrinter::format(static_cast<double>(c.drops)),
                     TablePrinter::format(peak_ratio, 3)});
    }
  }
  std::fputs(table.to_string("feedback-loss sweep").c_str(), stdout);

  const auto path = bench::output_dir() / "BENCH_feedback_loss.json";
  if (json.write_file(path)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  }

  // Representative degraded run (draft gains, 30%% loss) with timelines
  // and the causal event trace: fault_bcn_dropped rows mark exactly which
  // notifications never closed their Sent -> Applied pair.  When --faults
  // carries its own bcn_drop the plan wins over the sweep default, so
  // `--faults bcn_drop=1` turns this into the total-feedback-blackout
  // post-mortem scenario from EXPERIMENTS.md.
  sim::NetworkConfig rep = cell_config(kGains[0], 0.3, ctx.faults);
  if (ctx.faults.bcn_drop_p > 0.0) rep.faults.bcn_drop_p = ctx.faults.bcn_drop_p;
  rep.record_timelines = true;
  rep.mechanism = ctx.mechanism;
  // --initial-rate overrides the per-source start (bits/s).  The default
  // C/N is the fluid analysis start; starting above the fair share turns
  // feedback loss into a genuine blow-up (the queue climbs to qsc and
  // PAUSE storms), which is what the monitors' crosscheck is for.
  rep.initial_rate = initial_rate;
  rep.monitors = ctx.monitors;
  if (rep.monitors.spec.any()) {
    rep.monitors.fluid_strongly_stable =
        analysis::fluid_stability_hint(rep.params, rep.mechanism);
  }
  sim::Network net(rep);
  net.run(sim::from_seconds(kDuration));
  bench::record_sim_metrics(net.stats(), ctx.metrics);
  if (ctx.metrics) {
    net.simulator().export_metrics(*ctx.metrics);
    sim::export_fault_metrics(net.fault_counters(), *ctx.metrics);
  }
  bench::record_monitor_metrics(net.monitor(), ctx.metrics);
  bench::export_observability(net.stats(), "feedback_loss");

  std::printf("\nReading: the sigma loop is strikingly loss-tolerant -- the "
              "1/pm sampling emits thousands of notifications per "
              "transient, so even 50%% loss leaves enough surviving "
              "feedback to place the equilibrium and hold throughput at "
              "capacity.  The damage shows up in the tail: the "
              "steady-state oscillation band widens with the loss rate "
              "(each lost negative lets the queue wander further before "
              "the next surviving sample corrects it), and the high-Gi "
              "setting pays the most peak-queue variance because each "
              "surviving positive message steps harder into the backlog.  "
              "Feedback loss degrades regulation precision long before it "
              "threatens stability -- consistent with the redundancy "
              "argument for per-frame sampling.\n");
  return 0;
}

}  // namespace

BCN_EXPERIMENT("feedback_loss_robustness",
               "E20: queue/oscillation degradation under BCN feedback loss",
               run, "initial-rate")
