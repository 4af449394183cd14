#include "runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/json.h"
#include "core/mechanism.h"
#include "exec/thread_pool.h"
#include "obs/tracing.h"
#include "sim/shard/engine.h"

namespace bcn::bench {
namespace {

std::vector<Experiment>& registry() {
  static std::vector<Experiment> experiments;
  return experiments;
}

const std::vector<std::string> kStandardFlags = {
    "help", "list", "run", "threads", "out", "seed", "json", "trace",
    "faults", "mechanism", "map-mode", "monitors", "shards"};

void print_usage(const char* prog) {
  std::printf(
      "usage: %s [--run name] [--threads n] [--out dir] [--seed n]\n"
      "          [--json bool] [--trace file] [--list] [--help]\n\n"
      "  --threads n   worker threads for parallel sweeps (0 = all\n"
      "                hardware threads, 1 = serial; BCN_THREADS env\n"
      "                fallback)\n"
      "  --out dir     artifact directory (BCN_BENCH_OUT env fallback,\n"
      "                default ./bench_out)\n"
      "  --seed n      seed for randomized scenarios (default 0)\n"
      "  --json bool   write RUN_<name>.json per experiment (default on)\n"
      "  --trace file  record wall-clock spans and write a Chrome\n"
      "                trace-event JSON there (BCN_TRACE env fallback);\n"
      "                the per-experiment self-profile lands in\n"
      "                RUN_<name>.json under profile.*\n"
      "  --run name    run one registered experiment (default: all)\n"
      "  --faults spec inject deterministic faults into packet-simulator\n"
      "                experiments (BCN_FAULTS env fallback); see\n"
      "                docs/FAULTS.md, e.g. --faults bcn_drop=0.2,seed=7\n"
      "  --mechanism m congestion-control mechanism for experiments that\n"
      "                honor it (default bcn); --mechanism list to\n"
      "                enumerate the registry\n"
      "  --map-mode m  stability-map execution strategy for experiments\n"
      "                that compute maps: scalar (default; the legacy\n"
      "                per-cell path), batch (SoA batched integrator), or\n"
      "                adaptive (batched + quadtree boundary refinement)\n"
      "  --shards n    simulator shards for sharded-fabric experiments\n"
      "                (BCN_SHARDS env fallback; default 1, 0 = all\n"
      "                hardware threads; at most one shard per switch\n"
      "                runs; results are shard-invariant)\n"
      "  --monitors s  arm runtime invariant monitors + the flight\n"
      "                recorder on packet-simulator experiments\n"
      "                (BCN_MONITORS env fallback); a violation dumps a\n"
      "                POSTMORTEM_<invariant>.json bundle into --out and\n"
      "                exits with code 3.  e.g. --monitors all or\n"
      "                --monitors queue_bounds,watchdog,window=2ms\n"
      "  --list        list registered experiments and exit\n\n"
      "experiments:\n",
      prog);
  for (const auto& e : experiments()) {
    std::printf("  %-32s %s\n", e.name.c_str(), e.description.c_str());
    for (const auto& flag : e.extra_flags) {
      std::printf("  %-32s   accepts --%s\n", "", flag.c_str());
    }
  }
}

int run_selected(const ArgParser& args, const char* prog) {
  if (args.get_bool("help")) {
    print_usage(prog);
    return 0;
  }
  if (args.get_bool("list")) {
    for (const auto& e : experiments()) std::printf("%s\n", e.name.c_str());
    return 0;
  }

  // Select the experiments to run before flag validation so only their
  // extra flags count as known.
  std::vector<const Experiment*> selected;
  const auto run_name = args.get("run");
  for (const auto& e : experiments()) {
    if (!run_name || e.name == *run_name) selected.push_back(&e);
  }
  if (selected.empty()) {
    if (run_name) {
      std::fprintf(stderr, "no experiment named '%s' (try --list)\n",
                   run_name->c_str());
    } else {
      std::fprintf(stderr, "no experiments registered\n");
    }
    return 2;
  }

  std::vector<std::string> known = kStandardFlags;
  for (const Experiment* e : selected) {
    known.insert(known.end(), e->extra_flags.begin(), e->extra_flags.end());
  }
  if (!reject_unknown_flags(args, known)) {
    std::fprintf(stderr, "run with --help for the flag list\n");
    return 2;
  }

  RunContext ctx;
  ctx.args = &args;
  ctx.threads = thread_count(args, 1);
  ctx.seed = static_cast<std::uint64_t>(args.get_count("seed", 0));
  if (const auto shards = args.lookup("shards", "BCN_SHARDS")) {
    const int n = shards->count(0, sim::shard::kMaxShards);
    ctx.shards = n == 0 ? exec::resolve_threads(0) : n;
  }
  // Resolved spec strings, kept verbatim for the post-mortem repro line.
  const auto faults_spec = args.lookup("faults", "BCN_FAULTS");
  if (faults_spec) {
    ctx.faults =
        faults_spec->parse(sim::parse_fault_plan, sim::fault_plan_usage());
  }
  const auto monitors_spec = args.lookup("monitors", "BCN_MONITORS");
  if (monitors_spec) {
    ctx.monitors.spec = monitors_spec->parse(obs::parse_monitor_spec,
                                             obs::monitor_spec_usage());
    ctx.monitors.action = obs::ViolationAction::DumpAndExit;
  }
  const bool list_mechanisms = args.get("mechanism") == "list";
  if (!list_mechanisms) ctx.mechanism = core::mechanism_flag(args);
  if (const auto mode = args.lookup("map-mode")) {
    if (!analysis::parse_map_mode(mode->text, &ctx.map_mode)) {
      mode->fail("unknown mode '" + mode->text +
                 "' (known: scalar, batch, adaptive)");
    }
  }
  const bool emit_json = args.get_bool("json", true);
  if (faults_spec) {
    std::printf("[runner] fault plan: %s\n",
                sim::fault_plan_summary(ctx.faults).c_str());
  }
  if (monitors_spec) {
    std::printf("[runner] monitors: %s\n",
                obs::monitor_spec_summary(ctx.monitors.spec).c_str());
  }
  if (list_mechanisms) {
    for (const auto& info : core::mechanism_registry()) {
      std::printf("%-10s %s\n", info.name, info.summary);
    }
    return 0;
  }
  if (const auto out = args.get("out")) {
    set_output_dir(*out);
  }
  ctx.out_dir = output_dir();
  std::error_code ec;
  std::filesystem::create_directories(ctx.out_dir, ec);
  ctx.monitors.bundle_dir = ctx.out_dir;

  const auto trace_path = obs::maybe_enable_tracing(args);
  int exit_status = 0;
  for (const Experiment* e : selected) {
    obs::MetricsRegistry metrics;
    ctx.metrics = &metrics;
    if (ctx.monitors.spec.any()) {
      // Exact repro command line embedded in any post-mortem bundle this
      // experiment dumps: the standard knobs as verbatim spec strings
      // plus every experiment-specific flag that was passed.
      std::string repro = std::string(prog) + " --run " + e->name +
                          " --seed " + std::to_string(ctx.seed) +
                          " --mechanism " + ctx.mechanism;
      if (faults_spec) repro += " --faults " + faults_spec->text;
      repro += " --monitors " + monitors_spec->text;
      for (const auto& flag : e->extra_flags) {
        if (const auto v = args.get(flag)) {
          repro += " --" + flag;
          if (!v->empty()) repro += "=" + *v;
        }
      }
      ctx.monitors.repro = repro;
    }
    // Spans drained before this experiment belong to earlier ones; the
    // per-experiment profile covers [drained_before, end).
    const std::size_t drained_before = obs::tracing_spans().size();
    const auto start = std::chrono::steady_clock::now();
    const int status = e->fn(ctx);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (trace_path) {
      obs::tracing_drain();
      const auto& spans = obs::tracing_spans();
      const std::vector<obs::SpanRecord> mine(
          spans.begin() + static_cast<std::ptrdiff_t>(drained_before),
          spans.end());
      obs::profile_to_metrics(obs::build_self_profile(mine), metrics);
    }
    std::printf("\n[runner] %s: %s in %.3f s (threads=%d, seed=%llu)\n",
                e->name.c_str(), status == 0 ? "ok" : "FAILED", wall,
                ctx.threads, static_cast<unsigned long long>(ctx.seed));
    if (emit_json) {
      JsonWriter json;
      json.add("experiment", e->name);
      json.add("description", e->description);
      json.add("status", status);
      json.add("wall_seconds", wall);
      json.add("threads", ctx.threads);
      json.add("seed", static_cast<std::int64_t>(ctx.seed));
      json.add("mechanism", ctx.mechanism);
      metrics.write_json(json, "metrics.");
      const auto path = ctx.out_dir / ("RUN_" + e->name + ".json");
      if (json.write_file(path)) {
        std::printf("  [artifact] %s\n", path.string().c_str());
      }
    }
    if (status != 0 && exit_status == 0) exit_status = status;
  }
  if (trace_path) obs::finalize_tracing(*trace_path);
  return exit_status;
}

}  // namespace

void register_experiment(Experiment experiment) {
  registry().push_back(std::move(experiment));
  std::sort(registry().begin(), registry().end(),
            [](const Experiment& a, const Experiment& b) {
              return a.name < b.name;
            });
}

const std::vector<Experiment>& experiments() { return registry(); }

int bench_main(int argc, const char* const* argv) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  return run_cli(argc, argv, [prog](const ArgParser& args) {
    return run_selected(args, prog);
  });
}

}  // namespace bcn::bench
