// E23: sharded-engine scaling and determinism
// (BENCH_sharded_throughput.json).
//
// Two measurements on the partitioned conservative engine (sim/shard):
//
//   1. Single-shard parity: the degenerate star fabric (50 hosts into one
//      bottleneck, the paper's Fig. 1 plant) against the unsharded
//      sim::Network running the same reference parameter set.  The
//      sharded engine at --shards 1 pays for epoch bucketing + canonical
//      staging order; parity says that tax is small.  Each side runs once
//      untimed, then kParityRuns times timed, the sides alternating; the
//      artifact carries each side's median, min and max events/sec and
//      the ratio of the medians.
//
//   2. Shard-count sweep on a generated fat-tree: events/sec at 1, 2, 4,
//      8 shards, with the trajectory digest required to be
//      bitwise-identical across every count (exit 1 on mismatch).
//
// Determinism is the gate; wall-clock speedups are reported, deliberately
// not gated -- they are machine-dependent (a 1-hardware-thread host
// timeshares the shards and cannot speed up at all; the artifact carries
// hardware_threads so a reader can judge the numbers).  scripts/check.sh
// gate 9 runs a small configuration and self-diffs the artifact with
// bcn_bench_diff --require-same-keys.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "common/json.h"
#include "exec/thread_pool.h"
#include "runner.h"
#include "sim/network.h"
#include "sim/shard/engine.h"
#include "sim/shard/topology.h"

namespace {

using namespace bcn;

// The packet_vs_fluid / sim_throughput reference parameter set (PR 4),
// used on both sides of the parity comparison.
constexpr double kCapacity = 10e9;
constexpr double kQ0 = 2.5e6;
constexpr double kBuffer = 30e6;
constexpr double kW = 2.0;
constexpr double kPm = 0.2;
constexpr double kGi = 0.5;
constexpr double kGd = 1.0 / 128.0;
constexpr double kRu = 8e6;
constexpr int kParityFlows = 50;
constexpr sim::SimTime kParityDuration = 50 * sim::kMillisecond;
constexpr int kParityRuns = 5;

sim::shard::FabricOptions reference_options(double initial_rate,
                                            sim::SimTime duration) {
  sim::shard::FabricOptions options;
  options.q0 = kQ0;
  options.w = kW;
  options.pm = kPm;
  options.regulator.gi = kGi;
  options.regulator.gd = kGd;
  options.regulator.ru = kRu;
  options.regulator.max_rate = kCapacity;
  options.initial_rate = initial_rate;
  options.duration = duration;
  options.sample_interval = sim::kMillisecond;
  return options;
}

struct Timed {
  double seconds = 0.0;
  std::uint64_t events = 0;

  double events_per_sec() const {
    return seconds > 0.0 ? events / seconds : 0.0;
  }
};

// The unsharded sim::Network on the parity plant.
Timed time_unsharded() {
  sim::NetworkConfig cfg;
  cfg.params.num_sources = kParityFlows;
  cfg.params.capacity = kCapacity;
  cfg.params.q0 = kQ0;
  cfg.params.buffer = kBuffer;
  cfg.params.qsc = 28e6;
  cfg.params.w = kW;
  cfg.params.pm = kPm;
  cfg.params.gi = kGi;
  cfg.params.gd = kGd;
  cfg.params.ru = kRu;
  cfg.initial_rate = kCapacity / kParityFlows;
  cfg.record_timelines = false;
  cfg.record_events = false;
  cfg.record_interval = sim::kMillisecond;
  Timed timed;
  const auto start = std::chrono::steady_clock::now();
  sim::Network net(cfg);
  net.run(kParityDuration);
  timed.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  timed.events = net.simulator().executed();
  return timed;
}

// The single-shard fabric on the same plant, as a star.
Timed time_star(std::uint64_t seed) {
  sim::shard::StarOptions opts;
  opts.hosts = kParityFlows;
  opts.capacity = kCapacity;
  opts.buffer_bits = kBuffer;
  auto topo = sim::shard::make_star(opts);
  sim::shard::add_permutation_flows(topo, 1, seed);
  const auto options =
      reference_options(kCapacity / kParityFlows, kParityDuration);
  Timed timed;
  const auto start = std::chrono::steady_clock::now();
  const auto result = sim::shard::run_fabric(topo, options, 1);
  timed.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  timed.events = result.events_executed;
  return timed;
}

// One side's timed parity runs: the median run (by events/sec), and the
// slowest and fastest rates.
struct ParitySide {
  Timed median;
  double min_eps = 0.0;
  double max_eps = 0.0;
};

ParitySide summarize(std::vector<Timed> runs) {
  std::sort(runs.begin(), runs.end(), [](const Timed& a, const Timed& b) {
    return a.events_per_sec() < b.events_per_sec();
  });
  return {runs[runs.size() / 2], runs.front().events_per_sec(),
          runs.back().events_per_sec()};
}

int run(bench::RunContext& ctx) {
  const std::string spec =
      ctx.args->get("topology").value_or("fat-tree:30");
  sim::shard::Topology topo;
  std::string error;
  if (!sim::shard::parse_topology_spec(spec, &topo, &error)) {
    throw UsageError("--topology: " + error);
  }
  const int rounds = ctx.args->get_count("flows-per-host", 15);
  const sim::SimTime duration =
      sim::shard::span_us(*ctx.args, "duration-us", 2000.0);
  // core::BcnParams::validate's rule for an initial rate.
  const double rate = ctx.args->get_double("rate", 5e7);
  if (!(rate >= 0.0)) throw UsageError("--rate: must be >= 0");

  JsonWriter json;
  json.add("benchmark", "sharded_throughput");
  const int hw = exec::resolve_threads(0);
  json.add("hardware_threads", hw);

  // --- 1. single-shard parity vs the unsharded engine -------------------
  // A warm-up run per side, then alternating timed runs, so a slow
  // stretch of a shared host lands on both sides.
  time_unsharded();
  time_star(ctx.seed);
  std::vector<Timed> unsharded_runs, star_runs;
  for (int i = 0; i < kParityRuns; ++i) {
    unsharded_runs.push_back(time_unsharded());
    star_runs.push_back(time_star(ctx.seed));
  }
  const ParitySide unsharded = summarize(unsharded_runs);
  const ParitySide star = summarize(star_runs);

  // Same plant, but the two engines schedule different event mixes
  // (pacing tokens vs inter-frame timers), so parity is events/sec --
  // scheduler throughput -- not raw wall clock.
  const double unsharded_eps = unsharded.median.events_per_sec();
  const double star_eps = star.median.events_per_sec();
  const double parity = unsharded_eps > 0.0 ? star_eps / unsharded_eps : 0.0;
  json.add("parity_unsharded_events",
           static_cast<std::int64_t>(unsharded.median.events));
  json.add("parity_unsharded_seconds", unsharded.median.seconds);
  json.add("parity_unsharded_events_per_sec", unsharded_eps);
  json.add("parity_unsharded_events_per_sec_min", unsharded.min_eps);
  json.add("parity_unsharded_events_per_sec_max", unsharded.max_eps);
  json.add("parity_sharded_events",
           static_cast<std::int64_t>(star.median.events));
  json.add("parity_sharded_seconds", star.median.seconds);
  json.add("parity_sharded_events_per_sec", star_eps);
  json.add("parity_sharded_events_per_sec_min", star.min_eps);
  json.add("parity_sharded_events_per_sec_max", star.max_eps);
  json.add("parity_ratio", parity);
  std::printf(
      "parity (star:%d, %.0f ms, median of %d): unsharded %.3f Mev/s "
      "(%.3f-%.3f), single-shard fabric %.3f Mev/s (%.3f-%.3f), "
      "ratio %.2f\n",
      kParityFlows, sim::to_seconds(kParityDuration) * 1e3, kParityRuns,
      unsharded_eps / 1e6, unsharded.min_eps / 1e6, unsharded.max_eps / 1e6,
      star_eps / 1e6, star.min_eps / 1e6, star.max_eps / 1e6, parity);

  // --- 2. shard-count sweep on a generated fabric ------------------------
  sim::shard::add_permutation_flows(topo, rounds, ctx.seed);
  auto options = reference_options(rate, duration);
  options.regulator.max_rate = topo.host_rate;
  options.sample_interval = 50 * sim::kMicrosecond;

  std::printf("fabric: %s — %zu switches, %zu ports, %zu hosts, %zu flows, "
              "%.0f us\n",
              topo.name.c_str(), topo.switches.size(), topo.ports.size(),
              topo.num_hosts, topo.flows.size(),
              sim::to_seconds(duration) * 1e6);
  json.add("topology", topo.name);
  json.add("switches", static_cast<std::int64_t>(topo.switches.size()));
  json.add("ports", static_cast<std::int64_t>(topo.ports.size()));
  json.add("hosts", static_cast<std::int64_t>(topo.num_hosts));
  json.add("flows", static_cast<std::int64_t>(topo.flows.size()));
  json.add("duration_us", sim::to_seconds(duration) * 1e6);

  std::vector<int> counts = {1, 2, 4, 8};
  if (std::find(counts.begin(), counts.end(), ctx.shards) == counts.end()) {
    counts.push_back(ctx.shards);
  }
  std::uint64_t reference_digest = 0;
  double single_shard_eps = 0.0;
  bool digests_match = true;
  for (const int shards : counts) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = sim::shard::run_fabric(topo, options, shards);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double eps = seconds > 0.0 ? result.events_executed / seconds : 0.0;
    if (shards == counts.front()) {
      reference_digest = result.digest;
      single_shard_eps = eps;
    } else if (result.digest != reference_digest) {
      digests_match = false;
    }
    const double speedup =
        single_shard_eps > 0.0 ? eps / single_shard_eps : 0.0;
    const std::string key = "shards_" + std::to_string(shards);
    json.add(key + "_seconds", seconds);
    json.add(key + "_events", static_cast<std::int64_t>(result.events_executed));
    json.add(key + "_events_per_sec", eps);
    json.add(key + "_speedup", speedup);
    json.add(key + "_cross_shard_share",
             result.staged_records > 0
                 ? static_cast<double>(result.cross_shard_records) /
                       static_cast<double>(result.staged_records)
                 : 0.0);
    json.add(key + "_digest",
             strf("%016llx",
                  static_cast<unsigned long long>(result.digest)));
    // run_fabric runs at most one shard per switch.
    const std::string ran =
        result.shards == shards ? "" : strf(" (ran %d)", result.shards);
    std::printf(
        "  shards=%d%s: %8.3f s, %7.3f Mev/s (%.2fx), digest %016llx%s\n",
        shards, ran.c_str(), seconds, eps / 1e6, speedup,
        static_cast<unsigned long long>(result.digest),
        result.digest == reference_digest ? "" : "  << MISMATCH");
  }
  json.add("digest_match", digests_match);

  const auto path = ctx.out_dir / "BENCH_sharded_throughput.json";
  if (json.write_file(path)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  }

  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: trajectory digest varies with the shard count\n");
    return 1;
  }
  return 0;
}

}  // namespace

BCN_EXPERIMENT("sharded_throughput",
               "E23: partitioned-engine events/sec per shard count, with "
               "the cross-shard determinism digest gate",
               run, "topology", "flows-per-host", "duration-us", "rate")
