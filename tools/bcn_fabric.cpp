// bcn_fabric: run a generated datacenter fabric on the sharded engine.
//
//   bcn_fabric --topology fat-tree:8 --flows-per-host 2 --shards 4
//              [--duration-us 500] [--sample-us 50] [--rate 5e7]
//              [--q0 2.5e6] [--w 2] [--pm 0.2] [--gi 0.5]
//              [--gd 0.0078125] [--ru 8e6] [--monitors all]
//              [--json out.json]
//
// Prints the run summary (counters, events/sec, partition edge-cut) and
// optionally writes a flat JSON artifact.  The artifact intentionally
// contains ONLY shard-count-invariant quantities -- the trajectory
// digest, counters, event/epoch totals, topology shape -- and no wall
// clock, so `cmp` on artifacts from different --shards values is the
// cross-shard determinism check (scripts/check.sh gate 9 does exactly
// that).
//
// Exit codes: 0 ok, 2 usage error (unknown flag or malformed value, e.g.
// a bad topology spec, shard count, a --duration-us or --sample-us under
// 1 ns, a --sample-us longer than --duration-us, or a physics flag
// outside core::BcnParams::validate's range: --pm outside (0, 1], a
// non-positive --q0/--w/--gi/--gd/--ru, a negative --rate), 3 when armed
// monitors recorded a violation.
#include <chrono>
#include <cstdio>
#include <string>

#include "common/args.h"
#include "common/format.h"
#include "common/json.h"
#include "exec/thread_pool.h"
#include "obs/monitor.h"
#include "sim/shard/engine.h"
#include "sim/shard/topology.h"

using namespace bcn;

namespace {

void usage() {
  std::puts(
      "usage: bcn_fabric --topology spec [--shards n] [--flows-per-host n]\n"
      "                  [--duration-us x] [--sample-us x] [--rate bps]\n"
      "                  [--q0 bits] [--w x] [--pm x] [--gi x] [--gd x]\n"
      "                  [--ru bps] [--monitors spec] [--json file]\n"
      "                  [--seed n] [--help]\n"
      "  --topology s  fat-tree:K | leaf-spine:SPINESxLEAVESxHOSTS | star:N\n"
      "  --shards n    simulator shards (BCN_SHARDS env fallback; default\n"
      "                1, 0 = all hardware threads), at most one per\n"
      "                switch.  The digest and the JSON artifact are\n"
      "                identical for every shard count.\n"
      "  --flows-per-host n  seeded permutation traffic rounds (default 2)\n"
      "  --duration-us x     simulated horizon in microseconds (default 500)\n"
      "  --sample-us x       queue-series sampling cadence (default 50,\n"
      "                      at most --duration-us)\n"
      "  --rate bps    initial per-flow rate (default 5e7)\n"
      "  --monitors s  arm per-shard runtime monitors; any violation in\n"
      "                the deterministic merge exits with code 3\n"
      "  --json file   write the shard-invariant artifact there");
}

// The physics flags hold to core::BcnParams::validate's rule for each
// quantity, so a value bcn_analyze rejects never runs here either.
double positive(const ArgParser& args, const char* name, double fallback) {
  const double value = args.get_double(name, fallback);
  if (!(value > 0.0)) {
    throw UsageError(std::string("--") + name + ": must be > 0");
  }
  return value;
}

int run(const ArgParser& args) {
  if (args.get_bool("help")) {
    usage();
    return 0;
  }
  if (!reject_unknown_flags(
          args, {"help", "topology", "shards", "flows-per-host",
                 "duration-us", "sample-us", "rate", "q0", "w", "pm", "gi",
                 "gd", "ru", "monitors", "json", "seed"})) {
    usage();
    return 2;
  }

  int shards = 1;
  if (const auto v = args.lookup("shards", "BCN_SHARDS")) {
    shards = v->count(0, sim::shard::kMaxShards);
  }
  if (shards == 0) shards = exec::resolve_threads(0);
  const int rounds = args.get_count("flows-per-host", 2);
  const auto seed = static_cast<std::uint64_t>(args.get_count("seed", 0));

  sim::shard::FabricOptions options;
  options.q0 = positive(args, "q0", 2.5e6);
  options.w = positive(args, "w", 2.0);
  options.pm = args.get_double("pm", 0.2);
  if (!(options.pm > 0.0 && options.pm <= 1.0)) {
    throw UsageError("--pm: must lie in (0, 1]");
  }
  options.regulator.gi = positive(args, "gi", 0.5);
  options.regulator.gd = positive(args, "gd", 1.0 / 128.0);
  options.regulator.ru = positive(args, "ru", 8e6);
  options.initial_rate = args.get_double("rate", 5e7);
  if (!(options.initial_rate >= 0.0)) {
    throw UsageError("--rate: must be >= 0");
  }
  options.duration = sim::shard::span_us(args, "duration-us", 500.0);
  options.sample_interval = sim::shard::span_us(args, "sample-us", 50.0);
  // Only a cadence longer than the run can round to zero whole-epoch
  // samples, which would leave the queue series, and the digest, empty.
  // Either side may be a default, so the message names both.
  if (options.sample_interval > options.duration) {
    throw UsageError(
        "--sample-us (default 50): must not exceed --duration-us "
        "(default 500)");
  }
  if (const auto spec = args.lookup("monitors")) {
    options.monitors =
        spec->parse(obs::parse_monitor_spec, obs::monitor_spec_usage());
  }

  const std::string spec = args.get("topology").value_or("fat-tree:4");
  sim::shard::Topology topo;
  std::string error;
  if (!sim::shard::parse_topology_spec(spec, &topo, &error)) {
    throw UsageError("--topology: " + error);
  }
  options.regulator.max_rate = topo.host_rate;
  sim::shard::add_permutation_flows(topo, rounds, seed);
  if (topo.flows.empty()) {
    std::fprintf(stderr, "no flows generated (--flows-per-host %d)\n", rounds);
    return 2;
  }

  const auto part = sim::shard::partition_topology(topo, shards);
  std::printf("fabric: %s — %zu switches, %zu ports, %zu hosts, %zu flows\n",
              topo.name.c_str(), topo.switches.size(), topo.ports.size(),
              topo.num_hosts, topo.flows.size());
  std::printf("shards: %d (%zu cut route segments)\n", part.shards,
              part.cut_edges);

  const auto start = std::chrono::steady_clock::now();
  const sim::shard::FabricResult result =
      sim::shard::run_fabric(topo, options, shards);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf(
      "ran %llu epochs, %llu events in %.3f s (%.2f M events/s)\n"
      "  frames: sent %llu, forwarded %llu, delivered %llu, dropped %llu, "
      "queued %llu, in flight %llu\n"
      "  feedback: %llu samples, %llu BCN; staged %llu handoffs "
      "(%llu cross-shard)\n"
      "  digest: %016llx\n",
      static_cast<unsigned long long>(result.epochs),
      static_cast<unsigned long long>(result.events_executed), wall,
      wall > 0.0 ? result.events_executed / wall / 1e6 : 0.0,
      static_cast<unsigned long long>(result.frames_sent),
      static_cast<unsigned long long>(result.frames_forwarded),
      static_cast<unsigned long long>(result.frames_delivered),
      static_cast<unsigned long long>(result.frames_dropped),
      static_cast<unsigned long long>(result.frames_queued),
      static_cast<unsigned long long>(result.frames_in_flight),
      static_cast<unsigned long long>(result.frames_sampled),
      static_cast<unsigned long long>(result.bcn_sent),
      static_cast<unsigned long long>(result.staged_records),
      static_cast<unsigned long long>(result.cross_shard_records),
      static_cast<unsigned long long>(result.digest));

  if (options.monitors.any()) {
    std::printf("monitors: %llu checks, %llu violations\n",
                static_cast<unsigned long long>(result.monitor_checks),
                static_cast<unsigned long long>(result.monitor_violations));
    for (const auto& v : result.violations) {
      std::printf("  [%s] t=%.9g: %s\n", v.invariant.c_str(), v.t,
                  v.message.c_str());
    }
  }

  if (const auto json_path = args.get("json")) {
    // Shard-invariant fields only: no wall clock, no shard count, no
    // cross-shard tally, so artifacts from different --shards values
    // compare byte-identical.
    JsonWriter json;
    json.add("tool", "bcn_fabric");
    json.add("topology", topo.name);
    json.add("switches", static_cast<std::int64_t>(topo.switches.size()));
    json.add("ports", static_cast<std::int64_t>(topo.ports.size()));
    json.add("hosts", static_cast<std::int64_t>(topo.num_hosts));
    json.add("flows", static_cast<std::int64_t>(topo.flows.size()));
    json.add("duration_us",
             sim::to_seconds(options.duration) * 1e6);
    json.add("digest", strf("%016llx", static_cast<unsigned long long>(
                                           result.digest)));
    json.add("epochs", static_cast<std::int64_t>(result.epochs));
    json.add("events_executed",
             static_cast<std::int64_t>(result.events_executed));
    json.add("frames_sent", static_cast<std::int64_t>(result.frames_sent));
    json.add("frames_forwarded",
             static_cast<std::int64_t>(result.frames_forwarded));
    json.add("frames_delivered",
             static_cast<std::int64_t>(result.frames_delivered));
    json.add("frames_dropped",
             static_cast<std::int64_t>(result.frames_dropped));
    json.add("frames_sampled",
             static_cast<std::int64_t>(result.frames_sampled));
    json.add("bcn_sent", static_cast<std::int64_t>(result.bcn_sent));
    json.add("bits_delivered", result.bits_delivered);
    json.add("staged_records",
             static_cast<std::int64_t>(result.staged_records));
    json.add("total_queue", result.total_queue);
    json.add("trace_queue", result.trace_queue);
    if (json.write_file(*json_path)) {
      std::printf("  [artifact] %s\n", json_path->c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path->c_str());
      return 1;
    }
  }

  if (options.monitors.any() && result.monitor_violations > 0) {
    return obs::kMonitorViolationExit;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_cli(argc, argv, run); }
