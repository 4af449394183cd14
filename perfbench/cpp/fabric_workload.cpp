// fabric workload: datacenter packet simulation on the sharded engine.
// All the work is in the sim event core and the shard epoch/staging/
// barrier loop; no ODE.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/shard/engine.h"
#include "sim/shard/topology.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace shard = bcn::sim::shard;

constexpr int kShards = 2;
constexpr double kSimulatedMs = 10.0;
// run_fabric digest of these inputs at seed 0, any shard count.
constexpr std::uint64_t kSeed0Digest = 0x3af4ed20fc1fa7e5ULL;

struct FabricInputs {
  shard::Topology topo;
  shard::FabricOptions options;
  double topology_s = 0.0;   // spec parse + seeded flows
  double partition_s = 0.0;  // partition_topology at kShards
};

// fat-tree:8 with bcn_fabric's defaults; the seed picks the two
// permutation rounds of flows.
FabricInputs make_inputs(std::uint64_t seed) {
  FabricInputs in;
  auto start = Clock::now();
  std::string error;
  if (!shard::parse_topology_spec("fat-tree:8", &in.topo, &error)) {
    std::fprintf(stderr, "fat-tree:8: %s\n", error.c_str());
  }
  shard::add_permutation_flows(in.topo, 2, seed);
  in.topology_s = seconds_since(start);
  start = Clock::now();
  const shard::Partition part = shard::partition_topology(in.topo, kShards);
  in.partition_s = seconds_since(start);
  if (part.cut_edges == 0) std::printf("fabric: partition cut no links\n");

  shard::FabricOptions& o = in.options;
  o.q0 = 2.5e6;
  o.w = 2.0;
  o.pm = 0.2;
  o.regulator.gi = 0.5;
  o.regulator.gd = 1.0 / 128.0;
  o.regulator.ru = 8e6;
  o.regulator.max_rate = in.topo.host_rate;
  o.initial_rate = 5e7;
  o.duration = static_cast<bcn::sim::SimTime>(kSimulatedMs *
                                              bcn::sim::kMillisecond);
  o.sample_interval = 50 * bcn::sim::kMicrosecond;
  return in;
}

double timed_run(const FabricInputs& in, int shards,
                 shard::FabricResult* out) {
  const auto start = Clock::now();
  *out = shard::run_fabric(in.topo, in.options, shards);
  return seconds_since(start);
}

// The digest every run must reproduce: the single-shard run's, which at
// seed 0 must also equal the pinned value.
std::uint64_t reference_digest(const FabricInputs& in, const Options& options,
                               Result& result, double* t1 = nullptr,
                               shard::FabricResult* serial = nullptr) {
  shard::FabricResult r;
  const double t = timed_run(in, 1, &r);
  if (t1) *t1 = t;
  if (options.seed == 0) result.check(r.digest == kSeed0Digest);
  if (serial) *serial = r;
  return options.corrupt_reference ? r.digest ^ 1 : r.digest;
}

}  // namespace

Result run_fabric(const Options& options) {
  Result result;
  const FabricInputs in = make_inputs(options.seed);
  shard::FabricResult r;
  timed_run(in, kShards, &r);  // warm-up, as in the map workload
  const double setup_cpu = process_cpu_seconds();
  if (options.setup_only) {
    result.add("setup_s", setup_cpu, "s");
    return result;
  }

  // The median per-run CPU time: a run whose shards spun long at the
  // epoch barrier while a stolen vCPU stalled its peer is an outlier.
  std::vector<double> latencies, cpu;
  std::vector<std::uint64_t> digests;
  const auto start = Clock::now();
  do {
    const double cpu0 = process_cpu_seconds();
    latencies.push_back(timed_run(in, kShards, &r));
    cpu.push_back(process_cpu_seconds() - cpu0);
    digests.push_back(r.digest);
  } while (seconds_since(start) < options.seconds);
  const double elapsed = seconds_since(start);

  const std::uint64_t reference = reference_digest(in, options, result);
  for (const std::uint64_t d : digests) result.check(d == reference);
  const double ops = static_cast<double>(latencies.size());
  std::printf("fabric: %zu runs of %s (%zu flows), %llu events, %llu "
              "epochs, digest %016llx\n  wall: %.3f simulated ms/s, p50 "
              "%.3f ms, p99 %.3f ms\n",
              latencies.size(), in.topo.name.c_str(), in.topo.flows.size(),
              static_cast<unsigned long long>(r.events_executed),
              static_cast<unsigned long long>(r.epochs),
              static_cast<unsigned long long>(r.digest),
              kSimulatedMs * ops / elapsed, 1e3 * quantile(latencies, 0.5),
              1e3 * quantile(latencies, 0.99));
  add_end_to_end(result, setup_cpu, median(cpu));
  return result;
}

Result trace_fabric(const Options& options) {
  Result result;
  constexpr int kReps = 3;
  std::vector<double> topology_s, partition_s;
  FabricInputs in;
  for (int r = 0; r < kReps; ++r) {
    in = make_inputs(options.seed);
    topology_s.push_back(in.topology_s);
    partition_s.push_back(in.partition_s);
  }

  double t1 = 0.0;
  shard::FabricResult serial;
  const std::uint64_t reference =
      reference_digest(in, options, result, &t1, &serial);

  std::vector<double> untraced, traced;
  shard::FabricResult r;
  std::size_t first_span = 0;
  for (int rep = 0; rep < 2; ++rep) {
    untraced.push_back(timed_run(in, kShards, &r));
    result.check(r.digest == reference);
    bcn::obs::tracing_drain();
    first_span = bcn::obs::tracing_spans().size();
    bcn::obs::tracing_enable();
    {
      bcn::obs::TraceSpan root("bench.fabric");
      bcn::obs::TraceSpan call("shard.run_fabric");
      traced.push_back(timed_run(in, kShards, &r));
    }
    bcn::obs::tracing_disable();
    bcn::obs::tracing_drain();  // the pool has joined: workers are quiescent
    result.check(r.digest == reference);
  }

  // Per-shard busy time: self time of the engine's sim.run_until spans on
  // each worker thread of the last traced run.
  const auto& all = bcn::obs::tracing_spans();
  const std::vector<bcn::obs::SpanRecord> spans(all.begin() + first_span,
                                                all.end());
  const bcn::obs::SpanRecord* root = last_span(spans, "bench.fabric");
  const double wall = static_cast<double>(root->dur_ns) / 1e9;
  std::map<std::uint32_t, double> busy;
  for (const auto& s : spans) {
    if (s.tid != root->tid && std::string_view(s.name) == "sim.run_until") {
      busy[s.tid] += static_cast<double>(s.self_ns) / 1e9;
    }
  }
  double busy_sum = 0.0, busy_max = 0.0;
  for (const auto& [tid, b] : busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
    std::printf("  shard worker tid %u: busy %.6f s of %.6f s wall\n", tid, b,
                wall);
  }
  const double busy_mean = busy.empty() ? 0.0 : busy_sum / busy.size();
  result.check(busy.size() == kShards);

  auto rows = layer_self_times(spans, root->tid, root->start_ns,
                               root->start_ns + root->dur_ns);
  // The run_fabric call waits on its shard workers: their mean event-core
  // time is sim's share of the wall, the rest is the shard layer's epoch
  // barrier, staging/sort, inbox drain, build and merge.
  move_self_time(rows, "shard", "sim", busy_mean);
  const double unattributed = print_layer_table(
      "fabric (one traced 2-shard run_fabric)", rows, "bench", wall);

  const double events = static_cast<double>(serial.events_executed);
  result.add("shard.topology_s", median(topology_s), "s");
  result.add("shard.partition_s", median(partition_s), "s");
  result.add("sim.events", events, "count");
  result.add("sim.events_per_s_1shard", events / t1, "1/s");
  result.add("shard.epochs", static_cast<double>(r.epochs), "count");
  result.add("shard.staged_per_event",
             static_cast<double>(r.staged_records) / events, "ratio");
  result.add("shard.cross_shard_share",
             static_cast<double>(r.cross_shard_records) /
                 static_cast<double>(r.staged_records),
             "ratio");
  result.add("shard.busy_s", busy_mean, "s");
  result.add("shard.imbalance", busy_mean > 0.0 ? busy_max / busy_mean : 0.0,
             "ratio");
  result.add("shard.sync_share", 1.0 - busy_sum / (kShards * wall), "ratio");
  result.add("shard.parallel_efficiency", t1 / (kShards * median(untraced)),
             "ratio");
  result.add("shard.sim_ms_per_s", kSimulatedMs / median(untraced), "1/s");
  result.add("shard.unattributed_share", unattributed, "ratio");
  result.add("shard.trace_overhead_share",
             median(traced) / median(untraced) - 1.0, "ratio");
  std::printf("fabric probes: 1-shard %.4f s, 2-shard %.4f s untraced, "
              "%.4f s traced, %llu events\n",
              t1, median(untraced), median(traced),
              static_cast<unsigned long long>(serial.events_executed));
  return result;
}

}  // namespace perfbench
