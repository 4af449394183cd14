// THE cross-shard determinism contract (sim/shard/engine.h): the FNV-1a
// trajectory digest of a fabric run is bitwise-identical for every shard
// count, including the single-shard idle-skip fast path and a shard
// count that divides nothing evenly (7), and equal to a pinned value.
// Also pins that the digest reacts to parameter changes (it is not a
// constant), that armed per-shard monitors neither perturb the
// trajectory nor lose their merged counts across shard counts, that
// repeated runs are reproducible, that frames are conserved, that a
// shard count above the switch count runs one shard per switch, that
// cross-shard mail arrives exactly once whichever parity the last epoch
// has and however many shards mail one, and that a traced run splits
// each worker's epochs into drain, inject and barrier spans.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/tracing.h"
#include "sim/shard/engine.h"
#include "sim/shard/topology.h"

namespace bcn::sim::shard {
namespace {

// Rate high enough that ports sample and BCN feedback flows within the
// short horizon, so the digest covers the full control loop -- frames,
// drops, sigma sampling, reverse-path BCN, regulator updates.
FabricOptions active_options() {
  FabricOptions options;
  options.q0 = 2.5e6;
  options.w = 2.0;
  options.pm = 0.2;
  options.regulator.gi = 0.5;
  options.regulator.gd = 1.0 / 128.0;
  options.regulator.ru = 8e6;
  options.regulator.max_rate = 10e9;
  options.initial_rate = 2e9;
  options.duration = 1500 * kMicrosecond;
  options.sample_interval = 50 * kMicrosecond;
  return options;
}

Topology fabric(const char* spec, int rounds) {
  Topology topo;
  std::string error;
  EXPECT_TRUE(parse_topology_spec(spec, &topo, &error)) << error;
  add_permutation_flows(topo, rounds, /*seed=*/0);
  return topo;
}

// Absolute pins beside the cross-shard comparison: a change that moved
// the event order the same way at every shard count would pass every
// shard-versus-shard check, so each spec's single-shard trajectory is
// pinned too.
struct PinnedFabric {
  const char* spec;
  std::uint64_t digest;
  std::uint64_t events;
};

// Every frame a source sent was delivered, dropped, is queued at a port,
// or is still staged for its next hop.  Checked beside the digest, the
// end-of-run counts catch a frame that injection lost or duplicated even
// in a way every shard count shares.
void expect_frames_conserved(const FabricResult& r, const char* spec,
                             int shards) {
  EXPECT_EQ(r.frames_sent, r.frames_delivered + r.frames_dropped +
                               r.frames_queued + r.frames_in_flight)
      << spec << " shards=" << shards << ": frames not conserved";
}

TEST(ShardDeterminismTest, DigestInvariantAcrossShardCounts) {
  for (const PinnedFabric& pin :
       {PinnedFabric{"fat-tree:4", 0x7c65096d73c0fd1cull, 202'004},
        PinnedFabric{"leaf-spine:2x4x4", 0x115d9fc7a7dbefd7ull, 147'308}}) {
    const char* spec = pin.spec;
    const Topology topo = fabric(spec, 3);
    const FabricOptions options = active_options();
    const FabricResult reference = run_fabric(topo, options, 1);
    EXPECT_EQ(reference.digest, pin.digest) << spec;
    EXPECT_EQ(reference.events_executed, pin.events) << spec;
    ASSERT_GT(reference.frames_sent, 0u) << spec;
    ASSERT_GT(reference.frames_sampled, 0u)
        << spec << ": horizon too short for the feedback loop";
    ASSERT_GT(reference.bcn_sent, 0u) << spec;
    // Both end-of-run terms are exercised: queues are non-empty and
    // frames are in transit at the horizon.
    EXPECT_GT(reference.frames_queued, 0u) << spec;
    EXPECT_GT(reference.frames_in_flight, 0u) << spec;
    expect_frames_conserved(reference, spec, 1);
    for (const int shards : {2, 4, 7}) {
      const FabricResult result = run_fabric(topo, options, shards);
      // leaf-spine:2x4x4 has six switches, so its 7 runs as 6.
      EXPECT_EQ(result.shards,
                std::min(shards, static_cast<int>(topo.switches.size())))
          << spec;
      expect_frames_conserved(result, spec, shards);
      EXPECT_EQ(result.frames_queued, reference.frames_queued)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.frames_in_flight, reference.frames_in_flight)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.digest, reference.digest)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.events_executed, reference.events_executed)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.staged_records, reference.staged_records)
          << spec << " shards=" << shards;
      EXPECT_EQ(result.frames_delivered, reference.frames_delivered);
      EXPECT_EQ(result.trace_queue, reference.trace_queue);
      EXPECT_EQ(result.total_queue, reference.total_queue);
      ASSERT_EQ(result.flow_stats.size(), reference.flow_stats.size());
      for (std::size_t f = 0; f < result.flow_stats.size(); ++f) {
        EXPECT_EQ(result.flow_stats[f].frames_sent,
                  reference.flow_stats[f].frames_sent);
        EXPECT_EQ(result.flow_stats[f].rate, reference.flow_stats[f].rate);
      }
    }
  }
}

// A shard count above the switch count runs one shard per switch: star:4
// has one switch, so 64 shards run inline as one.
TEST(ShardDeterminismTest, ShardCountClampsToTheSwitchCount) {
  const Topology topo = fabric("star:4", 1);
  const FabricOptions options = active_options();
  const FabricResult one = run_fabric(topo, options, 1);
  const FabricResult many = run_fabric(topo, options, 64);
  EXPECT_EQ(many.shards, 1);
  EXPECT_EQ(many.digest, one.digest);
  EXPECT_EQ(many.events_executed, one.events_executed);
  EXPECT_EQ(many.cross_shard_records, 0u);
}

// Mail staged in a run's last epoch still waits in the outboxes of that
// epoch's parity when the workers join, and run_fabric collects it
// there.  Horizons one epoch apart end on both parities; a frame left
// in a box would be missing from frames_in_flight and from conservation.
TEST(ShardDeterminismTest, LastEpochMailIsCountedAtEitherParity) {
  const Topology topo = fabric("fat-tree:4", 3);
  bool parity_seen[2] = {false, false};
  for (const SimTime extra : {SimTime{0}, topo.link_delay}) {
    FabricOptions options = active_options();
    options.duration += extra;
    const FabricResult reference = run_fabric(topo, options, 1);
    parity_seen[reference.epochs & 1] = true;
    EXPECT_GT(reference.frames_in_flight, 0u);
    expect_frames_conserved(reference, "fat-tree:4", 1);
    for (const int shards : {2, 3, 4}) {
      const FabricResult result = run_fabric(topo, options, shards);
      EXPECT_GT(result.cross_shard_records, 0u) << "shards=" << shards;
      expect_frames_conserved(result, "fat-tree:4", shards);
      EXPECT_EQ(result.frames_in_flight, reference.frames_in_flight)
          << "epochs=" << result.epochs << " shards=" << shards;
      EXPECT_EQ(result.digest, reference.digest)
          << "epochs=" << result.epochs << " shards=" << shards;
    }
  }
  EXPECT_TRUE(parity_seen[0] && parity_seen[1]);
}

// Many shards mailing one: every flow of fat-tree:4 ends at host 0, so
// at four shards (one pod each) the other three shards mail host 0's
// shard every epoch, and its BCN feedback mails back to each of them.
// A lost record breaks conservation; a duplicate adds events and moves
// the digest.
TEST(ShardDeterminismTest, IncastMailFromEveryPodArrivesOnce) {
  Topology topo;
  std::string error;
  ASSERT_TRUE(parse_topology_spec("fat-tree:4", &topo, &error)) << error;
  add_incast_flows(topo, /*dst_host=*/0, 2 * topo.num_hosts, /*seed=*/0);
  const Partition part = partition_topology(topo, 4);
  const std::uint32_t sink = part.shard_of_switch[topo.edge_of_host(0)];
  std::set<std::uint32_t> senders;
  for (const std::uint32_t s : part.shard_of_flow) {
    if (s != sink) senders.insert(s);
  }
  ASSERT_EQ(senders.size(), 3u) << "every other shard must mail the sink";

  const FabricOptions options = active_options();
  const FabricResult reference = run_fabric(topo, options, 1);
  ASSERT_GT(reference.frames_delivered, 0u);
  ASSERT_GT(reference.bcn_sent, 0u);
  expect_frames_conserved(reference, "incast", 1);
  for (const int shards : {2, 3, 4}) {
    const FabricResult result = run_fabric(topo, options, shards);
    EXPECT_GT(result.cross_shard_records, 0u) << "shards=" << shards;
    expect_frames_conserved(result, "incast", shards);
    EXPECT_EQ(result.digest, reference.digest) << "shards=" << shards;
    EXPECT_EQ(result.events_executed, reference.events_executed)
        << "shards=" << shards;
    EXPECT_EQ(result.staged_records, reference.staged_records)
        << "shards=" << shards;
    EXPECT_EQ(result.frames_delivered, reference.frames_delivered)
        << "shards=" << shards;
    EXPECT_EQ(result.frames_dropped, reference.frames_dropped)
        << "shards=" << shards;
    EXPECT_EQ(result.frames_in_flight, reference.frames_in_flight)
        << "shards=" << shards;
    EXPECT_EQ(result.bcn_sent, reference.bcn_sent) << "shards=" << shards;
  }
}

TEST(ShardDeterminismTest, RepeatedRunsReproduce) {
  const Topology topo = fabric("fat-tree:4", 2);
  const FabricOptions options = active_options();
  const FabricResult a = run_fabric(topo, options, 2);
  const FabricResult b = run_fabric(topo, options, 2);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ShardDeterminismTest, DigestReactsToParameterChanges) {
  const Topology topo = fabric("fat-tree:4", 2);
  const FabricOptions base = active_options();
  const std::uint64_t reference = run_fabric(topo, base, 1).digest;

  FabricOptions faster = base;
  faster.initial_rate = 3e9;
  EXPECT_NE(run_fabric(topo, faster, 1).digest, reference);

  FabricOptions heavier = base;
  heavier.w = 4.0;
  EXPECT_NE(run_fabric(topo, heavier, 1).digest, reference);
}

TEST(ShardDeterminismTest, ArmedMonitorsPreserveDigestAndMergeCounts) {
  const Topology topo = fabric("fat-tree:4", 3);
  const FabricOptions quiet = active_options();
  const FabricResult unarmed = run_fabric(topo, quiet, 1);

  FabricOptions armed = quiet;
  const auto spec = obs::parse_monitor_spec("queue_bounds,finite");
  ASSERT_TRUE(spec.has_value());
  armed.monitors = *spec;
  const FabricResult one = run_fabric(topo, armed, 1);
  EXPECT_EQ(one.digest, unarmed.digest)
      << "arming monitors must not perturb the trajectory";
  EXPECT_GT(one.monitor_checks, 0u);
  EXPECT_EQ(one.monitor_violations, 0u);
  for (const int shards : {2, 4}) {
    const FabricResult result = run_fabric(topo, armed, shards);
    EXPECT_EQ(result.digest, unarmed.digest) << "shards=" << shards;
    // Check counts scale with the shard count (each shard runs its own
    // per-sample predicates on its partial state -- that is why they are
    // excluded from the digest); violations must stay quiet everywhere.
    EXPECT_GE(result.monitor_checks, one.monitor_checks)
        << "shards=" << shards;
    EXPECT_EQ(result.monitor_violations, 0u) << "shards=" << shards;
  }
}

// Owns the global span recorder for one test: start clean, leave clean.
struct TracingScope {
  TracingScope() {
    obs::tracing_disable();
    obs::tracing_clear();
    obs::tracing_enable();
  }
  ~TracingScope() {
    obs::tracing_disable();
    obs::tracing_clear();
  }
};

// Each worker of a traced 2-shard run records one span of each epoch
// phase per epoch, and tracing leaves the trajectory alone.
TEST(ShardDeterminismTest, TracedRunSpansEveryEpochPhaseOnEachWorker) {
  const Topology topo = fabric("fat-tree:4", 3);
  const TracingScope scope;
  const FabricResult result = run_fabric(topo, active_options(), 2);
  obs::tracing_disable();
  obs::tracing_drain();  // run_fabric joined its workers
  EXPECT_EQ(result.digest, 0x7c65096d73c0fd1cull);

  std::map<std::uint32_t, std::map<std::string, std::uint64_t>> calls;
  double injected = 0.0;
  for (const obs::SpanRecord& span : obs::tracing_spans()) {
    const std::string name(span.name);
    ++calls[span.tid][name];
    if (name == "shard.inject") {
      ASSERT_EQ(span.n_args, 1u);
      EXPECT_EQ(std::string(span.args[0].key), "records");
      injected += span.args[0].value;
    }
  }
  std::size_t workers = 0;
  for (const auto& [tid, by_name] : calls) {
    if (by_name.count("shard.inject") == 0) continue;
    ++workers;
    for (const char* name :
         {"shard.drain", "shard.inject", "sim.run_until", "shard.barrier"}) {
      const auto it = by_name.find(name);
      ASSERT_NE(it, by_name.end()) << name << " on tid " << tid;
      EXPECT_EQ(it->second, result.epochs) << name << " on tid " << tid;
    }
  }
  EXPECT_EQ(workers, 2u);
  // Every injected record was staged; those due past the horizon stay.
  EXPECT_GT(injected, 0.0);
  EXPECT_LE(injected, static_cast<double>(result.staged_records));
}

}  // namespace
}  // namespace bcn::sim::shard
