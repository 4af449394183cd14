// Seeded property test of the sharded fabric engine.  Each seed draws a
// small fabric -- star:N, a leaf-spine with mixed port rates, or
// fat-tree:4 -- with permutation, random or incast flows, a 0.2-2 ms
// horizon and physics inside bcn_fabric's checked ranges, with the
// queue_bounds and finite monitors armed.  Every draw runs at 1, 2, 3
// and 4 shards (3 splits fat-tree:4's four pods 2/1/1), and every
// shard-invariant FabricResult field must equal the single-shard run's.
// On every run frames are conserved, each congestion-point sample sends
// exactly one BCN, and no monitor fires.  A failure names the seed and
// the drawn spec.
#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/format.h"
#include "common/rng.h"
#include "obs/monitor.h"
#include "sim/shard/engine.h"
#include "sim/shard/topology.h"

namespace bcn::sim::shard {
namespace {

enum class Family { Star, LeafSpine, FatTree };
enum class Traffic { Permutation, Random, Incast };

struct FabricDraw {
  Family family = Family::Star;
  Traffic traffic = Traffic::Permutation;
  Topology topo;
  FabricOptions options;
  std::string spec;  // the whole draw, for failure messages
};

FabricDraw draw_fabric(std::uint64_t seed) {
  Rng rng(seed);
  FabricDraw d;
  constexpr SimTime kDelays[] = {250, 500, 1000};
  const SimTime delay = kDelays[rng.uniform_int(3)];
  switch (rng.uniform_int(3)) {
    case 0: {
      StarOptions o;
      o.hosts = 2 + static_cast<int>(rng.uniform_int(7));
      o.link_delay = delay;
      d.topo = make_star(o);
      d.spec = d.topo.name;
      break;
    }
    case 1: {
      LeafSpineOptions o;
      o.spines = 2 + static_cast<int>(rng.uniform_int(2));
      o.leaves = 2 + static_cast<int>(rng.uniform_int(3));
      o.hosts_per_leaf = 2 + static_cast<int>(rng.uniform_int(3));
      const int over = 1 + static_cast<int>(rng.uniform_int(2));
      o.oversubscription = over;
      // Uplinks run at hosts_per_leaf * host_rate / (spines * over); keep
      // them off the host rate so the ports mix two rates.
      if (o.hosts_per_leaf == o.spines * over) ++o.hosts_per_leaf;
      o.link_delay = delay;
      d.family = Family::LeafSpine;
      d.topo = make_leaf_spine(o);
      d.spec = strf("%s oversubscription %d", d.topo.name.c_str(), over);
      break;
    }
    default: {
      FatTreeOptions o;
      o.k = 4;
      o.link_delay = delay;
      d.family = Family::FatTree;
      d.topo = make_fat_tree(o);
      d.spec = d.topo.name;
    }
  }

  const auto hosts = static_cast<std::uint64_t>(d.topo.num_hosts);
  const std::uint64_t flow_seed = rng.next_u64();
  switch (rng.uniform_int(3)) {
    case 0: {
      const int rounds = 1 + static_cast<int>(rng.uniform_int(2));
      add_permutation_flows(d.topo, rounds, flow_seed);
      d.spec += strf(", %d permutation rounds", rounds);
      break;
    }
    case 1: {
      const std::size_t count = hosts / 2 + rng.uniform_int(2 * hosts);
      add_random_flows(d.topo, count, flow_seed);
      d.traffic = Traffic::Random;
      d.spec += strf(", %zu random flows", count);
      break;
    }
    default: {
      const auto dst = static_cast<std::uint32_t>(rng.uniform_int(hosts));
      const std::size_t fan_in = 2 + rng.uniform_int(hosts - 1);
      add_incast_flows(d.topo, dst, fan_in, flow_seed);
      d.traffic = Traffic::Incast;
      d.spec += strf(", incast of %zu into host %u", fan_in, dst);
    }
  }
  d.spec += strf(" (flow seed %llu), link delay %lld ns",
                 static_cast<unsigned long long>(flow_seed),
                 static_cast<long long>(delay));

  FabricOptions& o = d.options;
  o.q0 = rng.uniform(0.5e6, 2.5e6);
  o.w = rng.uniform(0.5, 4.0);
  o.pm = rng.uniform(0.05, 0.5);
  o.regulator.gi = rng.uniform(0.1, 1.0);
  o.regulator.gd = rng.uniform(1.0 / 512.0, 1.0 / 32.0);
  o.regulator.ru = rng.uniform(1e6, 16e6);
  o.regulator.max_rate = d.topo.host_rate;
  o.initial_rate = rng.uniform(0.1, 1.0) * d.topo.host_rate;
  o.duration = static_cast<SimTime>(200 + rng.uniform_int(1801)) *
               kMicrosecond;
  o.sample_interval = 50 * kMicrosecond;
  o.trace_port = static_cast<std::uint32_t>(
      rng.uniform_int(d.topo.ports.size()));
  o.monitors = *obs::parse_monitor_spec("queue_bounds,finite");
  d.spec += strf(", %.0f us, q0 %.6g, w %.6g, pm %.6g, gi %.6g, gd %.6g, "
                 "ru %.6g, rate %.6g, trace port %u",
                 to_seconds(o.duration) * 1e6, o.q0, o.w, o.pm,
                 o.regulator.gi, o.regulator.gd, o.regulator.ru,
                 o.initial_rate, o.trace_port);
  return d;
}

// Seeds 1..kSeeds: about 0.2 s of a release build's test time.
constexpr std::uint64_t kSeeds = 40;

// What must hold on every run, whatever the shard count.
void expect_sound(const FabricResult& r) {
  EXPECT_EQ(r.frames_sent, r.frames_delivered + r.frames_dropped +
                               r.frames_queued + r.frames_in_flight)
      << "frames not conserved";
  EXPECT_EQ(r.bcn_sent, r.frames_sampled);
  EXPECT_GT(r.monitor_checks, 0u);
  EXPECT_EQ(r.monitor_violations, 0u);
  for (const obs::Violation& v : r.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] t=" << v.t << ": " << v.message;
  }
}

TEST(FabricFuzzTest, ShardInvariantFieldsMatchAcrossShardCounts) {
  bool family[3] = {}, traffic[3] = {};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const FabricDraw d = draw_fabric(seed);
    family[static_cast<int>(d.family)] = true;
    traffic[static_cast<int>(d.traffic)] = true;
    SCOPED_TRACE(strf("seed %llu: %s", static_cast<unsigned long long>(seed),
                      d.spec.c_str()));
    // A staging bug throws from the single-shard run (a worker would
    // terminate instead); asserting here keeps the seed in the message.
    FabricResult ref;
    ASSERT_NO_THROW(ref = run_fabric(d.topo, d.options, 1));
    ASSERT_GT(ref.frames_sent, 0u);
    expect_sound(ref);
    for (const int shards : {2, 3, 4}) {
      SCOPED_TRACE(strf("shards %d", shards));
      const FabricResult r = run_fabric(d.topo, d.options, shards);
      EXPECT_EQ(r.shards,
                std::min(shards, static_cast<int>(d.topo.switches.size())));
      expect_sound(r);
      EXPECT_EQ(r.digest, ref.digest);
      EXPECT_EQ(r.epochs, ref.epochs);
      EXPECT_EQ(r.events_executed, ref.events_executed);
      EXPECT_EQ(r.staged_records, ref.staged_records);
      EXPECT_EQ(r.frames_sent, ref.frames_sent);
      EXPECT_EQ(r.frames_dropped, ref.frames_dropped);
      EXPECT_EQ(r.frames_delivered, ref.frames_delivered);
      EXPECT_EQ(r.frames_forwarded, ref.frames_forwarded);
      EXPECT_EQ(r.frames_sampled, ref.frames_sampled);
      EXPECT_EQ(r.frames_queued, ref.frames_queued);
      EXPECT_EQ(r.frames_in_flight, ref.frames_in_flight);
      EXPECT_EQ(r.bcn_sent, ref.bcn_sent);
      EXPECT_EQ(r.bits_delivered, ref.bits_delivered);
      EXPECT_EQ(r.trace_queue, ref.trace_queue);
      EXPECT_EQ(r.total_queue, ref.total_queue);
      ASSERT_EQ(r.flow_stats.size(), ref.flow_stats.size());
      for (std::size_t f = 0; f < r.flow_stats.size(); ++f) {
        EXPECT_EQ(r.flow_stats[f].frames_sent, ref.flow_stats[f].frames_sent)
            << "flow " << f;
        EXPECT_EQ(r.flow_stats[f].rate, ref.flow_stats[f].rate)
            << "flow " << f;
      }
    }
  }
  // The seed set reaches every topology family and traffic pattern, so
  // the properties are not vacuous for any of them.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(family[i]) << "no draw of topology family " << i;
    EXPECT_TRUE(traffic[i]) << "no draw of traffic pattern " << i;
  }
}

}  // namespace
}  // namespace bcn::sim::shard
