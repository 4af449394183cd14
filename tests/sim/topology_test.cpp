// Topology generators and the pod/leaf partitioner (sim/shard): structural
// invariants the sharded engine's correctness leans on -- counts match the
// closed forms, every route is a valid port sequence ending at the
// destination's edge switch, flow generation is seed-deterministic, the
// spec parser rejects malformed shapes, and the partitioner covers every
// entity while keeping pods intact.
#include "sim/shard/topology.h"

#include <gtest/gtest.h>

#include "../support/fabric_flows.h"

namespace bcn::sim::shard {
namespace {

using bcn::testing::add_incast_flows;
using bcn::testing::add_random_flows;
using bcn::testing::edge_of_host;

TEST(TopologyTest, FatTreeClosedFormCounts) {
  for (const int k : {4, 8, 16}) {
    FatTreeOptions options;
    options.k = k;
    const Topology topo = make_fat_tree(options);
    const std::size_t h = static_cast<std::size_t>(k) / 2;
    // k pods of (k/2 edge + k/2 agg) over (k/2)^2 cores; k^3/4 hosts.
    EXPECT_EQ(topo.switches.size(), 2 * k * h + h * h) << "k=" << k;
    EXPECT_EQ(topo.num_hosts, k * h * h) << "k=" << k;
    // Edges and aggs own 2h ports each, cores k.
    EXPECT_EQ(topo.ports.size(), 2 * k * h * 2 * h + h * h * k) << "k=" << k;
  }
}

TEST(TopologyTest, FatTreeAtScaleExceedsThousandSwitches) {
  FatTreeOptions options;
  options.k = 30;
  const Topology topo = make_fat_tree(options);
  EXPECT_GE(topo.switches.size(), 1000u);  // 1125 for k=30
  EXPECT_EQ(topo.num_hosts, 6750u);
}

TEST(TopologyTest, LeafSpineCounts) {
  LeafSpineOptions options;
  options.spines = 4;
  options.leaves = 8;
  options.hosts_per_leaf = 6;
  const Topology topo = make_leaf_spine(options);
  EXPECT_EQ(topo.switches.size(), 12u);
  EXPECT_EQ(topo.num_hosts, 48u);
  // Leaves: 6 host-down + 4 up each; spines: 8 down each.
  EXPECT_EQ(topo.ports.size(), 8u * 10u + 4u * 8u);
}

// Every route must be a sequence of existing ports whose last hop is a
// host-down port of the destination's edge switch, with strictly valid
// switch ownership on every hop.
void expect_routes_valid(const Topology& topo) {
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    const std::size_t len = topo.route_length(f);
    ASSERT_GE(len, 1u) << "flow " << f;
    const std::uint32_t* hops = topo.route(f);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_LT(hops[i], topo.ports.size()) << "flow " << f;
    }
    const PortNode& last = topo.ports[hops[len - 1]];
    EXPECT_EQ(last.switch_id, edge_of_host(topo, topo.flows[f].dst_host))
        << "flow " << f << " does not terminate at the destination edge";
    EXPECT_NE(topo.flows[f].src_host, topo.flows[f].dst_host);
  }
}

TEST(TopologyTest, PermutationFlowsProduceValidRoutes) {
  for (const char* spec : {"fat-tree:4", "fat-tree:8", "leaf-spine:2x4x4"}) {
    Topology topo;
    std::string error;
    ASSERT_TRUE(parse_topology_spec(spec, &topo, &error)) << error;
    add_permutation_flows(topo, 3, 7);
    EXPECT_EQ(topo.flows.size(), 3 * topo.num_hosts) << spec;
    expect_routes_valid(topo);
  }
}

TEST(TopologyTest, IncastAndRandomFlowsProduceValidRoutes) {
  Topology topo;
  std::string error;
  ASSERT_TRUE(parse_topology_spec("fat-tree:4", &topo, &error)) << error;
  add_incast_flows(topo, /*dst_host=*/3, /*fan_in=*/12, /*seed=*/11);
  add_random_flows(topo, 20, /*seed=*/13);
  EXPECT_EQ(topo.flows.size(), 32u);
  expect_routes_valid(topo);
  for (std::size_t f = 0; f < 12; ++f) {
    EXPECT_EQ(topo.flows[f].dst_host, 3u);
  }
}

TEST(TopologyTest, FlowGenerationIsSeedDeterministic) {
  Topology a, b, c;
  std::string error;
  ASSERT_TRUE(parse_topology_spec("fat-tree:4", &a, &error));
  ASSERT_TRUE(parse_topology_spec("fat-tree:4", &b, &error));
  ASSERT_TRUE(parse_topology_spec("fat-tree:4", &c, &error));
  add_permutation_flows(a, 2, 42);
  add_permutation_flows(b, 2, 42);
  add_permutation_flows(c, 2, 43);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  bool same_as_c = a.flows.size() == c.flows.size();
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].src_host, b.flows[f].src_host);
    EXPECT_EQ(a.flows[f].dst_host, b.flows[f].dst_host);
    if (same_as_c && a.flows[f].dst_host != c.flows[f].dst_host) {
      same_as_c = false;
    }
  }
  EXPECT_FALSE(same_as_c) << "different seeds produced identical flow sets";
}

TEST(TopologyTest, StarRoutesEveryFlowThroughTheHubPort) {
  StarOptions options;
  options.hosts = 10;
  Topology topo = make_star(options);
  EXPECT_EQ(topo.switches.size(), 1u);
  EXPECT_EQ(topo.ports.size(), 1u);
  add_permutation_flows(topo, 2, 0);
  EXPECT_EQ(topo.flows.size(), 20u);
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    ASSERT_EQ(topo.route_length(f), 1u);
    EXPECT_EQ(topo.route(f)[0], 0u);
  }
}

TEST(TopologyTest, AddFlowRoutesOneThreeOrFiveHopsByTier) {
  // fat-tree:4 has two hosts per edge switch and two edges per pod.
  Topology topo;
  std::string error;
  ASSERT_TRUE(parse_topology_spec("fat-tree:4", &topo, &error)) << error;
  add_flow(topo, 0, 1);  // same edge: the destination's host port only
  add_flow(topo, 0, 2);  // same pod: edge up, agg down, edge down
  add_flow(topo, 0, 4);  // other pod: up to a core and back down
  ASSERT_EQ(topo.flows.size(), 3u);
  EXPECT_EQ(topo.flows[2].src_host, 0u);
  EXPECT_EQ(topo.flows[2].dst_host, 4u);
  EXPECT_EQ(topo.route_length(0), 1u);
  EXPECT_EQ(topo.route_length(1), 3u);
  EXPECT_EQ(topo.route_length(2), 5u);
  EXPECT_EQ(topo.max_route_length(), 5u);
  const std::uint32_t* cross = topo.route(2);
  EXPECT_EQ(topo.switches[topo.ports[cross[2]].switch_id].level,
            SwitchLevel::Core);
  expect_routes_valid(topo);
}

TEST(TopologyTest, SpecParserRejectsMalformedShapes) {
  Topology topo;
  std::string error;
  EXPECT_FALSE(parse_topology_spec("fat-tree", &topo, &error));
  EXPECT_FALSE(parse_topology_spec("fat-tree:5", &topo, &error))
      << "odd k must be rejected";
  EXPECT_FALSE(parse_topology_spec("fat-tree:x", &topo, &error));
  EXPECT_FALSE(parse_topology_spec("leaf-spine:4x8", &topo, &error));
  EXPECT_FALSE(parse_topology_spec("leaf-spine:4x8x0", &topo, &error));
  EXPECT_FALSE(parse_topology_spec("star:0", &topo, &error));
  EXPECT_FALSE(parse_topology_spec("ring:4", &topo, &error));
  EXPECT_TRUE(parse_topology_spec("fat-tree:6", &topo, &error)) << error;
}

TEST(TopologyTest, PartitionCoversEverythingAndKeepsPodsIntact) {
  Topology topo;
  std::string error;
  ASSERT_TRUE(parse_topology_spec("fat-tree:4", &topo, &error));
  add_permutation_flows(topo, 2, 0);
  for (const int shards : {1, 2, 3, 4, 7}) {
    const Partition part = partition_topology(topo, shards);
    ASSERT_EQ(part.shard_of_switch.size(), topo.switches.size());
    ASSERT_EQ(part.shard_of_port.size(), topo.ports.size());
    ASSERT_EQ(part.shard_of_flow.size(), topo.flows.size());
    for (std::size_t i = 0; i < topo.switches.size(); ++i) {
      ASSERT_LT(part.shard_of_switch[i],
                static_cast<std::uint32_t>(part.shards));
    }
    // Every switch of a pod lands on the shard of its pod.
    for (std::size_t i = 0; i < topo.switches.size(); ++i) {
      if (topo.switches[i].pod >= 0) {
        EXPECT_EQ(part.shard_of_switch[i],
                  static_cast<std::uint32_t>(topo.switches[i].pod) %
                      static_cast<std::uint32_t>(part.shards));
      }
    }
    // Ports inherit their switch; flows their ingress hop.
    for (std::size_t i = 0; i < topo.ports.size(); ++i) {
      EXPECT_EQ(part.shard_of_port[i],
                part.shard_of_switch[topo.ports[i].switch_id]);
    }
    for (std::size_t f = 0; f < topo.flows.size(); ++f) {
      EXPECT_EQ(part.shard_of_flow[f], part.shard_of_port[topo.route(f)[0]]);
    }
  }
  // One shard: no route segment crosses anything.
  EXPECT_EQ(partition_topology(topo, 1).cut_edges, 0u);
  // Clamped to >= 1 on nonsense counts, and to one shard per switch.
  EXPECT_EQ(partition_topology(topo, 0).shards, 1);
  EXPECT_EQ(partition_topology(topo, -3).shards, 1);
  EXPECT_EQ(partition_topology(topo, 20).shards, 20);
  EXPECT_EQ(partition_topology(topo, 64).shards, 20);
  Topology star;
  ASSERT_TRUE(parse_topology_spec("star:4", &star, &error));
  add_permutation_flows(star, 1, 0);
  const Partition lone = partition_topology(star, 64);
  EXPECT_EQ(lone.shards, 1);
  EXPECT_EQ(lone.cut_edges, 0u);
}

}  // namespace
}  // namespace bcn::sim::shard
