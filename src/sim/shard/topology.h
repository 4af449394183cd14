// Datacenter-scale topology generators for the sharded packet engine.
//
// A Topology describes a generated fabric as flat arrays: switches,
// directional output ports (the queueing entities -- one server per
// egress link, so port contention inside a switch is modeled instead of
// collapsing a 2k-port core switch into one FIFO), a host count, and a
// flow set with fully precomputed routes (each route is the sequence of
// output ports a frame traverses from its ingress edge switch to the
// destination host's edge port).  Routes are resolved at build time with
// a deterministic flow-id hash standing in for ECMP, so a topology is a
// pure function of its options -- the same options produce bit-identical
// fabrics on every run, which is what the cross-shard determinism
// contract (tests/sim/shard_determinism_test.cpp) is pinned against.
//
// Generators: fat-tree (k-ary, k even: k pods of k/2 edge + k/2
// aggregation switches over (k/2)^2 cores, k^3/4 hosts), leaf-spine
// (configurable radix and oversubscription), and the degenerate star
// (N hosts into one bottleneck port -- the paper's Fig. 1 plant, used
// for single-shard parity benchmarking against the unsharded engine).
//
// The partitioner edge-cuts by pod (fat-tree) / leaf (leaf-spine):
// every switch of a pod lands on one shard together with the sources
// whose ingress edge lives there, and cores/spines are dealt
// round-robin, so only inter-pod hops and reverse BCN cross shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace bcn::sim::shard {

// Switch levels double for leaf-spine: Edge = leaf, Core = spine.
enum class SwitchLevel : std::uint8_t { Edge = 0, Aggregation = 1, Core = 2 };

struct SwitchNode {
  SwitchLevel level = SwitchLevel::Edge;
  // Fat-tree pod / leaf index this switch belongs to; -1 for cores and
  // spines (they belong to no pod and are partitioned round-robin).
  std::int32_t pod = -1;
};

// One directional output port: the queueing server of the egress link.
struct PortNode {
  std::uint32_t switch_id = 0;
  double capacity = 10e9;     // egress service rate [bits/s]
  double buffer_bits = 5e6;
};

struct FlowSpec {
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;
};

struct Topology {
  std::string name;
  std::vector<SwitchNode> switches;
  std::vector<PortNode> ports;
  std::size_t num_hosts = 0;
  double host_rate = 10e9;          // host NIC line rate [bits/s]
  SimTime link_delay = 500;         // uniform per-hop propagation [ns]
  std::vector<FlowSpec> flows;
  // Flattened per-flow routes: flow f's output ports are
  // route_hops[route_offset[f] .. route_offset[f + 1]).
  std::vector<std::uint32_t> route_hops;
  std::vector<std::uint32_t> route_offset;  // size flows.size() + 1

  std::size_t route_length(std::size_t flow) const {
    return route_offset[flow + 1] - route_offset[flow];
  }
  const std::uint32_t* route(std::size_t flow) const {
    return route_hops.data() + route_offset[flow];
  }
  std::size_t max_route_length() const;
  // Hosts per edge/leaf switch (route resolution shares this shape); host
  // h hangs off edge switch h / hosts_per_edge().
  std::size_t hosts_per_edge() const { return hosts_per_edge_; }

 private:
  friend Topology make_fat_tree(const struct FatTreeOptions&);
  friend Topology make_leaf_spine(const struct LeafSpineOptions&);
  friend Topology make_star(const struct StarOptions&);
  std::size_t hosts_per_edge_ = 1;
};

struct FatTreeOptions {
  int k = 4;                     // even, >= 2
  double link_rate = 10e9;       // all fabric links (rearrangeably nonblocking)
  double host_rate = 10e9;
  // > 1 starves the edge uplinks: uplink rate = link_rate / oversubscription.
  double oversubscription = 1.0;
  double buffer_bits = 5e6;
  SimTime link_delay = 500;
};

struct LeafSpineOptions {
  int spines = 4;
  int leaves = 8;
  int hosts_per_leaf = 8;
  double host_rate = 10e9;
  // Uplink rate solves  spines * uplink = hosts_per_leaf * host_rate /
  // oversubscription  (the usual leaf oversubscription definition).
  double oversubscription = 1.0;
  double buffer_bits = 5e6;
  SimTime link_delay = 500;
};

// N hosts into a single bottleneck output port (paper Fig. 1).
struct StarOptions {
  int hosts = 5;
  double capacity = 10e9;
  double host_rate = 10e9;
  double buffer_bits = 5e6;
  SimTime link_delay = 500;
};

Topology make_fat_tree(const FatTreeOptions& options);
Topology make_leaf_spine(const LeafSpineOptions& options);
Topology make_star(const StarOptions& options);

// Parses a compact topology spec for tools/benches:
//   "fat-tree:K"                       e.g. fat-tree:8
//   "leaf-spine:SPINESxLEAVESxHOSTS"   e.g. leaf-spine:4x16x8
//   "star:N"                           e.g. star:50
// Returns false and fills *error on a malformed spec.
bool parse_topology_spec(const std::string& spec, Topology* out,
                         std::string* error);

// --- flow sets -----------------------------------------------------------
// Flows append to topo.flows and their routes are resolved immediately.

// One flow from host src to host dst (src != dst).
void add_flow(Topology& topo, std::uint32_t src, std::uint32_t dst);

// `rounds` seeded host permutations (fixed points rotated away), one flow
// per host per round: flows = rounds * num_hosts.  Deterministic.
void add_permutation_flows(Topology& topo, int rounds, std::uint64_t seed);

// --- partitioner ---------------------------------------------------------

struct Partition {
  int shards = 1;
  std::vector<std::uint32_t> shard_of_switch;
  std::vector<std::uint32_t> shard_of_port;  // inherited from the switch
  std::vector<std::uint32_t> shard_of_flow;  // co-located with ingress edge
  // Links whose endpoints land on different shards (reporting only; the
  // conservative window is pinned to link_delay regardless -- see
  // engine.h for why).
  std::size_t cut_edges = 0;
};

// Edge-cut by pod/leaf: pod p -> shard p % shards, cores/spines
// round-robin by switch id, flows follow their ingress edge switch.
// `shards` is clamped to [1, switches]: a shard beyond one per switch
// would own nothing.  Counts above the pod count still leave some shards
// sparse (determinism does not depend on balance).
Partition partition_topology(const Topology& topo, int shards);

}  // namespace bcn::sim::shard
