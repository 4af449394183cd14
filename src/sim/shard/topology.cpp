#include "sim/shard/topology.h"

#include <algorithm>
#include <cstdio>

#include "common/grammar.h"
#include "common/rng.h"

namespace bcn::sim::shard {
namespace {

// splitmix64: the deterministic stand-in for ECMP path hashing.  Routes
// must not depend on anything but the flow id and topology shape.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t Topology::max_route_length() const {
  std::size_t longest = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    longest = std::max(longest, route_length(f));
  }
  return longest;
}

// --- fat-tree ------------------------------------------------------------
//
// Switch ids: edge(p, e) = p*h + e; agg(p, a) = E + p*h + a;
// core(c) = 2E + c, with h = k/2, E = k*h, c in [0, h^2).  Core c
// attaches to agg index g = c / h in every pod.  Port ids are allocated
// contiguously per switch in switch-id order:
//   edge(p, e): h host-down ports (slot s), then h up ports (to agg a)
//   agg(p, a):  h down ports (to edge e), then h up ports (to core j of
//               its group, j in [0, h))
//   core(c):    k down ports (to pod p)
Topology make_fat_tree(const FatTreeOptions& options) {
  const int k = std::max(2, options.k - (options.k % 2));
  const std::uint32_t h = static_cast<std::uint32_t>(k) / 2;
  const std::uint32_t edges = static_cast<std::uint32_t>(k) * h;
  const std::uint32_t aggs = edges;
  const std::uint32_t cores = h * h;
  const double uplink_rate = options.link_rate / options.oversubscription;

  Topology topo;
  topo.name = "fat-tree:" + std::to_string(k);
  topo.num_hosts = static_cast<std::size_t>(edges) * h;
  topo.host_rate = options.host_rate;
  topo.link_delay = options.link_delay;
  topo.hosts_per_edge_ = h;

  topo.switches.resize(edges + aggs + cores);
  for (std::uint32_t i = 0; i < edges; ++i) {
    topo.switches[i] = {SwitchLevel::Edge, static_cast<std::int32_t>(i / h)};
  }
  for (std::uint32_t i = 0; i < aggs; ++i) {
    topo.switches[edges + i] = {SwitchLevel::Aggregation,
                                static_cast<std::int32_t>(i / h)};
  }
  for (std::uint32_t i = 0; i < cores; ++i) {
    topo.switches[edges + aggs + i] = {SwitchLevel::Core, -1};
  }

  // Every switch owns a fixed port block; precompute the bases.
  const std::uint32_t ports_per_edge = 2 * h;  // h host-down + h up
  const std::uint32_t ports_per_agg = 2 * h;   // h down + h up
  const std::uint32_t edge_base = 0;
  const std::uint32_t agg_base = edges * ports_per_edge;
  const std::uint32_t core_base = agg_base + aggs * ports_per_agg;
  topo.ports.resize(core_base + cores * static_cast<std::uint32_t>(k));
  for (std::uint32_t e = 0; e < edges; ++e) {
    for (std::uint32_t s = 0; s < h; ++s) {  // down to host slot s
      topo.ports[edge_base + e * ports_per_edge + s] = {
          e, options.host_rate, options.buffer_bits};
    }
    for (std::uint32_t a = 0; a < h; ++a) {  // up to agg a
      topo.ports[edge_base + e * ports_per_edge + h + a] = {
          e, uplink_rate, options.buffer_bits};
    }
  }
  for (std::uint32_t a = 0; a < aggs; ++a) {
    for (std::uint32_t e = 0; e < h; ++e) {  // down to edge e of its pod
      topo.ports[agg_base + a * ports_per_agg + e] = {
          edges + a, options.link_rate, options.buffer_bits};
    }
    for (std::uint32_t j = 0; j < h; ++j) {  // up to core j of its group
      topo.ports[agg_base + a * ports_per_agg + h + j] = {
          edges + a, uplink_rate, options.buffer_bits};
    }
  }
  for (std::uint32_t c = 0; c < cores; ++c) {
    for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(k); ++p) {
      topo.ports[core_base + c * k + p] = {edges + aggs + c,
                                           options.link_rate,
                                           options.buffer_bits};
    }
  }

  topo.route_offset.push_back(0);
  return topo;
}

namespace {

// Route resolution shares the port-numbering scheme above.
struct FatTreeShape {
  std::uint32_t h, k, edges, ports_per_sw, agg_base, core_base;
};

void fat_tree_route(const FatTreeShape& ft, std::uint32_t flow_id,
                    std::uint32_t src, std::uint32_t dst,
                    std::vector<std::uint32_t>& hops) {
  const std::uint32_t e1 = src / ft.h, e2 = dst / ft.h;
  const std::uint32_t p1 = e1 / ft.h, p2 = e2 / ft.h;
  const std::uint64_t hash = mix64(flow_id);
  const auto edge_up = [&](std::uint32_t e, std::uint32_t a) {
    return e * ft.ports_per_sw + ft.h + a;
  };
  const auto edge_down = [&](std::uint32_t e, std::uint32_t s) {
    return e * ft.ports_per_sw + s;
  };
  const auto agg_down = [&](std::uint32_t p, std::uint32_t a,
                            std::uint32_t e) {
    return ft.agg_base + (p * ft.h + a) * ft.ports_per_sw + e;
  };
  const auto agg_up = [&](std::uint32_t p, std::uint32_t a, std::uint32_t j) {
    return ft.agg_base + (p * ft.h + a) * ft.ports_per_sw + ft.h + j;
  };
  if (e1 == e2) {  // same edge switch: one queueing hop, the host port
    hops.push_back(edge_down(e2, dst % ft.h));
    return;
  }
  const auto a = static_cast<std::uint32_t>(hash % ft.h);
  if (p1 == p2) {  // same pod: up to one agg and back down
    hops.push_back(edge_up(e1, a));
    hops.push_back(agg_down(p1, a, e2 % ft.h));
    hops.push_back(edge_down(e2, dst % ft.h));
    return;
  }
  // Cross-pod: agg a then core a*h + j; core group a descends into agg a
  // of the destination pod.
  const auto j = static_cast<std::uint32_t>((hash >> 32) % ft.h);
  hops.push_back(edge_up(e1, a));
  hops.push_back(agg_up(p1, a, j));
  hops.push_back(ft.core_base + (a * ft.h + j) * ft.k + p2);
  hops.push_back(agg_down(p2, a, e2 % ft.h));
  hops.push_back(edge_down(e2, dst % ft.h));
}

}  // namespace

// --- leaf-spine ----------------------------------------------------------
//
// Switch ids: leaf(l) = l, spine(s) = L + s.  Ports: leaf l owns H
// host-down ports then S up ports; spine s owns L down ports.
Topology make_leaf_spine(const LeafSpineOptions& options) {
  const auto S = static_cast<std::uint32_t>(std::max(1, options.spines));
  const auto L = static_cast<std::uint32_t>(std::max(1, options.leaves));
  const auto H = static_cast<std::uint32_t>(std::max(1, options.hosts_per_leaf));
  const double uplink_rate =
      H * options.host_rate / (S * options.oversubscription);

  Topology topo;
  topo.name = "leaf-spine:" + std::to_string(S) + "x" + std::to_string(L) +
              "x" + std::to_string(H);
  topo.num_hosts = static_cast<std::size_t>(L) * H;
  topo.host_rate = options.host_rate;
  topo.link_delay = options.link_delay;
  topo.hosts_per_edge_ = H;

  topo.switches.resize(L + S);
  for (std::uint32_t l = 0; l < L; ++l) {
    topo.switches[l] = {SwitchLevel::Edge, static_cast<std::int32_t>(l)};
  }
  for (std::uint32_t s = 0; s < S; ++s) {
    topo.switches[L + s] = {SwitchLevel::Core, -1};
  }

  const std::uint32_t ports_per_leaf = H + S;
  const std::uint32_t spine_base = L * ports_per_leaf;
  topo.ports.resize(spine_base + S * L);
  for (std::uint32_t l = 0; l < L; ++l) {
    for (std::uint32_t s = 0; s < H; ++s) {
      topo.ports[l * ports_per_leaf + s] = {l, options.host_rate,
                                            options.buffer_bits};
    }
    for (std::uint32_t s = 0; s < S; ++s) {
      topo.ports[l * ports_per_leaf + H + s] = {l, uplink_rate,
                                                options.buffer_bits};
    }
  }
  for (std::uint32_t s = 0; s < S; ++s) {
    for (std::uint32_t l = 0; l < L; ++l) {
      topo.ports[spine_base + s * L + l] = {L + s, uplink_rate,
                                            options.buffer_bits};
    }
  }

  topo.route_offset.push_back(0);
  return topo;
}

// --- star ----------------------------------------------------------------

Topology make_star(const StarOptions& options) {
  Topology topo;
  topo.name = "star:" + std::to_string(options.hosts);
  topo.num_hosts = static_cast<std::size_t>(std::max(1, options.hosts));
  topo.host_rate = options.host_rate;
  topo.link_delay = options.link_delay;
  topo.hosts_per_edge_ = topo.num_hosts;
  topo.switches.push_back({SwitchLevel::Edge, 0});
  topo.ports.push_back({0, options.capacity, options.buffer_bits});
  topo.route_offset.push_back(0);
  return topo;
}

// --- route resolution + flow sets ---------------------------------------

namespace {

void resolve_route(Topology& topo, std::uint32_t flow_id, std::uint32_t src,
                   std::uint32_t dst) {
  if (topo.switches.size() == 1) {  // star: every flow crosses the hub port
    topo.route_hops.push_back(0);
  } else if (topo.switches.back().level == SwitchLevel::Aggregation ||
             (topo.switches.size() > 2 &&
              topo.switches[topo.switches.size() - 1].level ==
                  SwitchLevel::Core &&
              std::any_of(topo.switches.begin(), topo.switches.end(),
                          [](const SwitchNode& sw) {
                            return sw.level == SwitchLevel::Aggregation;
                          }))) {
    // Fat-tree: reconstruct the shape constants from the switch table.
    FatTreeShape ft;
    ft.h = static_cast<std::uint32_t>(
        std::count_if(topo.switches.begin(), topo.switches.end(),
                      [](const SwitchNode& sw) {
                        return sw.level == SwitchLevel::Edge && sw.pod == 0;
                      }));
    ft.k = 2 * ft.h;
    ft.edges = ft.k * ft.h;
    ft.ports_per_sw = 2 * ft.h;
    ft.agg_base = ft.edges * ft.ports_per_sw;
    ft.core_base = 2 * ft.agg_base;
    fat_tree_route(ft, flow_id, src, dst, topo.route_hops);
  } else {
    // Leaf-spine.
    const auto H = static_cast<std::uint32_t>(topo.hosts_per_edge());
    const auto L = static_cast<std::uint32_t>(
        std::count_if(topo.switches.begin(), topo.switches.end(),
                      [](const SwitchNode& sw) {
                        return sw.level == SwitchLevel::Edge;
                      }));
    const auto S = static_cast<std::uint32_t>(topo.switches.size()) - L;
    const std::uint32_t ports_per_leaf = H + S;
    const std::uint32_t spine_base = L * ports_per_leaf;
    const std::uint32_t l1 = src / H, l2 = dst / H;
    if (l1 == l2) {
      topo.route_hops.push_back(l2 * ports_per_leaf + dst % H);
    } else {
      const auto s =
          static_cast<std::uint32_t>(mix64(flow_id) % S);
      topo.route_hops.push_back(l1 * ports_per_leaf + H + s);
      topo.route_hops.push_back(spine_base + s * L + l2);
      topo.route_hops.push_back(l2 * ports_per_leaf + dst % H);
    }
  }
  topo.route_offset.push_back(
      static_cast<std::uint32_t>(topo.route_hops.size()));
}

}  // namespace

void add_flow(Topology& topo, std::uint32_t src, std::uint32_t dst) {
  const auto flow_id = static_cast<std::uint32_t>(topo.flows.size());
  topo.flows.push_back({src, dst});
  resolve_route(topo, flow_id, src, dst);
}

void add_permutation_flows(Topology& topo, int rounds, std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(topo.num_hosts);
  std::vector<std::uint32_t> perm(n);
  for (int r = 0; r < rounds; ++r) {
    for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
    Rng rng(seed + static_cast<std::uint64_t>(r) * 0x9e3779b9ull);
    for (std::uint32_t i = n; i > 1; --i) {  // Fisher-Yates
      std::swap(perm[i - 1], perm[rng.uniform_int(i)]);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      // Rotate fixed points away so no host talks to itself.
      const std::uint32_t dst = perm[i] == i ? (i + 1) % n : perm[i];
      if (dst != i) add_flow(topo, i, dst);
    }
  }
}

bool parse_topology_spec(const std::string& spec, Topology* out,
                         std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    return fail("expected kind:shape, e.g. fat-tree:8 or leaf-spine:4x16x8");
  }
  const std::string kind = spec.substr(0, colon);
  const std::string shape = spec.substr(colon + 1);
  // A shape component is a count of at most 10^6; a malformed one reads
  // as 0, which every kind's lower bound rejects.
  const auto component = [](const std::string& s) {
    return static_cast<int>(scan_count(s, 1'000'000).value_or(0));
  };
  if (kind == "fat-tree") {
    FatTreeOptions options;
    options.k = component(shape);
    if (options.k < 2 || options.k % 2) {
      return fail("fat-tree shape must be an even k >= 2, e.g. fat-tree:8");
    }
    *out = make_fat_tree(options);
    return true;
  }
  if (kind == "leaf-spine") {
    LeafSpineOptions options;
    const auto x1 = shape.find('x');
    const auto x2 = x1 == std::string::npos ? x1 : shape.find('x', x1 + 1);
    if (x2 != std::string::npos) {
      options.spines = component(shape.substr(0, x1));
      options.leaves = component(shape.substr(x1 + 1, x2 - x1 - 1));
      options.hosts_per_leaf = component(shape.substr(x2 + 1));
    }
    if (x2 == std::string::npos || options.spines < 1 || options.leaves < 1 ||
        options.hosts_per_leaf < 1) {
      return fail(
          "leaf-spine shape must be SPINESxLEAVESxHOSTS, e.g. "
          "leaf-spine:4x16x8");
    }
    *out = make_leaf_spine(options);
    return true;
  }
  if (kind == "star") {
    StarOptions options;
    options.hosts = component(shape);
    if (options.hosts < 1) {
      return fail("star shape must be a host count >= 1, e.g. star:50");
    }
    *out = make_star(options);
    return true;
  }
  return fail("unknown topology kind '" + kind +
              "' (known: fat-tree, leaf-spine, star)");
}

Partition partition_topology(const Topology& topo, int shards) {
  Partition part;
  part.shards = std::max(1, shards);
  // A shard beyond one per switch would own no port and no flow.
  if (static_cast<std::size_t>(part.shards) > topo.switches.size()) {
    part.shards = std::max(1, static_cast<int>(topo.switches.size()));
  }
  const auto n = static_cast<std::uint32_t>(part.shards);
  part.shard_of_switch.resize(topo.switches.size());
  for (std::size_t i = 0; i < topo.switches.size(); ++i) {
    const SwitchNode& sw = topo.switches[i];
    part.shard_of_switch[i] = sw.pod >= 0
                                  ? static_cast<std::uint32_t>(sw.pod) % n
                                  : static_cast<std::uint32_t>(i) % n;
  }
  part.shard_of_port.resize(topo.ports.size());
  for (std::size_t i = 0; i < topo.ports.size(); ++i) {
    part.shard_of_port[i] = part.shard_of_switch[topo.ports[i].switch_id];
  }
  part.shard_of_flow.resize(topo.flows.size());
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    part.shard_of_flow[f] = part.shard_of_port[topo.route(f)[0]];
  }
  // Edge-cut accounting: consecutive route hops on different shards.
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    const std::uint32_t* hops = topo.route(f);
    for (std::size_t i = 0; i + 1 < topo.route_length(f); ++i) {
      if (part.shard_of_port[hops[i]] != part.shard_of_port[hops[i + 1]]) {
        ++part.cut_edges;
      }
    }
  }
  return part;
}

}  // namespace bcn::sim::shard
