// Seeded flow sets beside add_permutation_flows, for the fabric tests and
// the fabric fuzzer's scenario draws.  Deterministic in the seed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "sim/shard/topology.h"

namespace bcn::testing {

// The edge switch host h hangs off.
inline std::uint32_t edge_of_host(const sim::shard::Topology& topo,
                                  std::uint32_t host) {
  return static_cast<std::uint32_t>(host / topo.hosts_per_edge());
}

// `count` flows between uniformly drawn distinct hosts.
inline void add_random_flows(sim::shard::Topology& topo, std::size_t count,
                             std::uint64_t seed) {
  const auto n = static_cast<std::uint64_t>(topo.num_hosts);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(n));
    auto dst = static_cast<std::uint32_t>(rng.uniform_int(n));
    if (dst == src) dst = static_cast<std::uint32_t>((dst + 1) % n);
    if (dst == src) continue;  // single-host topology
    sim::shard::add_flow(topo, src, dst);
  }
}

// `fan_in` flows from random sources other than `dst_host` into it.
inline void add_incast_flows(sim::shard::Topology& topo,
                             std::uint32_t dst_host, std::size_t fan_in,
                             std::uint64_t seed) {
  const auto n = static_cast<std::uint64_t>(topo.num_hosts);
  Rng rng(seed);
  std::size_t added = 0;
  while (added < fan_in) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(n));
    if (src == dst_host) {
      if (n <= 1) break;
      continue;
    }
    sim::shard::add_flow(topo, src, dst_host);
    ++added;
  }
}

}  // namespace bcn::testing
