// The three benchmark workloads.  Each has an end-to-end run (tracing
// off: set-up, a timed closed loop for Options::seconds, then the
// correctness checks) and a traced layer census (per-layer metrics and a
// layer table whose self times sum to a traced operation's wall time).
#pragma once

#include "harness.h"

namespace perfbench {

// map: analysis::compute_stability_map, Adaptive, Linearized, 97x97
// cells on the E22 plant, 2 exec threads.
Result run_map(const Options& options);
Result trace_map(const Options& options);

// fabric: sim::shard::run_fabric on fat-tree:8, 2 permutation flows per
// host, 10 ms simulated, 2 shards.
Result run_fabric(const Options& options);
Result trace_fabric(const Options& options);

// service: an in-process service::ServiceServer (2 pool workers) driven
// by a closed loop of 2 LineClient connections, 90 % hot / 10 % cold
// verdict requests.
Result run_service(const Options& options);
Result trace_service(const Options& options);

}  // namespace perfbench
