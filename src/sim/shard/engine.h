// Partitioned conservative parallel discrete-event engine.
//
// One Simulator shard per worker thread, each owning a topology
// partition (ports + the sources homed at their ingress edge).  Time
// advances in epochs of a fixed quantum Q; within an epoch every shard
// runs its own Simulator -- pacing tokens on the zero-alloc event heap,
// port departures on its delay FIFO, the epoch's injected handoffs on
// its presorted lane -- and all inter-entity handoffs are staged as
// TransferRecords.  Shards synchronize at epoch boundaries with a
// sense-reversing barrier; no null messages are exchanged, because the
// lookahead is structural: every handoff travels at least one link, so
// a record staged during epoch e delivers at or after the start of epoch
// e+1 and the barrier alone makes the exchange safe (conservative PDES
// with lookahead Q).
//
// THE QUANTUM PIN IS THE DETERMINISM CONTRACT.  Q is pinned to the
// topology's link_delay -- a shard-count-invariant quantity -- and NOT
// to the minimum *cross-shard* delay, which would change with the
// partition and silently re-bucket handoffs.  With uniform-delay
// generators the two coincide, so nothing is lost; what is gained is
// that epoch boundaries, staging buckets, the canonical injection order
// (sorted by (deliver_at, src_gid, src_seq)), and therefore the FNV-1a
// trajectory digest are bitwise-identical for every shard count,
// including 1.  Every record in epoch e's bucket is due in [eQ, (e+1)Q),
// so injection orders the bucket by counting sort on the offset into the
// epoch (canonical_order, sim/shard/fabric.h), which gives exactly the
// comparison sort's order, and appends each record to the lane once,
// with the next seq from the counter the shard's timers share, so the
// heap, the lane and the FIFO merge on (when, seq) into one order on
// every shard count.
// tests/sim/shard_determinism_test.cpp pins this.
//
// Cross-shard records travel in mailboxes that the sender owns, one per
// (epoch parity, destination shard).  During epoch e a shard appends
// only to its boxes of parity e & 1, and at the top of epoch e+1 each
// shard empties the boxes of that parity addressed to it into its epoch
// buckets, while senders fill the other parity.  The barrier between
// the two epochs orders both hand-overs, so the exchange adds no atomic
// and no bound: a record staged in epoch e is not due before epoch e+1,
// and arrival order is irrelevant because injection sorts every bucket
// on a unique key.
//
// Observability is per-shard and merged deterministically after the
// join.  A traced multi-shard run records, per worker and epoch, the
// spans shard.drain (the top-of-epoch mailbox collection, empty at epoch
// 0), shard.inject (with its record count), sim.run_until and
// shard.barrier (the wait).  Counters sum; queue-occupancy series add exactly
// (queue bits are integer-valued doubles -- multiples of the frame size
// -- far below 2^53, so addition order cannot perturb them); per-flow
// rates are read in gid order single-threaded.  Each shard owns a
// private RunMonitor; the engine folds them with RunMonitor::merge_from,
// whose output is ordered by (t, invariant, message), not by arrival
// thread.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/monitor.h"
#include "sim/rate_regulator.h"
#include "sim/shard/topology.h"

namespace bcn {
class ArgParser;
}

namespace bcn::sim::shard {

struct FabricOptions {
  // Congestion-point parameters shared by every port (eq. (1)).
  double q0 = 2.5e6;
  double w = 2.0;
  double pm = 0.01;  // deterministic sampling: every round(1/pm) arrivals
  // Reaction-point law (the fluid-matched BCN regulator).
  RegulatorConfig regulator;
  double initial_rate = 1e9;  // every flow starts here [bits/s]
  SimTime duration = 50 * kMillisecond;
  // Queue-occupancy sampling cadence; rounded up to a whole number of
  // epochs so the sample instants are shard-invariant.
  SimTime sample_interval = kMillisecond;
  std::uint32_t trace_port = 0;  // port whose series enters the digest
  // Per-shard runtime monitors (unarmed by default).  The engine always
  // records violations (never exits mid-run from a worker); callers
  // decide what a non-empty merged violation list means.
  obs::MonitorSpec monitors;
};

struct FabricFlowStats {
  std::uint64_t frames_sent = 0;
  double rate = 0.0;  // final regulator rate [bits/s]
};

struct FabricResult {
  // FNV-1a over the trace-port series, the global queue series, every
  // port's final counters in gid order, and every flow's final stats in
  // gid order.  Bitwise-identical across shard counts.
  std::uint64_t digest = 0;
  std::uint64_t epochs = 0;
  std::uint64_t events_executed = 0;  // summed over shards; invariant
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_sampled = 0;
  std::uint64_t bcn_sent = 0;
  double bits_delivered = 0.0;
  // Where the frames not yet delivered or dropped are at the horizon:
  // queued at a port (the one in service included), or staged for their
  // next hop in an epoch bucket or a mailbox.  Frames are conserved:
  // frames_sent == frames_delivered + frames_dropped + frames_queued +
  // frames_in_flight.  Both are shard-invariant, but they stay out of the
  // digest and bcn_fabric's artifact, so the pinned values hold.
  std::uint64_t frames_queued = 0;
  std::uint64_t frames_in_flight = 0;
  // Handoffs staged (shard-invariant) vs those that crossed a shard
  // boundary (partition-dependent; excluded from digest and artifacts).
  std::uint64_t staged_records = 0;
  std::uint64_t cross_shard_records = 0;
  int shards = 1;  // the shards that ran: at most one per switch

  std::vector<double> trace_queue;  // trace-port occupancy per sample
  std::vector<double> total_queue;  // fabric-wide occupancy per sample
  std::vector<FabricFlowStats> flow_stats;  // indexed by flow id

  // Merged monitor outcome (RunMonitor::merge_from over shards).
  std::uint64_t monitor_checks = 0;
  std::uint64_t monitor_violations = 0;
  std::vector<obs::Violation> violations;
};

// Largest --shards / BCN_SHARDS value the tools accept (six digits).
inline constexpr int kMaxShards = 999'999;

// The span flag --<name> in microseconds (`fallback` when absent) as
// simulated time, for --duration-us and --sample-us.  Throws UsageError
// naming the flag unless the span is at least 1 ns and inside the
// simulated clock: a positive span under 1 ns truncates to none.
SimTime span_us(const ArgParser& args, const char* name, double fallback);

// Runs `topo` for options.duration on `shards` shards, clamped to [1,
// switches] as partition_topology clamps them; FabricResult::shards
// reports the count that ran.  One shard runs inline on the calling
// thread; otherwise each shard runs on a thread of its own, named
// shard-<s>, and every one is joined before the call returns.
FabricResult run_fabric(const Topology& topo, const FabricOptions& options,
                        int shards);

}  // namespace bcn::sim::shard
