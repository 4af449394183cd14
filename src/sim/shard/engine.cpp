#include "sim/shard/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "common/args.h"
#include "common/format.h"
#include "obs/tracing.h"
#include "sim/shard/fabric.h"

namespace bcn::sim::shard {
namespace {

// Same FNV-1a as the PR 4 trajectory digest (tests/sim/determinism_test).
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix_u64(h, bits);
}

// Sense-reversing epoch barrier.  What a shard writes before it arrives
// happens before what any shard does after it leaves (acq_rel arrivals,
// a release of `sense_` by the last), which is all the mailboxes need.
// yield keeps it usable when shards outnumber cores; a std::barrier
// (futex wait) measured slower on the 2-shard fabric.
class EpochBarrier {
 public:
  explicit EpochBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait(bool* sense) {
    const bool my = !*sense;
    *sense = my;
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      count_.store(0, std::memory_order_relaxed);
      sense_.store(my, std::memory_order_release);
    } else {
      while (sense_.load(std::memory_order_acquire) != my) {
        std::this_thread::yield();
      }
    }
  }

 private:
  const int parties_;
  std::atomic<int> count_{0};
  std::atomic<bool> sense_{false};
};

class Shard;

struct Shared {
  const Topology* topo = nullptr;
  const FabricOptions* options = nullptr;
  SimTime quantum = 1;
  std::uint64_t total_epochs = 0;
  std::uint64_t sample_every_epochs = 1;
  std::uint64_t total_samples = 0;
  std::uint32_t source_gid_base = 0;  // ports are [0, base), sources after
  std::vector<std::uint32_t> shard_of_gid;
  std::vector<EventTarget*> targets;  // by gid; read-only while running
  std::vector<std::unique_ptr<Shard>> shards;  // each reads its peers' mail
  std::unique_ptr<EpochBarrier> barrier;
};

class Shard final : public TransferSink {
 public:
  Simulator sim;
  int index = 0;
  Shared* shared = nullptr;
  std::vector<FabricPort> ports;       // local, in gid order
  std::vector<FabricSource> sources;   // local, in flow-id order
  std::vector<std::uint32_t> port_gids;
  std::vector<std::uint32_t> flow_ids;
  std::vector<std::vector<TransferRecord>> buckets;  // epoch ring
  std::vector<std::uint64_t> bucket_epoch;  // absolute epoch per ring slot
  std::size_t ring = 1;
  // canonical_order's scratch: Q + 1 counters and the bucket's order.
  std::vector<std::uint32_t> order_counts;
  std::vector<std::uint32_t> order;
  // Cross-shard mail, outbox[parity * S + dst]: this shard appends to
  // the boxes of the running epoch's parity, and shard dst empties its
  // box at the top of the next epoch, across the barrier.
  std::vector<std::vector<TransferRecord>> outbox;
  std::size_t outbox_base = 0;  // parity * S of the running epoch
  bool sense = false;
  std::uint64_t staged = 0;
  std::uint64_t cross = 0;
  obs::RunMonitor monitor;
  FabricPort* trace_port = nullptr;    // set on the owning shard only
  std::vector<double> queue_partial;   // per sample: sum of local ports
  std::vector<double> trace_partial;   // per sample: trace-port occupancy

  void stage(const TransferRecord& record) override {
    ++staged;
    const std::uint32_t dst = shared->shard_of_gid[record.dst_gid];
    if (static_cast<int>(dst) == index) {
      bucket_of(record.deliver_at).push_back(record);
      return;
    }
    ++cross;
    outbox[outbox_base + dst].push_back(record);
  }

  std::vector<TransferRecord>& bucket_of(SimTime deliver_at) {
    const auto epoch =
        static_cast<std::uint64_t>(deliver_at / shared->quantum);
    const auto slot = static_cast<std::size_t>(epoch % ring);
    // The ring is deeper than the longest delivery horizon, so every
    // record landing in a slot shares one absolute epoch.
    bucket_epoch[slot] = epoch;
    return buckets[slot];
  }

  // Moves the mail every shard sent this one during an epoch of `parity`
  // into the epoch buckets; the barriers before and after order it
  // against the senders.  canonical_order makes arrival order irrelevant.
  void collect(std::uint64_t parity) {
    const std::size_t box = parity * shared->shards.size() +
                            static_cast<std::size_t>(index);
    for (const std::unique_ptr<Shard>& peer : shared->shards) {
      std::vector<TransferRecord>& mail = peer->outbox[box];
      for (const TransferRecord& record : mail) {
        bucket_of(record.deliver_at).push_back(record);
      }
      mail.clear();
    }
  }

  // Canonical injection: the epoch's records appended to the
  // Simulator's presorted lane in the shard-invariant order that
  // canonical_order computes as indices into the bucket, so each record
  // is copied once, into the lane.  Each append takes the next seq, as a
  // schedule would, so the (when, seq) order -- and every tie with a
  // local timer -- is the same global order on every shard count.  Every
  // record is due in [eQ, (e+1)Q), after now() (canonical_order throws
  // otherwise), and the epoch's run_until drains the lane.  Returns the
  // number of records injected.
  std::size_t inject(std::uint64_t epoch) {
    std::vector<TransferRecord>& bucket = buckets[epoch % ring];
    const std::size_t n = bucket.size();
    if (n == 0) return 0;
    const SimTime q = shared->quantum;
    canonical_order(bucket, static_cast<SimTime>(epoch) * q, q,
                    &order_counts, &order);
    for (const std::uint32_t i : order) {
      const TransferRecord& record = bucket[i];
      sim.append_sorted(record.deliver_at, shared->targets[record.dst_gid],
                        record.kind, record.payload);
    }
    bucket.clear();
    return n;
  }

  void sample(std::uint64_t sample_index, SimTime t) {
    double sum = 0.0;
    for (const FabricPort& port : ports) sum += port.queue_bits();
    queue_partial[sample_index] = sum;
    if (trace_port) trace_partial[sample_index] = trace_port->queue_bits();
    if (monitor.armed()) {
      obs::MonitorSample s;
      s.t = to_seconds(t);
      s.queue_bits = sum;
      double rate = 0.0;
      for (const FabricSource& src : sources) {
        rate += src.rate();
        s.frames_sent += src.frames_sent();
      }
      s.aggregate_rate = rate;
      for (const FabricPort& port : ports) {
        const FabricPortCounters& c = port.counters();
        s.frames_enqueued += c.arrivals - c.drops;
        s.frames_dropped += c.drops;
        s.frames_delivered += c.delivered_frames;
        s.bits_delivered += c.delivered_bits;
      }
      monitor.on_sample(s);
    }
  }

  void run_epoch(std::uint64_t e) {
    const SimTime q = shared->quantum;
    {
      obs::TraceSpan span("shard.inject");
      span.arg("records", static_cast<double>(inject(e)));
    }
    sim.run_until(static_cast<SimTime>(e + 1) * q - 1);
    if ((e + 1) % shared->sample_every_epochs == 0) {
      const std::uint64_t s = (e + 1) / shared->sample_every_epochs - 1;
      if (s < shared->total_samples) {
        sample(s, static_cast<SimTime>(e + 1) * q);
      }
    }
  }

  // One shard.drain, shard.inject, sim.run_until and shard.barrier span
  // per epoch on each worker.  shard.drain collects the previous epoch's
  // mail; at epoch 0 there is none, but the span still counts the epoch.
  void run() {
    const std::size_t S = shared->shards.size();
    for (std::uint64_t e = 0; e < shared->total_epochs; ++e) {
      {
        obs::TraceSpan span("shard.drain");
        collect((e + 1) & 1);
      }
      outbox_base = static_cast<std::size_t>(e & 1) * S;
      run_epoch(e);
      obs::TraceSpan span("shard.barrier");
      shared->barrier->arrive_and_wait(&sense);
    }
  }

  // Single-shard fast path: no mail, no barrier, and empty epochs are
  // skipped wholesale by peeking the next event deadline and the pending
  // buckets.  Skips are clamped to the next sample boundary, and nothing
  // observable happens in a skipped epoch, so the trajectory (and the
  // digest) match the barrier loop exactly.
  void run_single() {
    const std::uint64_t q = static_cast<std::uint64_t>(shared->quantum);
    const std::uint64_t se = shared->sample_every_epochs;
    const std::uint64_t total = shared->total_epochs;
    for (std::uint64_t e = 0; e < total;) {
      run_epoch(e);
      std::uint64_t next = total;
      if (!sim.idle()) {
        next = std::min(
            next, static_cast<std::uint64_t>(sim.next_event_time()) / q);
      }
      for (std::size_t i = 0; i < ring; ++i) {
        if (!buckets[i].empty()) next = std::min(next, bucket_epoch[i]);
      }
      next = std::min(next, ((e + 1) / se + 1) * se - 1);  // sample boundary
      e = std::max(e + 1, next);
    }
  }
};

}  // namespace

SimTime span_us(const ArgParser& args, const char* name, double fallback) {
  const double ns = args.get_double(name, fallback) * kMicrosecond;
  if (!(ns >= 1.0 && ns < 0x1p63)) {
    throw UsageError(std::string("--") + name +
                     ": must be > 0, at least 0.001 (1 ns), and inside the "
                     "simulated clock");
  }
  return static_cast<SimTime>(ns);
}

FabricResult run_fabric(const Topology& topo, const FabricOptions& options,
                        int shard_count) {
  const Partition part = partition_topology(topo, shard_count);
  const int S = part.shards;
  const auto P = static_cast<std::uint32_t>(topo.ports.size());
  const auto F = static_cast<std::uint32_t>(topo.flows.size());

  Shared shared;
  shared.topo = &topo;
  shared.options = &options;
  shared.quantum = std::max<SimTime>(1, topo.link_delay);
  shared.total_epochs = static_cast<std::uint64_t>(
      (options.duration + shared.quantum - 1) / shared.quantum);
  shared.sample_every_epochs = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(options.sample_interval / shared.quantum));
  shared.total_samples = shared.total_epochs / shared.sample_every_epochs;
  shared.source_gid_base = P;

  shared.shard_of_gid.resize(P + F);
  for (std::uint32_t p = 0; p < P; ++p) {
    shared.shard_of_gid[p] = part.shard_of_port[p];
  }
  for (std::uint32_t f = 0; f < F; ++f) {
    shared.shard_of_gid[P + f] = part.shard_of_flow[f];
  }
  shared.targets.assign(P + F, nullptr);
  shared.barrier = std::make_unique<EpochBarrier>(S);

  const std::uint64_t sample_every_arrivals = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(1.0 / options.pm)));
  const std::uint32_t trace_gid = std::min(options.trace_port, P - 1);

  // --- build shards (single-threaded) ------------------------------------
  std::vector<std::unique_ptr<Shard>>& shards = shared.shards;
  shards.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    shards.push_back(std::make_unique<Shard>());
    Shard& shard = *shards.back();
    shard.index = s;
    shard.shared = &shared;
    shard.ring = topo.max_route_length() + 3;
    shard.buckets.resize(shard.ring);
    shard.bucket_epoch.assign(shard.ring, 0);
    shard.outbox.resize(2 * static_cast<std::size_t>(S));
    shard.queue_partial.assign(shared.total_samples, 0.0);
    for (std::uint32_t p = 0; p < P; ++p) {
      if (shared.shard_of_gid[p] == static_cast<std::uint32_t>(s)) {
        shard.port_gids.push_back(p);
      }
    }
    for (std::uint32_t f = 0; f < F; ++f) {
      if (shared.shard_of_gid[P + f] == static_cast<std::uint32_t>(s)) {
        shard.flow_ids.push_back(f);
      }
    }
    // Exact sizing before init: entity pointers enter the target table.
    shard.ports.resize(shard.port_gids.size());
    shard.sources.resize(shard.flow_ids.size());

    obs::RunMonitor* monitor = nullptr;
    if (options.monitors.any()) {
      obs::MonitorConfig mc;
      mc.spec = options.monitors;
      mc.action = obs::ViolationAction::Record;
      // The watchdog watches shard-local delivery; a shard owning no
      // terminal (last-hop) port never delivers, so arming it there
      // would trip on sound runs.
      bool owns_terminal = false;
      for (std::uint32_t f = 0; f < F && !owns_terminal; ++f) {
        const std::uint32_t last = topo.route(f)[topo.route_length(f) - 1];
        owns_terminal = shared.shard_of_gid[last] ==
                        static_cast<std::uint32_t>(s);
      }
      if (!owns_terminal) mc.spec.watchdog = false;
      shard.monitor.configure(mc);
      // The bound serves both the per-frame check (one port) and the
      // per-sample check (the shard's aggregate occupancy), so it is the
      // sum of local buffers: the only bound that is valid for the
      // aggregate.  Per-port overflow is enforced by drop-tail anyway;
      // this monitor exists to catch runaway accounting.
      double buffer_sum = 0.0;
      for (const std::uint32_t p : shard.port_gids) {
        buffer_sum += topo.ports[p].buffer_bits;
      }
      shard.monitor.set_queue_bound(buffer_sum);
      shard.monitor.set_rate_bound(
          static_cast<double>(shard.flow_ids.size()) *
          options.regulator.max_rate);
      monitor = &shard.monitor;
    }

    for (std::size_t i = 0; i < shard.port_gids.size(); ++i) {
      const std::uint32_t gid = shard.port_gids[i];
      shard.ports[i].init(&shard.sim, &shard, &topo, gid, P, options.q0,
                          options.w, sample_every_arrivals, monitor);
      shared.targets[gid] = &shard.ports[i];
      if (gid == trace_gid) {
        shard.trace_port = &shard.ports[i];
        shard.trace_partial.assign(shared.total_samples, 0.0);
      }
    }
    for (std::size_t i = 0; i < shard.flow_ids.size(); ++i) {
      const std::uint32_t f = shard.flow_ids[i];
      shard.sources[i].init(&shard.sim, &shard, &topo, f, P + f,
                            options.regulator, options.initial_rate);
      shared.targets[P + f] = &shard.sources[i];
      shard.sources[i].start();
    }
  }

  // --- run ----------------------------------------------------------------
  if (S == 1) {
    shards[0]->run_single();
  } else {
    std::vector<std::jthread> workers;
    workers.reserve(shards.size());
    for (int s = 0; s < S; ++s) {
      Shard* shard = shards[static_cast<std::size_t>(s)].get();
      workers.emplace_back([s, shard] {
        obs::tracing_set_thread_name(strf("shard-%d", s));
        shard->run();
      });
    }
  }  // joins every shard

  // --- deterministic merge (single-threaded, gid order) -------------------
  FabricResult result;
  result.shards = S;
  result.epochs = shared.total_epochs;

  // Mail sent during the last epoch still waits in its outbox; the
  // workers have joined, so this thread collects it into buckets and
  // counts every frame still on its way to a port.
  for (const auto& shard : shards) {
    shard->collect((shared.total_epochs + 1) & 1);
    for (const std::vector<TransferRecord>& bucket : shard->buckets) {
      for (const TransferRecord& record : bucket) {
        if (record.kind == EventKind::FrameArrival) ++result.frames_in_flight;
      }
    }
  }

  std::vector<const FabricPort*> port_by_gid(P, nullptr);
  std::vector<const FabricSource*> source_by_flow(F, nullptr);
  for (const auto& shard : shards) {
    result.events_executed += shard->sim.executed();
    result.staged_records += shard->staged;
    result.cross_shard_records += shard->cross;
    for (std::size_t i = 0; i < shard->port_gids.size(); ++i) {
      port_by_gid[shard->port_gids[i]] = &shard->ports[i];
    }
    for (std::size_t i = 0; i < shard->flow_ids.size(); ++i) {
      source_by_flow[shard->flow_ids[i]] = &shard->sources[i];
    }
  }

  std::uint64_t h = kFnvOffset;
  h = mix_u64(h, shared.total_epochs);
  for (std::uint32_t p = 0; p < P; ++p) {
    const FabricPortCounters& c = port_by_gid[p]->counters();
    result.frames_dropped += c.drops;
    result.frames_delivered += c.delivered_frames;
    result.frames_queued += port_by_gid[p]->queued_frames();
    result.frames_forwarded += c.forwarded;
    result.frames_sampled += c.samples;
    result.bcn_sent += c.bcn_sent;
    result.bits_delivered += c.delivered_bits;
    h = mix_u64(h, c.arrivals);
    h = mix_u64(h, c.drops);
    h = mix_u64(h, c.samples);
    h = mix_u64(h, c.bcn_sent);
    h = mix_u64(h, c.forwarded);
    h = mix_u64(h, c.delivered_frames);
    h = mix_double(h, c.delivered_bits);
    h = mix_double(h, c.peak_queue_bits);
    h = mix_double(h, port_by_gid[p]->queue_bits());
  }
  result.flow_stats.resize(F);
  for (std::uint32_t f = 0; f < F; ++f) {
    result.flow_stats[f].frames_sent = source_by_flow[f]->frames_sent();
    result.flow_stats[f].rate = source_by_flow[f]->rate();
    result.frames_sent += result.flow_stats[f].frames_sent;
    h = mix_u64(h, result.flow_stats[f].frames_sent);
    h = mix_double(h, result.flow_stats[f].rate);
  }

  result.trace_queue.assign(shared.total_samples, 0.0);
  result.total_queue.assign(shared.total_samples, 0.0);
  for (const auto& shard : shards) {
    if (shard->trace_port) result.trace_queue = shard->trace_partial;
    // Queue bits are integer-valued doubles (multiples of the frame
    // size) well below 2^53, so per-shard partial sums add exactly in
    // any order -- the merged series cannot depend on the partition.
    for (std::uint64_t i = 0; i < shared.total_samples; ++i) {
      result.total_queue[i] += shard->queue_partial[i];
    }
  }
  for (const double v : result.trace_queue) h = mix_double(h, v);
  for (const double v : result.total_queue) h = mix_double(h, v);
  h = mix_u64(h, result.staged_records);
  h = mix_u64(h, result.events_executed);
  result.digest = h;

  // Monitor fold: shard 0's monitor absorbs the rest; merge_from orders
  // violations by (t, invariant, message), not by arrival thread.
  if (options.monitors.any()) {
    obs::RunMonitor& merged = shards[0]->monitor;
    for (std::size_t s = 1; s < shards.size(); ++s) {
      merged.merge_from(shards[s]->monitor);
    }
    result.monitor_checks = merged.checks();
    result.monitor_violations = merged.violation_count();
    result.violations = merged.violations();
  }
  return result;
}

}  // namespace bcn::sim::shard
