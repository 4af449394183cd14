// Fabric entities for the sharded engine: output-port queues and paced
// sources over a generated Topology (sim/shard/topology.h).
//
// The determinism contract: an entity NEVER schedules an event on
// another entity directly.  Every inter-entity handoff -- frame hop,
// reverse-path BCN -- is staged as a TransferRecord through its shard's
// TransferSink, and the engine appends each epoch's records to the
// owning shard's Simulator lane in the canonical order sorted by
// (deliver_at, src_gid, src_seq).  That key is a pure function of the
// workload, so the injected order -- and, since each append takes the
// next seq exactly as a schedule would, every (when, seq) tie-break
// inside any Simulator -- is identical for every shard count, including
// the degenerate single-shard run.  transfer_before is the one
// definition of that order; canonical_order reaches it by a counting
// sort on each record's offset into its epoch, so an epoch's injection
// costs no comparison sort of 80-byte records.  Intra-entity timers
// touch only their owner's state, so their interleaving with other
// entities' events is irrelevant.  A source's pacing token re-arms its
// slot in the local Simulator's heap, since its gap follows the
// regulator's rate.  A port's service completion goes through
// Simulator::schedule_after: due one service time out, it appends to the
// shard's delay FIFO, unless a slower port's departure already waits
// there with a later deadline, in which case it takes the heap.  Injected
// events and departures fire once with tag 0; no handler here reads
// event.id for them.
//
// Fabric ports implement the paper's baseline congestion point: drop-tail
// FIFO, deterministic 1/pm arrival sampling, sigma per eq. (1), BCN of
// either sign back to the sampled frame's source.  PAUSE, fault
// injection, and pluggable mechanisms stay in the single-topology layer
// for now (the reaction point does reuse RateRegulator, so the source
// side runs the exact fluid-matched BCN law).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "obs/monitor.h"
#include "sim/event_queue.h"
#include "sim/rate_regulator.h"
#include "sim/shard/topology.h"

namespace bcn::sim::shard {

// One staged inter-entity handoff.  Global entity ids (gids) number the
// ports [0, P) and the flow sources [P, P + F).  src_seq is the sender's
// own monotone counter, so the sort key (deliver_at, src_gid, src_seq)
// is unique and shard-invariant.
struct TransferRecord {
  SimTime deliver_at = 0;
  std::uint32_t dst_gid = 0;
  std::uint32_t src_gid = 0;
  std::uint64_t src_seq = 0;
  EventKind kind = EventKind::FrameArrival;
  EventPayload payload;
};

inline bool transfer_before(const TransferRecord& a, const TransferRecord& b) {
  if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
  if (a.src_gid != b.src_gid) return a.src_gid < b.src_gid;
  return a.src_seq < b.src_seq;
}

// Writes to `order` the indices of `records` in transfer_before order,
// moving only 4-byte indices, never a record.  Every record must be due
// in the window [start, start + quantum) -- epoch e's bucket is due in
// [eQ, (e+1)Q) -- or this throws std::logic_error and leaves `order`
// unspecified.  A stable counting sort on deliver_at - start over
// quantum + 1 `counts` orders the indices by deliver_at, keeping ties in
// bucket order; a std::sort of each run of equal deliver_at by the full
// key then moves only the ties.  When the window is wide against the
// bucket (quantum > 16 * records.size()) the counters would cost more
// than they save, so it sorts the indices by transfer_before instead and
// leaves `counts` alone.  The key is unique, so both paths give exactly
// the order std::sort(records, transfer_before) gives.  `counts` and
// `order` are the caller's scratch: reused across calls, they allocate
// nothing once they have grown to the widest window and the largest
// bucket.
void canonical_order(const std::vector<TransferRecord>& records,
                     SimTime start, SimTime quantum,
                     std::vector<std::uint32_t>* counts,
                     std::vector<std::uint32_t>* order);

// Where entities stage their outgoing handoffs; implemented by the
// engine's Shard (engine.cpp), which routes to a local epoch bucket or to
// its own mailbox for the destination shard.
class TransferSink {
 public:
  virtual void stage(const TransferRecord& record) = 0;

 protected:
  ~TransferSink() = default;
};

struct FabricPortCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  std::uint64_t samples = 0;
  std::uint64_t bcn_sent = 0;
  std::uint64_t forwarded = 0;          // departures continuing downstream
  std::uint64_t delivered_frames = 0;   // departures terminating here
  double delivered_bits = 0.0;
  double peak_queue_bits = 0.0;
};

// A directional output port: FIFO drop-tail queue draining at the link
// capacity, sampling + BCN per the paper's congestion point.  Receives
// injected FrameArrival events and its own fire-once FrameDeparture,
// set through Simulator::schedule_after at each service start.
class FabricPort final : public EventTarget {
 public:
  void init(Simulator* sim, TransferSink* sink, const Topology* topo,
            std::uint32_t gid, std::uint32_t source_gid_base, double q0,
            double w, std::uint64_t sample_every, obs::RunMonitor* monitor);

  void on_event(const SimEvent& event) override;

  double queue_bits() const { return queue_bits_; }
  // Frames in the queue, the one in service included.
  std::size_t queued_frames() const { return queue_.size(); }
  const FabricPortCounters& counters() const { return counters_; }

 private:
  void on_arrival(const Frame& frame);
  void start_service();
  void finish_service();
  void maybe_sample(const Frame& frame);

  SimTime service_time(double bits) {
    if (bits != service_bits_) {
      service_bits_ = bits;
      service_gap_ = transmission_time(bits, capacity_);
    }
    return service_gap_;
  }

  Simulator* sim_ = nullptr;
  TransferSink* sink_ = nullptr;
  const Topology* topo_ = nullptr;
  obs::RunMonitor* monitor_ = nullptr;
  std::uint32_t gid_ = 0;
  std::uint32_t source_gid_base_ = 0;
  double capacity_ = 10e9;
  double buffer_bits_ = 5e6;
  double q0_ = 2.5e6;
  double w_ = 2.0;
  std::uint64_t sample_every_ = 100;

  std::deque<Frame> queue_;
  double queue_bits_ = 0.0;
  double service_bits_ = -1.0;
  SimTime service_gap_ = 0;
  bool serving_ = false;

  std::uint64_t arrivals_since_sample_ = 0;
  double queue_at_last_sample_ = 0.0;
  std::uint64_t src_seq_ = 0;  // staging counter (sort-key component)
  FabricPortCounters counters_;
};

// One flow's sending host: a paced token loop over a RateRegulator
// running the fluid-matched BCN reaction law.  Receives its own
// SourceToken timer and injected BcnDelivery events.
class FabricSource final : public EventTarget {
 public:
  void init(Simulator* sim, TransferSink* sink, const Topology* topo,
            std::uint32_t flow_id, std::uint32_t gid,
            const RegulatorConfig& config, double initial_rate);

  // Schedules the first pacing token at t = 0.
  void start();

  void on_event(const SimEvent& event) override;

  double rate() const { return regulator_->rate(); }
  std::uint64_t frames_sent() const { return frames_sent_; }

 private:
  void emit_frame();

  SimTime pacing_gap() {
    const double r = regulator_->rate();
    if (r != gap_rate_) {
      gap_rate_ = r;
      gap_ = transmission_time(frame_bits_, r);
    }
    return gap_;
  }

  Simulator* sim_ = nullptr;
  TransferSink* sink_ = nullptr;
  const Topology* topo_ = nullptr;
  std::uint32_t flow_id_ = 0;
  std::uint32_t gid_ = 0;
  double frame_bits_ = 12000.0;
  std::optional<RateRegulator> regulator_;
  double gap_rate_ = -1.0;
  SimTime gap_ = 0;
  EventId token_ = kInvalidEvent;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t src_seq_ = 0;
};

}  // namespace bcn::sim::shard
