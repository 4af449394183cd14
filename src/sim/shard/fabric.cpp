#include "sim/shard/fabric.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace bcn::sim::shard {

// --- canonical order -----------------------------------------------------

void canonical_order(const std::vector<TransferRecord>& records,
                     SimTime start, SimTime quantum,
                     std::vector<std::uint32_t>* counts,
                     std::vector<std::uint32_t>* order) {
  const std::size_t n = records.size();
  order->resize(n);
  std::uint32_t* const out = order->data();
  // The record's offset into the window; a record outside it is a
  // staging bug and would index past the counters.
  const auto offset_of = [&records, start, quantum](std::size_t i) {
    const SimTime offset = records[i].deliver_at - start;
    if (offset < 0 || offset >= quantum) {
      throw std::logic_error(
          "shard: handoff due at " + std::to_string(records[i].deliver_at) +
          " ns is outside its epoch [" + std::to_string(start) + ", " +
          std::to_string(start + quantum) + ") ns");
    }
    return static_cast<std::size_t>(offset);
  };
  const auto before = [&records](std::uint32_t a, std::uint32_t b) {
    return transfer_before(records[a], records[b]);
  };

  // The counters cost about what a std::sort of Q / 16 indices does (at
  // Q = 500 a sort of 24 indices beats them and one of 32 does not), so
  // a bucket smaller than that sorts its indices and leaves the counters
  // alone.
  const auto window = static_cast<std::size_t>(quantum);
  if (window > 16 * n) {
    for (std::size_t i = 0; i < n; ++i) {
      offset_of(i);
      out[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(out, out + n, before);
    return;
  }

  // counts[k] ends up as the first output slot of offset k.
  counts->assign(window + 1, 0);
  std::uint32_t* const first = counts->data();
  for (std::size_t i = 0; i < n; ++i) ++first[offset_of(i) + 1];
  for (std::size_t k = 1; k <= window; ++k) first[k] += first[k - 1];
  for (std::size_t i = 0; i < n; ++i) {
    const SimTime offset = records[i].deliver_at - start;
    out[first[offset]++] = static_cast<std::uint32_t>(i);
  }
  // Ties on deliver_at now sit together in bucket order, and only they
  // can be out of order, so each run of them is sorted by the full key.
  for (std::size_t lo = 0; lo < n;) {
    const SimTime due = records[out[lo]].deliver_at;
    std::size_t hi = lo + 1;
    while (hi < n && records[out[hi]].deliver_at == due) ++hi;
    if (hi - lo > 1) std::sort(out + lo, out + hi, before);
    lo = hi;
  }
}

// --- FabricPort ----------------------------------------------------------

void FabricPort::init(Simulator* sim, TransferSink* sink,
                      const Topology* topo, std::uint32_t gid,
                      std::uint32_t source_gid_base, double q0, double w,
                      std::uint64_t sample_every, obs::RunMonitor* monitor) {
  sim_ = sim;
  sink_ = sink;
  topo_ = topo;
  monitor_ = monitor;
  gid_ = gid;
  source_gid_base_ = source_gid_base;
  capacity_ = topo->ports[gid].capacity;
  buffer_bits_ = topo->ports[gid].buffer_bits;
  q0_ = q0;
  w_ = w;
  sample_every_ = std::max<std::uint64_t>(1, sample_every);
}

void FabricPort::on_event(const SimEvent& event) {
  switch (event.kind) {
    case EventKind::FrameArrival:
      on_arrival(event.payload.frame);
      break;
    case EventKind::FrameDeparture:
      finish_service();
      break;
    default:
      break;
  }
}

void FabricPort::on_arrival(const Frame& frame) {
  ++counters_.arrivals;
  maybe_sample(frame);
  if (queue_bits_ + frame.size_bits > buffer_bits_) {
    ++counters_.drops;
    return;
  }
  queue_.push_back(frame);
  queue_bits_ += frame.size_bits;
  counters_.peak_queue_bits = std::max(counters_.peak_queue_bits, queue_bits_);
  if (monitor_) {
    monitor_->check_queue(to_seconds(sim_->now()), gid_, queue_bits_);
  }
  if (!serving_) start_service();
}

void FabricPort::maybe_sample(const Frame& frame) {
  if (++arrivals_since_sample_ < sample_every_) return;
  arrivals_since_sample_ = 0;
  ++counters_.samples;

  // Eq. (1): sigma = (q0 - q) - w * delta_q over the sampling interval.
  const double delta_q = queue_bits_ - queue_at_last_sample_;
  queue_at_last_sample_ = queue_bits_;
  const double sigma = (q0_ - queue_bits_) - w_ * delta_q;

  // Reverse path: the frame crossed hop+1 links to reach this port, and
  // the BCN retraces them.  The delay is a multiple of link_delay, so the
  // delivery always lands at or past the next epoch boundary (the
  // conservative-lookahead requirement).
  const SimTime back = static_cast<SimTime>(frame.hop + 1) * topo_->link_delay;
  TransferRecord record;
  record.deliver_at = sim_->now() + back;
  record.dst_gid = source_gid_base_ + frame.source;
  record.src_gid = gid_;
  record.src_seq = src_seq_++;
  record.kind = EventKind::BcnDelivery;
  record.payload.bcn = BcnMessage{.cpid = gid_, .target = frame.source,
                                  .sigma = sigma, .sent_at = sim_->now()};
  sink_->stage(record);
  ++counters_.bcn_sent;
}

void FabricPort::start_service() {
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  serving_ = true;
  sim_->schedule_after(service_time(queue_.front().size_bits), this,
                       EventKind::FrameDeparture);
}

void FabricPort::finish_service() {
  Frame frame = queue_.front();
  queue_.pop_front();
  queue_bits_ -= frame.size_bits;
  queue_bits_ = std::max(queue_bits_, 0.0);
  if (monitor_) {
    monitor_->check_queue(to_seconds(sim_->now()), gid_, queue_bits_);
  }
  const std::size_t flow = frame.source;
  if (frame.hop + 1 < topo_->route_length(flow)) {
    ++counters_.forwarded;
    ++frame.hop;
    TransferRecord record;
    record.deliver_at = sim_->now() + topo_->link_delay;
    record.dst_gid = topo_->route(flow)[frame.hop];
    record.src_gid = gid_;
    record.src_seq = src_seq_++;
    record.kind = EventKind::FrameArrival;
    record.payload.frame = frame;
    sink_->stage(record);
  } else {
    ++counters_.delivered_frames;
    counters_.delivered_bits += frame.size_bits;
  }
  start_service();
}

// --- FabricSource --------------------------------------------------------

void FabricSource::init(Simulator* sim, TransferSink* sink,
                        const Topology* topo, std::uint32_t flow_id,
                        std::uint32_t gid, const RegulatorConfig& config,
                        double initial_rate) {
  sim_ = sim;
  sink_ = sink;
  topo_ = topo;
  flow_id_ = flow_id;
  gid_ = gid;
  frame_bits_ = config.frame_bits;
  regulator_.emplace(config, initial_rate, sim->now());
}

void FabricSource::start() {
  token_ = sim_->arm(token_, sim_->now(), this, EventKind::SourceToken, 0);
}

void FabricSource::on_event(const SimEvent& event) {
  switch (event.kind) {
    case EventKind::SourceToken:
      emit_frame();
      // Rate changes land on the *next* gap; the frame just sent was
      // already committed at the old pacing.
      sim_->reschedule(token_, sim_->now() + pacing_gap());
      break;
    case EventKind::BcnDelivery:
      regulator_->on_bcn(event.payload.bcn, sim_->now());
      break;
    default:
      break;
  }
}

void FabricSource::emit_frame() {
  Frame frame;
  frame.source = flow_id_;
  frame.dst = topo_->flows[flow_id_].dst_host;
  frame.size_bits = frame_bits_;
  frame.seq = frames_sent_;
  frame.has_rrt = regulator_->is_associated();
  frame.rrt_cpid = regulator_->cpid();
  frame.hop = 0;
  frame.sent_at = sim_->now();
  ++frames_sent_;

  TransferRecord record;
  record.deliver_at = sim_->now() + topo_->link_delay;
  record.dst_gid = topo_->route(flow_id_)[0];
  record.src_gid = gid_;
  record.src_seq = src_seq_++;
  record.kind = EventKind::FrameArrival;
  record.payload.frame = frame;
  sink_->stage(record);
}

}  // namespace bcn::sim::shard
