#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>

namespace bcn::sim {
namespace {

// Zero-padded flow ids keep timeline names in numeric order under the
// TimelineSet's lexicographic export ("flow.0002" < "flow.0010").
std::string flow_series_name(SourceId id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "flow.%04u.rate_bps", id);
  return buf;
}

}  // namespace

Network::Network(NetworkConfig config) : config_(config) {
  const core::BcnParams& p = config_.params;
  assert(p.is_valid());

  // Resolve the mechanism name(s) against the registry.  Misconfiguration
  // is a programming error in scenario wiring, so fail loudly.
  core::MechanismConfig mcfg;
  mcfg.plant = p;
  mcfg.rcp = config_.rcp;
  mcfg.qcn = config_.qcn;
  mcfg.fera = config_.fera;
  mcfg.qcn.frame_bits = config_.frame_bits;
  mech_a_ = make_packet_mechanism(config_.mechanism, mcfg);
  if (!mech_a_) {
    std::fprintf(stderr, "Network: unknown mechanism '%s' (known: %s)\n",
                 config_.mechanism.c_str(),
                 core::mechanism_name_list().c_str());
    std::abort();
  }
  if (!config_.mechanism_b.empty()) {
    mech_b_ = make_packet_mechanism(config_.mechanism_b, mcfg);
    if (!mech_b_) {
      std::fprintf(stderr, "Network: unknown mechanism_b '%s' (known: %s)\n",
                   config_.mechanism_b.c_str(),
                   core::mechanism_name_list().c_str());
      std::abort();
    }
  }

  SwitchPortConfig sw;
  sw.cpid = 1;
  sw.port_label = sw.cpid;  // PAUSE rows and monitor checks key on it too
  sw.capacity = p.capacity;
  sw.buffer_bits = p.buffer;
  sw.q0 = p.q0;
  sw.pause_threshold = config_.enable_pause ? p.qsc : 0.0;
  sw.w = p.w;
  sw.pm = p.pm;
  // The draft's CPID gate on positive feedback is the mechanism's call;
  // fluid-matched runs need the fluid model's ungated bidirectional
  // feedback, the draft mode keeps the gate.
  sw.positive_requires_rrt = mech_a_->positive_requires_rrt();
  sw.random_sampling = config_.random_sampling;
  sw.sampling_seed = config_.sampling_seed;
  switch_ = std::make_unique<SwitchPort>(sim_, sw, stats_);
  switch_->set_mechanism(mech_a_.get());

  const auto n = static_cast<std::size_t>(p.num_sources);
  const double max_rate =
      config_.max_rate > 0.0 ? config_.max_rate : p.capacity;
  const double init_rate =
      config_.initial_rate > 0.0 ? config_.initial_rate : p.init_rate;

  // Competition split: sources [first_b, n) run mechanism_b.
  std::size_t first_b = n;
  if (mech_b_) {
    const std::size_t nb =
        std::min(config_.sources_b > 0 ? config_.sources_b : n / 2, n);
    first_b = n - nb;
    switch_->set_mechanism_split(mech_b_.get(),
                                 static_cast<SourceId>(first_b));
  }

  sources_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SourceConfig sc;
    sc.id = static_cast<SourceId>(i);
    sc.frame_bits = config_.frame_bits;
    sc.initial_rate = init_rate;
    sc.regulator.gi = p.gi;
    sc.regulator.gd = p.gd;
    sc.regulator.ru = p.ru;
    sc.regulator.min_rate = config_.min_rate;
    sc.regulator.max_rate = max_rate;
    sc.regulator.frame_bits = config_.frame_bits;
    sc.mechanism = i >= first_b ? mech_b_.get() : mech_a_.get();
    sc.pattern = config_.pattern;
    sc.on_time = config_.on_time;
    sc.off_time = config_.off_time;
    sc.start_at = static_cast<SimTime>(i) * config_.stagger;
    sources_.push_back(std::make_unique<Source>(sim_, sc));
  }

  if (!config_.record_events) stats_.events().set_enabled(false);

  if (config_.monitors.spec.any()) {
    monitor_.configure(config_.monitors, &stats_.events());
    monitor_.set_queue_bound(p.buffer);
    // Aggregate rate can never exceed every source at its line rate.
    monitor_.set_rate_bound(static_cast<double>(n) * max_rate);
    switch_->set_monitor(&monitor_);
  }

  if (config_.faults.armed()) {
    // Entity 1 (the core switch's cpid) owns the reverse-path lanes;
    // entity 0 the forward source -> switch link.  An unarmed plan skips
    // this block entirely so the lossless path never touches fault state.
    switch_faults_ = FaultInjector(config_.faults, sw.cpid, &fault_counters_,
                                   &stats_.events());
    link_faults_ =
        FaultInjector(config_.faults, 0, &fault_counters_, &stats_.events());
    switch_->set_fault_injector(&switch_faults_);
    for (const LinkFlapWindow& w : config_.faults.flaps) {
      sim_.schedule_event(w.down_at, this, EventKind::Tick, kTagFlapEdge);
      sim_.schedule_event(w.up_at, this, EventKind::Tick, kTagFlapEdge);
    }
  }

  // Backward channel: BCN unicast to the tagged source, PAUSE broadcast to
  // every upstream sender, both after the propagation delay.  Deliveries
  // are typed events dispatched back to this network and traced as
  // *Applied events, closing the causal pair with the switch-side *Sent
  // records.
  switch_->set_bcn_sender(
      EventLink(sim_, this, kTagBcnToSource, config_.propagation_delay));
  switch_->set_pause_sender(
      EventLink(sim_, this, kTagPauseToSources, config_.propagation_delay));

  // Forward channel: source frames reach the switch after the propagation
  // delay (serialization is already captured by the pacing gap).
  const EventLink to_switch(sim_, this, kTagFrameToSwitch,
                            config_.propagation_delay);
  for (auto& src : sources_) {
    src->start(to_switch, &stats_.counters.frames_sent);
  }

  if (config_.record_timelines) {
    queue_timeline_ = &stats_.timelines().series("port.core.queue_bits");
    flow_rate_timelines_.reserve(sources_.size());
    for (const auto& src : sources_) {
      flow_rate_timelines_.push_back(
          &stats_.timelines().series(flow_series_name(src->id())));
    }
  }

  record_sample();
}

void Network::on_event(const SimEvent& event) {
  switch (event.tag) {
    case kTagFrameToSwitch:
      if (link_faults_.lose_frame(sim_.now(), event.payload.frame.source)) {
        break;
      }
      switch_->on_frame(event.payload.frame);
      break;
    case kTagBcnToSource:
      deliver_bcn(event.payload.bcn);
      break;
    case kTagPauseToSources:
      deliver_pause(event.payload.pause);
      break;
    case kTagSampleTick:
      record_sample();
      break;
    case kTagFlapEdge:
      link_faults_.on_flap_edge(sim_.now());
      break;
  }
}

void Network::deliver_bcn(const BcnMessage& msg) {
  if (msg.target >= sources_.size()) return;
  sources_[msg.target]->on_bcn(msg);
  stats_.events().record({to_seconds(sim_.now()), obs::EventKind::BcnApplied,
                          msg.cpid, msg.target, msg.sigma,
                          sources_[msg.target]->rate()});
}

void Network::deliver_pause(const PauseFrame& pause) {
  for (auto& src : sources_) {
    const bool was_paused = src->is_paused(sim_.now());
    src->on_pause(pause);
    if (!was_paused) {
      stats_.events().record({to_seconds(sim_.now()),
                              obs::EventKind::PauseApplied, 0, src->id(), 0.0,
                              to_seconds(pause.duration)});
    }
  }
}

double Network::aggregate_rate() const {
  double sum = 0.0;
  for (const auto& src : sources_) sum += src->rate();
  return sum;
}

void Network::record_sample() {
  const double rate = aggregate_rate();
  stats_.record(sim_.now(), switch_->queue_bits(), rate);
  if (config_.record_timelines) {
    const double t = to_seconds(sim_.now());
    queue_timeline_->record(t, switch_->queue_bits());
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      flow_rate_timelines_[i]->record(t, sources_[i]->rate());
    }
  }
  if (monitor_.armed()) {
    obs::MonitorSample s;
    s.t = to_seconds(sim_.now());
    s.queue_bits = switch_->queue_bits();
    s.aggregate_rate = rate;
    s.frames_sent = stats_.counters.frames_sent;
    s.frames_enqueued = stats_.counters.frames_enqueued;
    s.frames_delivered = stats_.counters.frames_delivered;
    s.frames_dropped = stats_.counters.frames_dropped;
    s.pause_frames = stats_.counters.pause_frames;
    s.bits_delivered = stats_.counters.bits_delivered;
    monitor_.on_sample(s);
  }
  sample_timer_ = sim_.arm(sample_timer_, sim_.now() + config_.record_interval,
                           this, EventKind::Tick, kTagSampleTick);
}

void Network::run(SimTime duration) {
  run_until_ += duration;
  sim_.run_until(run_until_);
}

}  // namespace bcn::sim
