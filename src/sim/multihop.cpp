#include "sim/multihop.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/mechanism.h"
#include "sim/source.h"
#include "sim/stats.h"
#include "sim/switch_port.h"

namespace bcn::sim {
namespace {

constexpr std::uint32_t kHotDst = 0;   // routed to CORE port A
constexpr std::uint32_t kColdDst = 1;  // routed to CORE port B

// All inter-hop wiring of the victim scenario as one typed-event hub:
// frame hops, back-pressure deliveries, BCN unicast, and the periodic
// queue monitor are events dispatched back to this object, so the hot
// loop schedules POD records instead of allocating closures.
class Scenario : public EventTarget {
 public:
  // Channel tags.
  static constexpr std::uint32_t kTagFrameToEdge = 0;
  static constexpr std::uint32_t kTagFrameToCore = 1;
  static constexpr std::uint32_t kTagPauseToEdge = 2;
  static constexpr std::uint32_t kTagPauseToSources = 3;
  static constexpr std::uint32_t kTagBcnToSource = 4;
  static constexpr std::uint32_t kTagMonitor = 5;
  static constexpr std::uint32_t kTagFlapEdge = 6;

  explicit Scenario(const MultihopConfig& config)
      : config_(config),
        stats_(config.observer ? *config.observer : unobserved_) {
    // An unobserved run still tallies into a SimStats, but records no
    // event trace.
    unobserved_.events().set_enabled(false);

    // The hot port and every source run qcn: negative-only BCN from the
    // hot port, QCN-style self-increase recovery at the culprits.
    core::MechanismConfig mcfg;
    mcfg.qcn.active_increase = 2e6;
    mcfg.qcn.frame_bits = config.frame_bits;
    qcn_mechanism_ = make_packet_mechanism("qcn", mcfg);

    // --- CORE ports ------------------------------------------------------
    SwitchPortConfig hot_cfg;
    hot_cfg.capacity = config.hot_rate;
    hot_cfg.buffer_bits = config.core_buffer;
    hot_cfg.pause_duration = 64 * kMicrosecond;
    if (config.enable_pause) {
      hot_cfg.pause_threshold =
          config.pause_threshold_fraction * config.core_buffer;
    }
    if (config.enable_bcn) {
      hot_cfg.pm = config.bcn_pm;
      hot_cfg.q0 = config.bcn_q0;
      hot_cfg.w = config.bcn_w;
      hot_cfg.cpid = 7;
    }
    hot_cfg.port_label = kMultihopHotPort;
    hot_port_ = std::make_unique<SwitchPort>(sim_, hot_cfg, stats_);
    hot_port_->set_mechanism(qcn_mechanism_.get());

    SwitchPortConfig cold_cfg;
    cold_cfg.capacity = config.line_rate;
    cold_cfg.buffer_bits = config.core_buffer;
    cold_cfg.port_label = kMultihopColdPort;
    cold_port_ = std::make_unique<SwitchPort>(sim_, cold_cfg, stats_);

    // --- edge switch E1 --------------------------------------------------
    SwitchPortConfig edge_cfg;
    edge_cfg.capacity = config.line_rate;
    edge_cfg.buffer_bits = config.edge_buffer;
    edge_cfg.pause_duration = 64 * kMicrosecond;
    if (config.enable_pause) {
      edge_cfg.pause_threshold =
          config.pause_threshold_fraction * config.edge_buffer;
    }
    edge_cfg.port_label = kMultihopEdgePort;
    edge_ = std::make_unique<SwitchPort>(sim_, edge_cfg, stats_);

    if (config.monitors.spec.any()) {
      run_monitor_.configure(
          config.monitors,
          config.observer ? &config.observer->events() : nullptr);
      // One shared bound across ports: both buffers default equal, and the
      // per-frame check is about catching occupancy outside [0, B], not
      // per-port policy.
      run_monitor_.set_queue_bound(
          std::max(config.edge_buffer, config.core_buffer));
      run_monitor_.set_rate_bound(
          static_cast<double>(config.num_culprits + 1) * config.offered_rate);
      hot_port_->set_monitor(&run_monitor_);
      cold_port_->set_monitor(&run_monitor_);
      edge_->set_monitor(&run_monitor_);
    }

    if (config.faults.armed()) {
      obs::EventTrace* trace = &stats_.events();
      // Reverse-path lanes key off the port labels; the E1 -> CORE
      // forward link is entity 0.
      hot_faults_ = FaultInjector(config.faults, kMultihopHotPort,
                                  &fault_counters_, trace);
      edge_faults_ = FaultInjector(config.faults, kMultihopEdgePort,
                                   &fault_counters_, trace);
      link_faults_ = FaultInjector(config.faults, 0, &fault_counters_, trace);
      hot_port_->set_fault_injector(&hot_faults_);
      edge_->set_fault_injector(&edge_faults_);
      for (const LinkFlapWindow& w : config.faults.flaps) {
        sim_.schedule_event(w.down_at, this, EventKind::Tick, kTagFlapEdge);
        sim_.schedule_event(w.up_at, this, EventKind::Tick, kTagFlapEdge);
      }
    }

    // E1 forwards to CORE: route by destination after the hop delay.
    edge_->set_sink(
        EventLink(sim_, this, kTagFrameToCore, config.propagation_delay));

    // CORE port A back-pressures E1 (PAUSE rolls back one hop).
    hot_port_->set_pause_sender(
        EventLink(sim_, this, kTagPauseToEdge, config.propagation_delay));

    // --- sources ---------------------------------------------------------
    // The victim never receives feedback.
    const int total = config.num_culprits + 1;
    sources_.reserve(total);
    for (int i = 0; i < total; ++i) {
      const bool is_victim = i == config.num_culprits;
      SourceConfig sc;
      sc.id = static_cast<SourceId>(i);
      sc.dst = is_victim ? kColdDst : kHotDst;
      sc.frame_bits = config.frame_bits;
      sc.initial_rate = config.offered_rate;
      sc.regulator.min_rate = 10e6;
      sc.regulator.max_rate = config.offered_rate;  // offered-load cap
      sc.regulator.frame_bits = config.frame_bits;
      sc.mechanism = qcn_mechanism_.get();
      sources_.push_back(std::make_unique<Source>(sim_, sc));
    }

    // E1 back-pressures every source.
    edge_->set_pause_sender(
        EventLink(sim_, this, kTagPauseToSources, config.propagation_delay));

    // BCN from the hot port travels back to the culprit source.
    hot_port_->set_bcn_sender(
        EventLink(sim_, this, kTagBcnToSource, 2 * config.propagation_delay));

    const EventLink to_edge(sim_, this, kTagFrameToEdge,
                            config.propagation_delay);
    for (auto& src : sources_) {
      src->start(to_edge, &stats_.counters.frames_sent);
    }

    if (config.observer) {
      auto& timelines = config.observer->timelines();
      edge_tl_ = &timelines.series("port.edge.queue_bits");
      hot_tl_ = &timelines.series("port.hot.queue_bits");
      cold_tl_ = &timelines.series("port.cold.queue_bits");
    }
    monitor_timer_ = sim_.schedule_event(0, this, EventKind::Tick, kTagMonitor);
  }

  void on_event(const SimEvent& event) override {
    switch (event.tag) {
      case kTagFrameToEdge:
        edge_->on_frame(event.payload.frame);
        break;
      case kTagFrameToCore:
        if (link_faults_.lose_frame(sim_.now(), event.payload.frame.source)) {
          break;
        }
        (event.payload.frame.dst == kHotDst ? *hot_port_ : *cold_port_)
            .on_frame(event.payload.frame);
        break;
      case kTagPauseToEdge:
        edge_->on_pause(event.payload.pause);
        break;
      case kTagPauseToSources:
        for (auto& src : sources_) src->on_pause(event.payload.pause);
        break;
      case kTagBcnToSource:
        if (event.payload.bcn.target < sources_.size()) {
          sources_[event.payload.bcn.target]->on_bcn(event.payload.bcn);
        }
        break;
      case kTagMonitor:
        monitor();
        break;
      case kTagFlapEdge:
        link_faults_.on_flap_edge(sim_.now());
        break;
    }
  }

  MultihopResult run() {
    sim_.run_until(config_.duration);

    MultihopResult result;
    const double seconds = to_seconds(config_.duration);
    const Counters& hot = hot_port_->counters();
    const Counters& cold = cold_port_->counters();
    const Counters& edge = edge_->counters();
    result.victim_throughput = cold.bits_delivered / seconds;
    result.culprit_throughput = hot.bits_delivered / seconds;
    result.core_drops = hot.frames_dropped + cold.frames_dropped;
    result.edge_drops = edge.frames_dropped;
    result.pauses_core_to_edge = hot.pause_frames;
    result.pauses_edge_to_sources = edge.pause_frames;
    result.bcn_messages = hot.bcn_negative + hot.bcn_positive;
    result.edge_peak_queue = edge_peak_;
    result.hot_peak_queue = hot_peak_;
    result.events_executed = sim_.executed();
    result.fault_counters = fault_counters_;
    if (config_.metrics) {
      sim_.export_metrics(*config_.metrics);
      if (config_.faults.armed()) {
        export_fault_metrics(fault_counters_, *config_.metrics);
      }
      if (run_monitor_.armed()) run_monitor_.export_metrics(*config_.metrics);
    }
    return result;
  }

 private:
  void monitor() {
    edge_peak_ = std::max(edge_peak_, edge_->queue_bits());
    hot_peak_ = std::max(hot_peak_, hot_port_->queue_bits());
    if (config_.observer) {
      const double t = to_seconds(sim_.now());
      edge_tl_->record(t, edge_->queue_bits());
      hot_tl_->record(t, hot_port_->queue_bits());
      cold_tl_->record(t, cold_port_->queue_bits());
    }
    if (run_monitor_.armed()) {
      // The sampled invariants watch the hot port: it is the congestion
      // point whose stalled deliveries signal a PFC deadlock, and its
      // counters form a closed conservation system (arrivals = enqueued +
      // dropped at one queue).
      const Counters& hot = hot_port_->counters();
      obs::MonitorSample s;
      s.t = to_seconds(sim_.now());
      s.queue_bits = hot_port_->queue_bits();
      double rate = 0.0;
      for (const auto& src : sources_) rate += src->rate();
      s.aggregate_rate = rate;
      s.frames_sent = hot.frames_enqueued + hot.frames_dropped;
      s.frames_enqueued = hot.frames_enqueued;
      s.frames_delivered = hot.frames_delivered;
      s.frames_dropped = hot.frames_dropped;
      s.pause_frames = hot.pause_frames + edge_->counters().pause_frames;
      s.bits_delivered = hot.bits_delivered;
      run_monitor_.on_sample(s);
    }
    sim_.reschedule(monitor_timer_, sim_.now() + 20 * kMicrosecond);
  }

  MultihopConfig config_;
  Simulator sim_;
  SimStats unobserved_;
  SimStats& stats_;  // config_.observer, else unobserved_
  // Declared before the ports and sources_, which point into it.
  std::unique_ptr<PacketMechanism> qcn_mechanism_;
  std::unique_ptr<SwitchPort> hot_port_;
  std::unique_ptr<SwitchPort> cold_port_;
  std::unique_ptr<SwitchPort> edge_;
  std::vector<std::unique_ptr<Source>> sources_;
  FaultCounters fault_counters_;
  FaultInjector hot_faults_;
  FaultInjector edge_faults_;
  FaultInjector link_faults_;
  obs::RunMonitor run_monitor_;
  EventId monitor_timer_ = kInvalidEvent;
  double edge_peak_ = 0.0;
  double hot_peak_ = 0.0;
  obs::Timeline* edge_tl_ = nullptr;
  obs::Timeline* hot_tl_ = nullptr;
  obs::Timeline* cold_tl_ = nullptr;
};

}  // namespace

MultihopResult run_victim_scenario(const MultihopConfig& config) {
  Scenario scenario(config);
  return scenario.run();
}

}  // namespace bcn::sim
