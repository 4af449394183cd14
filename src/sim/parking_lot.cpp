#include "sim/parking_lot.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/mechanism.h"
#include "sim/source.h"
#include "sim/switch_port.h"

namespace bcn::sim {
namespace {

// Inter-hop wiring of the two-congestion-point series as a typed-event
// hub: frame hops and BCN deliveries are POD events dispatched back here.
class Scenario : public EventTarget {
 public:
  static constexpr std::uint32_t kTagFrameToCp1 = 0;
  static constexpr std::uint32_t kTagFrameToCp2 = 1;
  static constexpr std::uint32_t kTagBcnToSource = 2;
  static constexpr std::uint32_t kTagMonitor = 3;
  static constexpr std::uint32_t kTagFlapEdge = 4;
  // CP1's forwarded traffic gets its own channel so link faults hit only
  // the CP1 -> CP2 hop, not group B's direct access link.
  static constexpr std::uint32_t kTagFrameCp1ToCp2 = 5;

  explicit Scenario(const ParkingLotConfig& config) : config_(config) {
    // No PAUSE threshold: the congestion points isolate the BCN dynamics.
    auto switch_config = [&](CongestionPointId cpid, double capacity) {
      SwitchPortConfig c;
      c.cpid = cpid;
      c.capacity = capacity;
      c.buffer_bits = config.buffer;
      c.q0 = config.q0;
      c.w = config.w;
      c.pm = config.pm;
      c.positive_requires_rrt = true;  // the draft's CPID-matching rule
      return c;
    };
    cp1_ = std::make_unique<SwitchPort>(
        sim_, switch_config(1, config.capacity1), stats1_);
    cp2_ = std::make_unique<SwitchPort>(
        sim_, switch_config(2, config.capacity2), stats2_);
    cp1_->set_mechanism(&default_bcn_mechanism());
    cp2_->set_mechanism(&default_bcn_mechanism());

    if (!config.record_events) {
      stats1_.events().set_enabled(false);
      stats2_.events().set_enabled(false);
    }

    if (config.faults.armed()) {
      // Each congestion point draws from its own per-CPID lanes and
      // traces into its own SimStats; the CP1 -> CP2 link is entity 0.
      cp1_faults_ =
          FaultInjector(config.faults, 1, &fault_counters_, &stats1_.events());
      cp2_faults_ =
          FaultInjector(config.faults, 2, &fault_counters_, &stats2_.events());
      link_faults_ =
          FaultInjector(config.faults, 0, &fault_counters_, &stats1_.events());
      cp1_->set_fault_injector(&cp1_faults_);
      cp2_->set_fault_injector(&cp2_faults_);
      for (const LinkFlapWindow& w : config.faults.flaps) {
        sim_.schedule_event(w.down_at, this, EventKind::Tick, kTagFlapEdge);
        sim_.schedule_event(w.up_at, this, EventKind::Tick, kTagFlapEdge);
      }
    }

    // CP1 feeds CP2 after the hop delay (own channel: see kTagFrameCp1ToCp2).
    cp1_->set_sink(
        EventLink(sim_, this, kTagFrameCp1ToCp2, config.propagation_delay));

    const int total = config.group_a + config.group_b;
    sources_.reserve(total);
    for (int i = 0; i < total; ++i) {
      SourceConfig sc;
      sc.id = static_cast<SourceId>(i);
      sc.frame_bits = config.frame_bits;
      sc.initial_rate = config.initial_rate;
      sc.regulator.gi = config.gi;
      sc.regulator.gd = config.gd;
      sc.regulator.ru = config.ru;
      sc.regulator.min_rate = 1e6;
      sc.regulator.max_rate = std::max(config.capacity1, config.capacity2);
      // Default mechanism: BCN with fluid-matched feedback application.
      sources_.push_back(std::make_unique<Source>(sim_, sc));
    }

    // Both congestion points unicast BCN to the sampled frame's source.
    const EventLink bcn_to_source(sim_, this, kTagBcnToSource,
                                  config.propagation_delay);
    cp1_->set_bcn_sender(bcn_to_source);
    cp2_->set_bcn_sender(bcn_to_source);

    // Group A enters at CP1, group B directly at CP2.
    for (int i = 0; i < total; ++i) {
      const std::uint32_t tag =
          i < config.group_a ? kTagFrameToCp1 : kTagFrameToCp2;
      sources_[i]->start(
          EventLink(sim_, this, tag, config.propagation_delay));
    }

    monitor_timer_ = sim_.schedule_event(0, this, EventKind::Tick, kTagMonitor);
  }

  void on_event(const SimEvent& event) override {
    switch (event.tag) {
      case kTagFrameToCp1:
        cp1_->on_frame(event.payload.frame);
        break;
      case kTagFrameToCp2:
        cp2_->on_frame(event.payload.frame);
        break;
      case kTagFrameCp1ToCp2:
        if (link_faults_.lose_frame(sim_.now(), event.payload.frame.source)) {
          break;
        }
        cp2_->on_frame(event.payload.frame);
        break;
      case kTagBcnToSource:
        if (event.payload.bcn.target < sources_.size()) {
          sources_[event.payload.bcn.target]->on_bcn(event.payload.bcn);
        }
        break;
      case kTagMonitor:
        peak1_ = std::max(peak1_, cp1_->queue_bits());
        peak2_ = std::max(peak2_, cp2_->queue_bits());
        sim_.reschedule(monitor_timer_, sim_.now() + 20 * kMicrosecond);
        break;
      case kTagFlapEdge:
        link_faults_.on_flap_edge(sim_.now());
        break;
    }
  }

  ParkingLotResult run() {
    sim_.run_until(config_.duration);

    ParkingLotResult r;
    const int total = config_.group_a + config_.group_b;
    for (int i = 0; i < total; ++i) {
      if (i < config_.group_a) {
        r.group_a_rate += sources_[i]->rate();
        if (sources_[i]->regulator().is_associated()) {
          (sources_[i]->regulator().cpid() == 1 ? r.group_a_on_cp1
                                                : r.group_a_on_cp2)++;
        }
      } else {
        r.group_b_rate += sources_[i]->rate();
      }
    }
    if (config_.group_a > 0) r.group_a_rate /= config_.group_a;
    if (config_.group_b > 0) r.group_b_rate /= config_.group_b;
    r.cp1_peak_queue = peak1_;
    r.cp2_peak_queue = peak2_;
    r.cp1_negatives = stats1_.counters.bcn_negative;
    r.cp2_negatives = stats2_.counters.bcn_negative;
    r.cp1_positives = stats1_.counters.bcn_positive;
    r.cp2_positives = stats2_.counters.bcn_positive;
    r.drops =
        stats1_.counters.frames_dropped + stats2_.counters.frames_dropped;
    r.events_executed = sim_.executed();
    r.fault_counters = fault_counters_;
    return r;
  }

 private:
  ParkingLotConfig config_;
  Simulator sim_;
  SimStats stats1_;
  SimStats stats2_;
  std::unique_ptr<SwitchPort> cp1_;
  std::unique_ptr<SwitchPort> cp2_;
  std::vector<std::unique_ptr<Source>> sources_;
  FaultCounters fault_counters_;
  FaultInjector cp1_faults_;
  FaultInjector cp2_faults_;
  FaultInjector link_faults_;
  EventId monitor_timer_ = kInvalidEvent;
  double peak1_ = 0.0;
  double peak2_ = 0.0;
};

}  // namespace

ParkingLotResult run_parking_lot(const ParkingLotConfig& config) {
  Scenario scenario(config);
  return scenario.run();
}

}  // namespace bcn::sim
