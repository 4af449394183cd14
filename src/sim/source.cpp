#include "sim/source.h"

#include <algorithm>

namespace bcn::sim {

Source::Source(Simulator& sim, SourceConfig config)
    : sim_(sim),
      config_(config),
      regulator_(config.regulator, config.initial_rate, config.start_at,
                 config.mechanism) {
  update_gap();
}

void Source::start(const EventLink& link, std::uint64_t* sent_counter) {
  link_ = link;
  sent_counter_ = sent_counter;
  schedule_next(config_.start_at);
  arm_self_increase();
}

void Source::arm_self_increase() {
  if (!regulator_.mechanism().has_self_increase()) return;
  self_increase_timer_ = sim_.schedule_event(
      config_.start_at + config_.self_increase_period, this, EventKind::Tick,
      kTagSelfIncrease);
}

void Source::on_event(const SimEvent& event) {
  if (event.tag == kTagSend) {
    send_frame();
  } else {
    self_increase_tick();
  }
}

void Source::on_bcn(const BcnMessage& message) {
  const double old_rate = regulator_.rate();
  regulator_.on_bcn(message, sim_.now());
  if (regulator_.rate() != old_rate) {
    update_gap();
    repace();
  }
}

void Source::repace() {
  if (send_timer_ == kInvalidEvent) return;
  schedule_next(last_send_ + gap_);
}

void Source::self_increase_tick() {
  const double old_rate = regulator_.rate();
  regulator_.self_increase();
  if (regulator_.rate() != old_rate) {
    update_gap();
    repace();
  }
  // Re-arm the tick's own slot instead of scheduling a fresh event.
  sim_.reschedule(self_increase_timer_,
                  sim_.now() + config_.self_increase_period);
}

void Source::on_pause(const PauseFrame& pause) {
  paused_until_ = std::max(paused_until_, sim_.now() + pause.duration);
  if (send_timer_ != kInvalidEvent) schedule_next(paused_until_);
}

void Source::schedule_next(SimTime earliest) {
  const SimTime when = std::max({earliest, sim_.now(), paused_until_});
  send_timer_ = sim_.arm(send_timer_, when, this, EventKind::SourceToken,
                         kTagSend);
}

void Source::send_frame() {
  if (sim_.now() < paused_until_) {
    schedule_next(paused_until_);
    return;
  }
  if (config_.pattern == TrafficPattern::OnOff) {
    const SimTime period = config_.on_time + config_.off_time;
    const SimTime phase = (sim_.now() - config_.start_at) % period;
    if (phase >= config_.on_time) {
      // Silent window: resume at the start of the next burst.
      schedule_next(sim_.now() + (period - phase));
      return;
    }
  }
  Frame frame;
  frame.source = config_.id;
  frame.dst = config_.dst;
  frame.size_bits = config_.frame_bits;
  frame.seq = frames_sent_++;
  frame.has_rrt = regulator_.is_associated();
  frame.rrt_cpid = regulator_.cpid();
  frame.sent_at = sim_.now();
  last_send_ = sim_.now();
  if (sent_counter_) ++*sent_counter_;
  link_.send(frame);
  schedule_next(last_send_ + gap_);
}

}  // namespace bcn::sim
