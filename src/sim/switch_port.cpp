#include "sim/switch_port.h"

#include <algorithm>
#include <cmath>

namespace bcn::sim {

SwitchPort::SwitchPort(Simulator& sim, SwitchPortConfig config,
                       SimStats& stats)
    : sim_(sim),
      config_(config),
      stats_(stats),
      sampling_rng_(config.sampling_seed) {
  if (config_.pm > 0.0) {
    sample_every_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(1.0 / config_.pm)));
  }
}

void SwitchPort::on_frame(const Frame& frame) {
  maybe_sample(frame);
  if (queue_bits_ + frame.size_bits > config_.buffer_bits) {
    count(&Counters::frames_dropped);
    maybe_pause();
    return;
  }
  queue_.push_back(frame);
  queue_bits_ += frame.size_bits;
  count(&Counters::frames_enqueued);
  if (monitor_) {
    monitor_->check_queue(to_seconds(sim_.now()), config_.port_label,
                          queue_bits_);
  }
  maybe_pause();
  if (!serving_ && sim_.now() >= paused_until_) start_service();
}

void SwitchPort::on_pause(const PauseFrame& pause) {
  paused_until_ = std::max(paused_until_, sim_.now() + pause.duration);
  // In-flight service completes (a frame on the wire cannot be recalled);
  // the pause gates the next start_service.
}

void SwitchPort::maybe_sample(const Frame& frame) {
  // Arrival hooks are link-level rate/flow measurements (RCP's arrival
  // accumulator, FERA's flow estimator): every mechanism observing this
  // port sees every frame, including the other group's cross traffic.
  if (hook_a_) mech_a_->on_arrival(frame, to_seconds(sim_.now()));
  if (hook_b_) mech_b_->on_arrival(frame, to_seconds(sim_.now()));

  if (sample_every_ == 0) return;
  if (config_.random_sampling) {
    if (!sampling_rng_.bernoulli(config_.pm)) return;
  } else {
    if (++arrivals_since_sample_ < sample_every_) return;
    arrivals_since_sample_ = 0;
  }
  count(&Counters::frames_sampled);

  // Eq. (1): sigma = (q0 - q) - w * delta_q over the sampling interval.
  const double delta_q = queue_bits_ - queue_at_last_sample_;
  queue_at_last_sample_ = queue_bits_;
  const double sigma = (config_.q0 - queue_bits_) - config_.w * delta_q;
  stats_.record_sigma(sigma);

  if (!bcn_) return;
  const bool split = mech_b_ && frame.source >= first_b_;
  PacketMechanism& mech = split ? *mech_b_ : *mech_a_;
  const double now_s = to_seconds(sim_.now());
  const FeedbackDecision decision =
      mech.on_sample({sigma, queue_bits_, now_s, &frame, &config_});
  switch (decision.kind) {
    case FeedbackDecision::Kind::None:
      break;
    case FeedbackDecision::Kind::Negative:
      count(&Counters::bcn_negative);
      stats_.events().record({now_s, obs::EventKind::BcnNegativeSent,
                              config_.cpid, frame.source, sigma, 0.0});
      emit_bcn({.cpid = config_.cpid, .target = frame.source,
                .sigma = sigma, .sent_at = sim_.now()});
      break;
    case FeedbackDecision::Kind::Positive:
      count(&Counters::bcn_positive);
      stats_.events().record({now_s, obs::EventKind::BcnPositiveSent,
                              config_.cpid, frame.source, sigma, 0.0});
      emit_bcn({.cpid = config_.cpid, .target = frame.source,
                .sigma = sigma, .sent_at = sim_.now()});
      break;
    case FeedbackDecision::Kind::RateAdvert:
      // Rate advertisements reuse the BCN positive/negative tallies by
      // sigma sign so the send/apply causal accounting stays closed.
      count(sigma < 0.0 ? &Counters::bcn_negative : &Counters::bcn_positive);
      stats_.events().record({now_s, obs::EventKind::BcnRateAdvertSent,
                              config_.cpid, frame.source, sigma,
                              decision.advertised_rate});
      emit_bcn({.cpid = config_.cpid, .target = frame.source,
                .sigma = sigma,
                .advertised_rate = decision.advertised_rate,
                .sent_at = sim_.now()});
      break;
  }
}

void SwitchPort::emit_bcn(const BcnMessage& message) {
  SimTime extra_delay = 0;
  if (faults_) {
    if (faults_->drop_bcn(sim_.now(), message.target)) return;
    extra_delay = faults_->bcn_extra_delay(sim_.now(), message.target);
    // The duplicate travels on time; only the original may be delayed.
    if (faults_->duplicate_bcn(sim_.now(), message.target)) {
      bcn_.send(message);
    }
  }
  bcn_.send(message, extra_delay);
}

void SwitchPort::maybe_pause() {
  if (config_.pause_threshold <= 0.0 || !pause_) return;
  if (queue_bits_ < config_.pause_threshold) return;
  if (sim_.now() < pause_cooldown_until_) return;
  pause_cooldown_until_ = sim_.now() + config_.pause_duration;
  count(&Counters::pause_frames);
  // The off transition is deterministic (802.3x quanta; the cooldown
  // prevents overlapping extensions), so record both edges now.
  const double duration_s = to_seconds(config_.pause_duration);
  stats_.events().record({to_seconds(sim_.now()), obs::EventKind::PauseOn,
                          config_.port_label, 0, 0.0, duration_s});
  stats_.events().record({to_seconds(pause_cooldown_until_),
                          obs::EventKind::PauseOff, config_.port_label, 0,
                          0.0, duration_s});
  // A lost PAUSE frame leaves the PauseOn edge with no PauseApplied: the
  // port asserted back-pressure but no feeder heard it.
  if (faults_ && faults_->drop_pause(sim_.now())) return;
  pause_.send(PauseFrame{config_.pause_duration, sim_.now()});
}

void SwitchPort::on_event(const SimEvent& event) {
  if (event.tag == kTagDepart) {
    finish_service();
  } else {
    resume_after_pause();
  }
}

void SwitchPort::resume_after_pause() {
  serving_ = false;
  if (sim_.now() >= paused_until_) start_service();
}

void SwitchPort::start_service() {
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  if (sim_.now() < paused_until_) {
    serving_ = true;  // reserve the server; resume when the pause expires
    sim_.schedule_event(paused_until_, this, EventKind::PauseExpiry,
                        kTagResume);
    return;
  }
  serving_ = true;
  depart_timer_ = sim_.arm(
      depart_timer_, sim_.now() + service_time(queue_.front().size_bits), this,
      EventKind::FrameDeparture, kTagDepart);
}

void SwitchPort::finish_service() {
  const Frame frame = queue_.front();
  queue_.pop_front();
  queue_bits_ = std::max(queue_bits_ - frame.size_bits, 0.0);
  if (monitor_) {
    monitor_->check_queue(to_seconds(sim_.now()), config_.port_label,
                          queue_bits_);
  }
  ++counters_.frames_delivered;
  counters_.bits_delivered += frame.size_bits;
  if (sink_) {
    sink_.send(frame);
  } else {
    ++stats_.counters.frames_delivered;
    stats_.counters.bits_delivered += frame.size_bits;
    stats_.add_delivered(frame.source, frame.size_bits);
  }
  serving_ = false;
  start_service();
}

}  // namespace bcn::sim
