#include "sim/mechanism.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "sim/rate_regulator.h"
#include "sim/switch_port.h"

namespace bcn::sim {
namespace {

AppliedFeedback applied_by_sign(double sigma) {
  if (sigma < 0.0) return AppliedFeedback::Negative;
  if (sigma > 0.0) return AppliedFeedback::Positive;
  return AppliedFeedback::None;
}

// --- BCN --------------------------------------------------------------------
class BcnPacketMechanism final : public PacketMechanism {
 public:
  explicit BcnPacketMechanism(bool draft) : draft_(draft) {}

  const char* name() const override { return draft_ ? "bcn-draft" : "bcn"; }

  FeedbackDecision on_sample(const SwitchSample& s) override {
    if (s.sigma < 0.0) {
      // Negative feedback: always sent to the sampled frame's source.
      return {FeedbackDecision::Kind::Negative, -1.0};
    }
    if (s.sigma > 0.0 &&
        (!s.config->positive_requires_rrt ||
         (s.frame->has_rrt && s.frame->rrt_cpid == s.config->cpid)) &&
        s.queue_bits < s.config->q0) {
      // Positive feedback: only to tagged (rate-regulated) sources, and
      // only while the queue is below the reference (paper Section II.B).
      return {FeedbackDecision::Kind::Positive, -1.0};
    }
    return {};
  }

  bool positive_requires_rrt() const override { return draft_; }

  AppliedFeedback apply_feedback(RegulatorState& st,
                                 const RegulatorConfig& config,
                                 const BcnMessage& message,
                                 double dt) const override {
    const double sigma = message.sigma;
    if (draft_) {
      const double sigma_frames = sigma / config.frame_bits;
      if (sigma > 0.0) {
        st.rate += config.gi * config.ru * sigma_frames;
      } else if (sigma < 0.0) {
        const double factor = std::max(1.0 - config.max_decrease,
                                       1.0 + config.gd * sigma_frames);
        st.rate *= factor;
      }
    } else {
      if (sigma > 0.0) {
        st.rate += config.gi * config.ru * sigma * dt;  // dr = Gi Ru sigma dt
      } else if (sigma < 0.0) {
        // Exact integration of dr/dt = Gd sigma r over dt (sigma held).
        st.rate *= std::exp(config.gd * sigma * dt);
      }
    }
    return applied_by_sign(sigma);
  }

 private:
  bool draft_;
};

// --- QCN --------------------------------------------------------------------
class QcnPacketMechanism final : public PacketMechanism {
 public:
  explicit QcnPacketMechanism(const core::QcnParams& qcn) : qcn_(qcn) {}

  const char* name() const override { return "qcn"; }

  FeedbackDecision on_sample(const SwitchSample& s) override {
    // QCN sends only negative feedback; recovery is the sources' job.
    if (s.sigma < 0.0) return {FeedbackDecision::Kind::Negative, -1.0};
    return {};
  }

  void init_state(RegulatorState& st) const override {
    st.target_rate = st.rate;
    st.recovery_cycles = qcn_.fast_recovery_cycles;  // no recovery armed
  }

  AppliedFeedback apply_feedback(RegulatorState& st,
                                 const RegulatorConfig& /*config*/,
                                 const BcnMessage& message,
                                 double /*dt*/) const override {
    const double sigma = message.sigma;
    if (sigma < 0.0) {
      // Quantize |sigma| (in frames) to the feedback field's resolution.
      const double sigma_frames = -sigma / qcn_.frame_bits;
      const double full_scale =
          static_cast<double>((1 << qcn_.feedback_bits) - 1);
      const double fb = std::min(
          full_scale, std::ceil(sigma_frames / qcn_.fb_scale * full_scale));
      if (fb > 0.0) {
        st.target_rate = st.rate;  // remember for fast recovery
        st.rate *= 1.0 - qcn_.max_decrease * fb / (full_scale + 1.0);
        st.recovery_cycles = 0;
      }
    }
    return applied_by_sign(sigma);
  }

  bool has_self_increase() const override { return true; }

  void self_increase(RegulatorState& st,
                     const RegulatorConfig& /*config*/) const override {
    if (st.recovery_cycles < qcn_.fast_recovery_cycles) {
      st.rate = (st.rate + st.target_rate) / 2.0;
      ++st.recovery_cycles;
    } else {
      st.target_rate += qcn_.active_increase;
      st.rate = (st.rate + st.target_rate) / 2.0;
    }
  }

  bool in_fast_recovery(const RegulatorState& st) const override {
    return st.recovery_cycles < qcn_.fast_recovery_cycles;
  }

 private:
  core::QcnParams qcn_;
};

// --- FERA -------------------------------------------------------------------
class FeraPacketMechanism final : public PacketMechanism {
 public:
  explicit FeraPacketMechanism(const core::FeraParams& fera) : fera_(fera) {}

  const char* name() const override { return "fera"; }

  bool wants_arrival_hook() const override { return true; }

  void on_arrival(const Frame& frame, double /*now_s*/) override {
    // Active-flow estimation: distinct sources per epoch.
    epoch_sources_.insert(frame.source);
    if (++epoch_arrivals_ >= fera_.epoch_frames) {
      active_flow_estimate_ = std::max<std::size_t>(1, epoch_sources_.size());
      epoch_sources_.clear();
      epoch_arrivals_ = 0;
    }
  }

  FeedbackDecision on_sample(const SwitchSample& s) override {
    // Fair share scaled by the queue deviation from the reference.
    const double fair =
        s.config->capacity / static_cast<double>(active_flow_estimate_);
    const double correction =
        1.0 - fera_.alpha * (s.queue_bits - s.config->q0) / s.config->q0;
    return {FeedbackDecision::Kind::RateAdvert,
            std::max(0.0, fair * correction)};
  }

  AppliedFeedback apply_feedback(RegulatorState& st,
                                 const RegulatorConfig& /*config*/,
                                 const BcnMessage& message,
                                 double /*dt*/) const override {
    if (message.advertised_rate < 0.0) return AppliedFeedback::None;
    const double alpha = fera_.smoothing;
    st.rate = (1.0 - alpha) * st.rate + alpha * message.advertised_rate;
    return AppliedFeedback::RateAdvert;
  }

 private:
  core::FeraParams fera_;
  std::unordered_set<SourceId> epoch_sources_;
  std::uint64_t epoch_arrivals_ = 0;
  std::size_t active_flow_estimate_ = 1;
};

// --- RCP --------------------------------------------------------------------
class RcpPacketMechanism final : public PacketMechanism {
 public:
  explicit RcpPacketMechanism(const core::RcpParams& rcp) : rcp_(rcp) {}

  const char* name() const override { return "rcp"; }

  bool wants_arrival_hook() const override { return true; }

  void on_arrival(const Frame& frame, double /*now_s*/) override {
    arrived_bits_ += frame.size_bits;
  }

  FeedbackDecision on_sample(const SwitchSample& s) override {
    const double cap = s.config->capacity;
    if (rate_ < 0.0) {
      // First sample: start optimistic at capacity, per RCP.
      rate_ = cap;
      interval_start_ = s.now_s;
      arrived_bits_ = 0.0;
    } else if (s.now_s - interval_start_ >= rcp_.interval) {
      // Once per control interval: relative rate-mismatch + queue update,
      //   R <- R [1 + (T/d)(alpha (C - y) - beta (q - q0)/d) / C].
      const double elapsed = s.now_s - interval_start_;
      const double measured = arrived_bits_ / elapsed;
      const double gain = (rcp_.alpha * (cap - measured) -
                           rcp_.beta * (s.queue_bits - s.config->q0) /
                               rcp_.interval) /
                          cap;
      double factor = 1.0 + (elapsed / rcp_.interval) * gain;
      // One interval may not more than halve or double the rate.
      factor = std::clamp(factor, 0.5, 2.0);
      rate_ = std::clamp(rate_ * factor, 1e-3 * cap, cap);
      interval_start_ = s.now_s;
      arrived_bits_ = 0.0;
    }
    return {FeedbackDecision::Kind::RateAdvert, rate_};
  }

  AppliedFeedback apply_feedback(RegulatorState& st,
                                 const RegulatorConfig& /*config*/,
                                 const BcnMessage& message,
                                 double /*dt*/) const override {
    if (message.advertised_rate < 0.0) return AppliedFeedback::None;
    // Processor-sharing semantics: every flow adopts the advertised rate.
    st.rate = message.advertised_rate;
    return AppliedFeedback::RateAdvert;
  }

 private:
  core::RcpParams rcp_;
  double rate_ = -1.0;  // advertised per-flow rate; <0 until first sample
  double interval_start_ = 0.0;
  double arrived_bits_ = 0.0;
};

}  // namespace

PacketMechanism& default_bcn_mechanism() {
  // Stateless, so one shared instance serves every scenario and test.
  static BcnPacketMechanism instance(false);
  return instance;
}

std::unique_ptr<PacketMechanism> make_packet_mechanism(
    std::string_view name, const core::MechanismConfig& config) {
  if (name == "bcn") return std::make_unique<BcnPacketMechanism>(false);
  if (name == "bcn-draft") return std::make_unique<BcnPacketMechanism>(true);
  if (name == "qcn") return std::make_unique<QcnPacketMechanism>(config.qcn);
  if (name == "fera") {
    return std::make_unique<FeraPacketMechanism>(config.fera);
  }
  if (name == "rcp") return std::make_unique<RcpPacketMechanism>(config.rcp);
  return nullptr;
}

}  // namespace bcn::sim
