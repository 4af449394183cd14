// Pluggable congestion-control mechanisms: the packet facet.
//
// The counterpart of core/mechanism.h inside the packet simulator.  A
// PacketMechanism bundles the two policies of the sigma pipeline:
//
//   * the congestion-point facet: what feedback (if any) the switch
//     emits for a sampled frame -- negative/positive BCN, or an explicit
//     rate advertisement;
//   * the reaction-point facet: how a regulator applies an arriving
//     message to its rate, plus the optional source-driven self-increase
//     (QCN's recovery timer).
//
// SwitchPort still owns sampling, sigma computation (eq. (1)), queueing
// and PAUSE; RateRegulator still owns clamping, association and
// counters.  Mechanisms only decide the feedback policy on both ends.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/mechanism.h"
#include "sim/frame.h"

namespace bcn::sim {

struct SwitchPortConfig;
struct RegulatorConfig;

// The mechanism-owned slice of a regulator's state.
struct RegulatorState {
  double rate = 0.0;
  double target_rate = 0.0;  // QCN fast-recovery target
  int recovery_cycles = 0;
};

// What the switch hands the mechanism for one sampled frame.
struct SwitchSample {
  double sigma = 0.0;       // eq. (1) over the sampling interval
  double queue_bits = 0.0;
  double now_s = 0.0;
  const Frame* frame = nullptr;
  const SwitchPortConfig* config = nullptr;
};

// What the switch should emit for that sample.
struct FeedbackDecision {
  enum class Kind : std::uint8_t { None, Negative, Positive, RateAdvert };
  Kind kind = Kind::None;
  double advertised_rate = -1.0;  // RateAdvert only
};

// What a regulator actually applied (drives RegulatorCounters).
enum class AppliedFeedback : std::uint8_t { None, Positive, Negative, RateAdvert };

class PacketMechanism {
 public:
  virtual ~PacketMechanism() = default;

  virtual const char* name() const = 0;

  // --- congestion-point facet ----------------------------------------------
  // Mechanisms that maintain switch-side state per arrival (FERA's
  // active-flow epochs, RCP's arrival-rate measurement) opt into the
  // per-frame hook; the common case skips the virtual call entirely.
  virtual bool wants_arrival_hook() const { return false; }
  virtual void on_arrival(const Frame& frame, double now_s) {
    (void)frame;
    (void)now_s;
  }
  virtual FeedbackDecision on_sample(const SwitchSample& sample) = 0;
  // Default for the draft's CPID-matching gate on positive feedback when a
  // scenario wires this mechanism (SwitchPortConfig can still override).
  virtual bool positive_requires_rrt() const { return false; }

  // --- reaction-point facet ------------------------------------------------
  virtual void init_state(RegulatorState& state) const {
    state.target_rate = state.rate;
    state.recovery_cycles = 0;
  }
  virtual AppliedFeedback apply_feedback(RegulatorState& state,
                                         const RegulatorConfig& config,
                                         const BcnMessage& message,
                                         double dt_seconds) const = 0;
  // QCN-style mechanisms recover rate on a source-local timer.
  virtual bool has_self_increase() const { return false; }
  virtual void self_increase(RegulatorState& state,
                             const RegulatorConfig& config) const {
    (void)state;
    (void)config;
  }
  virtual bool in_fast_recovery(const RegulatorState& state) const {
    (void)state;
    return false;
  }
};

// The shared, stateless BCN (fluid-matched) mechanism: what every
// RateRegulator constructed without an explicit mechanism applies, and
// what the parking lot's congestion points attach.
PacketMechanism& default_bcn_mechanism();

// Builds the packet facet by registry name ("bcn", "bcn-draft", "qcn",
// "rcp", "fera"); nullptr for unknown names.
std::unique_ptr<PacketMechanism> make_packet_mechanism(
    std::string_view name, const core::MechanismConfig& config = {});

}  // namespace bcn::sim
