// Deterministic fault injection for the packet simulator.
//
// Every mechanism's fluid facet (core/mechanism.h) assumes its feedback
// -- sigma-sign BCN, quantized QCN decreases, explicit rate adverts --
// always reaches the rate regulator; a real DCE fabric loses, delays,
// duplicates and reorders notification frames on the reverse path, loses
// data and PAUSE frames, and flaps links.  A FaultPlan describes such a
// degraded
// network; per-entity FaultInjectors apply it at the injection points
// (the congestion points' reverse-path transmitters and the scenario
// hubs' forward links).
//
// Determinism contract:
//   * Fault randomness is seeded independently of the traffic RNG
//     (FaultPlan::seed, default 0xfa17), so the same plan produces the
//     same fault schedule regardless of the scenario's own sampling
//     seed, and a fault schedule is reproducible across scenarios.
//   * Each (entity, fault-class) pair draws from its own RNG lane, so
//     enabling one fault class never perturbs another class's schedule,
//     and one entity's faults never perturb another entity's.
//   * A fault class with probability zero (and an empty flap list) never
//     consumes randomness and never schedules events: an all-zero
//     FaultPlan is a true no-op and the lossless run's trajectory digest
//     is byte-identical to a build without fault wiring
//     (FaultsTest.ZeroPlanMatchesPinnedDeterminismDigest).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "sim/frame.h"
#include "sim/time.h"

namespace bcn::obs {
class EventTrace;
class MetricsRegistry;
}  // namespace bcn::obs

namespace bcn::sim {

// One timed link-down window: the link is dead over [down_at, up_at).
struct LinkFlapWindow {
  SimTime down_at = 0;
  SimTime up_at = 0;
};

// The full degraded-network description.  All probabilities are per-unit
// (frame/message) Bernoulli draws in [0, 1]; zero disables the class.
struct FaultPlan {
  // Reverse path: BCN notification frames from a congestion point to its
  // reaction points.
  double bcn_drop_p = 0.0;       // notification lost
  double bcn_dup_p = 0.0;        // notification duplicated
  double bcn_delay_p = 0.0;      // notification delayed by bcn_delay
  SimTime bcn_delay = 0;         // extra reverse-path delay when selected
  // Forward path: data-frame loss on the injected link.
  double data_drop_p = 0.0;
  // Reverse path: 802.3x PAUSE frame loss.
  double pause_drop_p = 0.0;
  // Timed link down/up flaps on the injected forward link; frames
  // arriving during a window are lost (in-flight at the cut or sent into
  // the dead link -- both discard at delivery, so no event is ever
  // cancelled and no tombstone can accumulate).  Windows must be
  // disjoint and sorted (the parser enforces this).
  std::vector<LinkFlapWindow> flaps;
  // Fault RNG seed, independent of every traffic/sampling seed.
  std::uint64_t seed = 0xfa17;

  // True when any fault class can fire.
  bool armed() const {
    return bcn_drop_p > 0.0 || bcn_dup_p > 0.0 || bcn_delay_p > 0.0 ||
           data_drop_p > 0.0 || pause_drop_p > 0.0 || !flaps.empty();
  }
};

// Parses the --faults / BCN_FAULTS spec grammar:
//
//   spec     := entry ("," entry)*
//   entry    := "bcn_drop=" P | "bcn_dup=" P | "bcn_delay=" P ":" DUR
//             | "data_drop=" P | "pause_drop=" P
//             | "flap=" DUR "+" DUR ("/" DUR "+" DUR)*   (down-at + hold)
//             | "seed=" N
//   P        := number in [0, 1]
//   DUR      := duration, e.g. 100us                       (numbers,
//   N        := 64-bit count                 durations and counts as in
//                                            common/grammar.h)
//
// Examples:
//   bcn_drop=0.2
//   bcn_drop=0.1,bcn_delay=0.3:100us,seed=7
//   data_drop=0.01,flap=10ms+2ms/30ms+2ms
//
// Returns nullopt and fills *error on a malformed spec (unknown key,
// out-of-range probability, bad duration, overlapping flap windows).
std::optional<FaultPlan> parse_fault_plan(const std::string& spec,
                                          std::string* error = nullptr);

// One-paragraph grammar summary for tool usage messages.
const char* fault_plan_usage();

// Compact "key=value,..." rendering of the non-default fields (the
// inverse of parse_fault_plan, for logs and artifacts).
std::string fault_plan_summary(const FaultPlan& plan);

// Aggregate fault tally for a run; scenarios own one and share it across
// their injectors, then export it as fault.* metrics.
struct FaultCounters {
  std::uint64_t bcn_dropped = 0;
  std::uint64_t bcn_duplicated = 0;
  std::uint64_t bcn_delayed = 0;
  std::uint64_t data_dropped = 0;
  std::uint64_t pause_dropped = 0;
  std::uint64_t link_flaps = 0;    // down transitions observed
  std::uint64_t flap_dropped = 0;  // frames lost to a down link
};

// Publishes the counters into `registry`:
//   <prefix>bcn_dropped, <prefix>bcn_duplicated, <prefix>bcn_delayed,
//   <prefix>data_dropped, <prefix>pause_dropped, <prefix>link_flaps,
//   <prefix>flap_dropped.
void export_fault_metrics(const FaultCounters& counters,
                          obs::MetricsRegistry& registry,
                          const std::string& prefix = "fault.");

// Per-entity fault decision maker.  An entity is one injection point (a
// congestion point's reverse-path transmitter, a scenario hub's forward
// link); `entity` keys the RNG lanes and labels trace events.  All
// decision methods are deterministic functions of (plan, entity, call
// sequence) only.  A default-constructed injector is disarmed and every
// decision is a cheap no-op.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultPlan& plan, std::uint32_t entity,
                FaultCounters* counters, obs::EventTrace* trace = nullptr);

  bool armed() const { return plan_.armed(); }
  const FaultPlan& plan() const { return plan_; }

  // Reverse-path decisions, one call per emitted BCN notification.  The
  // drop lane sees every emission; the delay/duplicate lanes only see
  // survivors, so each lane's schedule is a pure function of its own
  // event index.
  bool drop_bcn(SimTime now, SourceId flow);
  // Extra reverse-path delay for this notification (0 = on time).
  SimTime bcn_extra_delay(SimTime now, SourceId flow);
  bool duplicate_bcn(SimTime now, SourceId flow);

  // Reverse-path PAUSE loss, one call per emitted PAUSE frame.
  bool drop_pause(SimTime now);

  // Forward-link decisions, one call per delivered data frame.  Check
  // cut_by_flap first: a frame lost to a dead link must not consume a
  // data-drop draw.
  bool cut_by_flap(SimTime now, SourceId flow);
  bool drop_data(SimTime now, SourceId flow);
  // Both checks in order, as every scenario hub runs them on a forwarded
  // frame: true when the frame is lost.  A disarmed injector loses
  // nothing and draws nothing.
  bool lose_frame(SimTime now, SourceId flow) {
    return armed() && (cut_by_flap(now, flow) || drop_data(now, flow));
  }

  // True while `now` falls inside a flap window (no counting, no RNG).
  bool link_down(SimTime now) const;
  // Handler for a flap-window edge the hub scheduled at down_at / up_at:
  // a down edge counts into link_flaps, and either edge traces as
  // LinkDown / LinkUp for this entity.
  void on_flap_edge(SimTime now);

 private:
  void note_drop(const char* what);

  FaultPlan plan_;
  std::uint32_t entity_ = 0;
  FaultCounters* counters_ = nullptr;
  obs::EventTrace* trace_ = nullptr;
  LogRateLimit drop_warnings_{3};
  Rng bcn_drop_rng_;
  Rng bcn_dup_rng_;
  Rng bcn_delay_rng_;
  Rng data_rng_;
  Rng pause_rng_;
};

}  // namespace bcn::sim
