// Runtime invariant monitors + flight recorder.
//
// A RunMonitor evaluates cheap online predicates against a packet run —
// queue occupancy within [0, B], frame/byte conservation between the
// lifetime counters, non-negative aggregate rate, finiteness of every
// observed quantity, a no-progress/PFC-deadlock watchdog (sim time
// advances but zero frames are delivered for a configurable window), and
// a fluid-verdict cross-check that flags a run whose measured behaviour
// (drops, buffer hit, severe-congestion PAUSE) contradicts a
// strong-stability verdict the fluid model certified for the same gains.
//
// The flight recorder is the bounded context captured alongside: the
// scenario's EventTrace switched into ring mode (the most recent BCN /
// PAUSE / fault events) plus a ring of periodic state snapshots.  On the
// first violation the monitor can dump a deterministic post-mortem
// bundle (obs/postmortem.h) and exit with kMonitorViolationExit so CI
// and fleet runs distinguish "invariant broken" from ordinary failure.
//
// Layering: obs sits below sim/core/analysis, so the monitor consumes
// plain scalars (MonitorSample) and an optional precomputed fluid
// verdict hint; the sim layer fills samples, the analysis layer supplies
// the hint (analysis::fluid_stability_hint).
//
// Disabled cost: scenarios keep a RunMonitor member unconditionally; an
// unarmed monitor reduces every hook to one predictable branch
// (BENCH_monitor_overhead.json pins the armed-but-quiet cost too).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/log.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace bcn::obs {

// Distinct process exit code for a monitor violation (0 ok, 1 failure,
// 2 usage error, 3 invariant violated).
inline constexpr int kMonitorViolationExit = 3;

// Largest ring= and snapshots= capacity: both rings are reserved up
// front, and 10^6 entries keep that allocation under ~100 MB.
inline constexpr std::size_t kMaxRecorderCapacity = 1'000'000;

// Which monitors are armed plus the flight-recorder shape.  Parsed from
// --monitors / BCN_MONITORS (parse_monitor_spec below).
struct MonitorSpec {
  bool queue_bounds = false;   // queue occupancy within [0, B]
  bool rate_bounds = false;    // aggregate rate finite and non-negative
  bool conservation = false;   // counter inequalities + monotonicity
  bool finite = false;         // NaN/Inf guard on sampled state
  bool watchdog = false;       // no-progress / PFC-deadlock detector
  bool crosscheck = false;     // packet run vs fluid strong-stability
  double watchdog_window = 5e-3;   // seconds without delivery progress
  std::size_t ring = 4096;         // EventTrace flight-recorder capacity
  std::size_t snapshots = 256;     // state-snapshot ring capacity

  bool any() const {
    return queue_bounds || rate_bounds || conservation || finite ||
           watchdog || crosscheck;
  }
  static MonitorSpec all();
};

// Parses the --monitors / BCN_MONITORS spec grammar:
//
//   spec     := "none" | "all" | entry ("," entry)*
//   entry    := "queue_bounds" | "rate_bounds" | "conservation"
//             | "finite" | "watchdog" | "crosscheck"
//             | "window=" DUR      (watchdog no-progress window, > 0)
//             | "ring=" N          (flight-recorder event capacity,
//                                   0 = unbounded, <= 10^6)
//             | "snapshots=" N     (state-snapshot ring capacity,
//                                   1 to 10^6)
//   DUR, N   := common/grammar.h durations (e.g. 5ms) and counts
//
// "all" arms every monitor; option-only specs (e.g. "all,window=2ms")
// compose.  Returns nullopt and fills *error on a malformed spec.
std::optional<MonitorSpec> parse_monitor_spec(const std::string& spec,
                                              std::string* error = nullptr);

// One-paragraph grammar summary for tool usage messages.
const char* monitor_spec_usage();

// Compact rendering of the armed monitors and non-default options (the
// inverse of parse_monitor_spec, for logs / artifacts / repro lines).
std::string monitor_spec_summary(const MonitorSpec& spec);

// What to do on the first violation.  Record keeps running and collects
// Violation records (tests); Dump also writes the post-mortem bundle;
// DumpAndExit additionally terminates with kMonitorViolationExit (the
// tool / bench behaviour).
enum class ViolationAction { Record, Dump, DumpAndExit };

struct MonitorConfig {
  MonitorSpec spec;
  ViolationAction action = ViolationAction::Record;
  // Directory receiving POSTMORTEM_<invariant>.json bundles.
  std::filesystem::path bundle_dir = ".";
  // Exact repro command line (--seed/--faults/--mechanism included),
  // embedded verbatim in the bundle.
  std::string repro;
  // Fluid-model strong-stability verdict for the same parameters /
  // mechanism, when one exists (analysis::fluid_stability_hint).  The
  // crosscheck monitor only arms when this is `true`.
  std::optional<bool> fluid_strongly_stable;
};

// One periodic observation of the run, filled by the scenario at its
// sample tick.  Counters are lifetime-cumulative.
struct MonitorSample {
  double t = 0.0;                   // seconds
  double queue_bits = 0.0;
  double aggregate_rate = 0.0;      // bits/s
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_enqueued = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t pause_frames = 0;
  double bits_delivered = 0.0;
};

struct Violation {
  std::string invariant;  // "queue_bounds", "watchdog", ...
  double t = 0.0;         // seconds
  double value = 0.0;     // offending quantity
  double bound = 0.0;     // the bound it broke (0 when not applicable)
  std::string message;
};

class RunMonitor {
 public:
  RunMonitor() = default;

  // Arms the monitors in config.spec and switches `trace` (the
  // scenario's EventTrace, may be null) into flight-recorder ring mode.
  void configure(const MonitorConfig& config, EventTrace* trace = nullptr);

  bool armed() const { return armed_; }
  const MonitorConfig& config() const { return config_; }

  // Bounds consumed by the queue / rate monitors.  Scenarios set them
  // from their plant parameters right after configure().
  void set_queue_bound(double buffer_bits) { queue_hi_ = buffer_bits; }
  void set_rate_bound(double max_aggregate_bps) {
    rate_hi_ = max_aggregate_bps;
  }

  // Per-frame hot-path hook (switch enqueue/depart): one predictable
  // branch when the queue monitor is off, one comparison pair when on.
  void check_queue(double t_seconds, std::uint32_t point, double queue_bits) {
    if (!queue_armed_) return;
    ++checks_;
    if (queue_bits >= 0.0 && queue_bits <= queue_hi_ + kQueueSlack) return;
    queue_violation(t_seconds, point, queue_bits);
  }

  // Periodic evaluation of the sampled monitors; also feeds the
  // state-snapshot ring.  Call every record interval.
  void on_sample(const MonitorSample& sample);

  // Monitor predicates evaluated so far (across all hooks).
  std::uint64_t checks() const { return checks_; }
  std::uint64_t violation_count() const { return violations_total_; }
  // First violations, capped at 16 records.
  const std::vector<Violation>& violations() const { return violations_; }
  // Snapshot ring in chronological order.
  std::vector<MonitorSample> snapshots() const;

  // monitor.* counters/gauges: <prefix>checks, <prefix>violations,
  // <prefix>armed, <prefix>snapshots, plus one
  // <prefix>violations.<invariant> counter per tripped invariant.
  void export_metrics(MetricsRegistry& registry,
                      const std::string& prefix = "monitor.") const;

  // Deterministic fold for per-shard monitors (sim/shard/engine.cpp):
  // counters sum, violation records concatenate and re-sort by
  // (t, invariant, message) -- never by which worker thread recorded
  // them first -- capped at the usual 16, snapshot rings merge
  // chronologically keeping the most recent entries, and the watchdog /
  // crosscheck / dump latches OR.  Call after the shards have joined;
  // neither monitor may still be receiving samples.
  void merge_from(const RunMonitor& other);

 private:
  // Tolerance on the queue upper bound: enqueue checks run after the
  // frame was admitted, and drop-tail admits a frame that *fits*, so the
  // occupancy never legitimately exceeds B; any excess is a sim bug.
  static constexpr double kQueueSlack = 1e-6;

  void queue_violation(double t, std::uint32_t point, double queue_bits);
  void violate(const char* invariant, double t, double value, double bound,
               std::string message);

  MonitorConfig config_;
  EventTrace* trace_ = nullptr;
  bool armed_ = false;
  bool queue_armed_ = false;
  double queue_hi_ = 0.0;
  double rate_hi_ = 0.0;

  std::uint64_t checks_ = 0;
  std::uint64_t violations_total_ = 0;
  std::vector<Violation> violations_;
  LogRateLimit violation_logs_{5};
  bool dumped_ = false;

  // Watchdog state.
  std::uint64_t last_delivered_ = 0;
  double last_progress_t_ = 0.0;
  bool watchdog_tripped_ = false;
  // Crosscheck latch: the contradiction is a property of the whole run,
  // so it fires once.
  bool crosscheck_tripped_ = false;

  // Conservation monotonicity state (previous sample).
  bool have_prev_ = false;
  MonitorSample prev_;

  // State-snapshot ring (capacity config_.spec.snapshots).
  std::vector<MonitorSample> snapshots_;
  std::size_t snapshot_head_ = 0;
};

}  // namespace bcn::obs
