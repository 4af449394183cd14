#include "obs/monitor.h"

#include <algorithm>
#include <cmath>

#include "common/format.h"
#include "common/grammar.h"
#include "obs/postmortem.h"

namespace bcn::obs {
namespace {

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

bool apply_entry(const std::string& entry, MonitorSpec* spec,
                 std::string* error) {
  if (entry == "queue_bounds") {
    spec->queue_bounds = true;
  } else if (entry == "rate_bounds") {
    spec->rate_bounds = true;
  } else if (entry == "conservation") {
    spec->conservation = true;
  } else if (entry == "finite") {
    spec->finite = true;
  } else if (entry == "watchdog") {
    spec->watchdog = true;
  } else if (entry == "crosscheck") {
    spec->crosscheck = true;
  } else if (entry == "all") {
    const MonitorSpec all = MonitorSpec::all();
    spec->queue_bounds = all.queue_bounds;
    spec->rate_bounds = all.rate_bounds;
    spec->conservation = all.conservation;
    spec->finite = all.finite;
    spec->watchdog = all.watchdog;
    spec->crosscheck = all.crosscheck;
  } else if (const auto eq = entry.find('='); eq != std::string::npos) {
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    std::string why;
    if (key == "window") {
      const auto window = scan_duration(value, &why);
      if (!window) return fail(error, "window: " + why);
      if (!(window->value > 0.0)) {
        return fail(error, "window: '" + value + "' is not positive");
      }
      spec->watchdog_window = window->seconds();
    } else if (key == "ring") {
      const auto ring = scan_count(value, kMaxRecorderCapacity, &why);
      if (!ring) return fail(error, "ring: " + why);
      spec->ring = *ring;
    } else if (key == "snapshots") {
      const auto snapshots = scan_count(value, kMaxRecorderCapacity, &why);
      if (!snapshots) return fail(error, "snapshots: " + why);
      if (*snapshots == 0) return fail(error, "snapshots: must be >= 1");
      spec->snapshots = *snapshots;
    } else {
      return fail(error, "unknown option '" + key + "'");
    }
  } else {
    return fail(error, "unknown monitor '" + entry + "'");
  }
  return true;
}

}  // namespace

MonitorSpec MonitorSpec::all() {
  MonitorSpec spec;
  spec.queue_bounds = true;
  spec.rate_bounds = true;
  spec.conservation = true;
  spec.finite = true;
  spec.watchdog = true;
  spec.crosscheck = true;
  return spec;
}

std::optional<MonitorSpec> parse_monitor_spec(const std::string& spec,
                                              std::string* error) {
  MonitorSpec out;
  if (spec.empty()) {
    fail(error, "empty spec");
    return std::nullopt;
  }
  if (spec == "none") return out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string entry =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (entry.empty()) {
      fail(error, "empty entry");
      return std::nullopt;
    }
    if (!apply_entry(entry, &out, error)) return std::nullopt;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

const char* monitor_spec_usage() {
  return "monitor spec: comma-separated monitors and options\n"
         "  monitors: all | none | queue_bounds | rate_bounds |\n"
         "            conservation | finite | watchdog | crosscheck\n"
         "  options:  window=DUR (watchdog no-progress window, e.g. 5ms)\n"
         "            ring=N (flight-recorder event capacity, 0 = unbounded,\n"
         "                    at most 1000000)\n"
         "            snapshots=N (state-snapshot ring capacity,\n"
         "                         1 to 1000000)\n"
         "  examples: all | watchdog,window=2ms | all,ring=1024";
}

std::string monitor_spec_summary(const MonitorSpec& spec) {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (spec.queue_bounds && spec.rate_bounds && spec.conservation &&
      spec.finite && spec.watchdog && spec.crosscheck) {
    append("all");
  } else {
    if (spec.queue_bounds) append("queue_bounds");
    if (spec.rate_bounds) append("rate_bounds");
    if (spec.conservation) append("conservation");
    if (spec.finite) append("finite");
    if (spec.watchdog) append("watchdog");
    if (spec.crosscheck) append("crosscheck");
  }
  const MonitorSpec defaults;
  if (spec.watchdog_window != defaults.watchdog_window) {
    out += strf(",window=%gs", spec.watchdog_window);
  }
  if (spec.ring != defaults.ring) {
    out += strf(",ring=%zu", spec.ring);
  }
  if (spec.snapshots != defaults.snapshots) {
    out += strf(",snapshots=%zu", spec.snapshots);
  }
  if (out.empty()) out = "none";
  return out;
}

void RunMonitor::configure(const MonitorConfig& config, EventTrace* trace) {
  config_ = config;
  trace_ = trace;
  armed_ = config.spec.any();
  queue_armed_ = config.spec.queue_bounds;
  if (armed_ && trace_ != nullptr && config.spec.ring > 0) {
    // Flight-recorder mode: bound the scenario's event trace so the
    // post-mortem slice is the most recent window, and make sure it is
    // actually recording.
    trace_->set_ring_capacity(config.spec.ring);
    trace_->set_enabled(true);
  }
  if (armed_) snapshots_.reserve(config.spec.snapshots);
}

std::vector<MonitorSample> RunMonitor::snapshots() const {
  std::vector<MonitorSample> out;
  out.reserve(snapshots_.size());
  out.insert(out.end(),
             snapshots_.begin() +
                 static_cast<std::ptrdiff_t>(snapshot_head_),
             snapshots_.end());
  out.insert(out.end(), snapshots_.begin(),
             snapshots_.begin() +
                 static_cast<std::ptrdiff_t>(snapshot_head_));
  return out;
}

void RunMonitor::queue_violation(double t, std::uint32_t point,
                                 double queue_bits) {
  violate("queue_bounds", t, queue_bits, queue_hi_,
          strf("queue occupancy %.6g bits outside [0, %.6g] at point %u",
               queue_bits, queue_hi_, point));
}

void RunMonitor::on_sample(const MonitorSample& s) {
  if (!armed_) return;
  const MonitorSpec& spec = config_.spec;

  // Snapshot ring first, so the bundle includes the offending sample.
  if (snapshots_.size() < spec.snapshots) {
    snapshots_.push_back(s);
  } else {
    snapshots_[snapshot_head_] = s;
    snapshot_head_ = (snapshot_head_ + 1) % spec.snapshots;
  }

  if (spec.finite) {
    ++checks_;
    if (!std::isfinite(s.queue_bits) || !std::isfinite(s.aggregate_rate) ||
        !std::isfinite(s.bits_delivered)) {
      violate("finite", s.t, s.queue_bits, 0.0,
              strf("non-finite sampled state: queue=%g rate=%g bits=%g",
                   s.queue_bits, s.aggregate_rate, s.bits_delivered));
    }
  }

  if (spec.queue_bounds) {
    ++checks_;
    if (!(s.queue_bits >= 0.0 && s.queue_bits <= queue_hi_ + kQueueSlack)) {
      queue_violation(s.t, 0, s.queue_bits);
    }
  }

  if (spec.rate_bounds) {
    ++checks_;
    if (!(s.aggregate_rate >= 0.0) ||
        (rate_hi_ > 0.0 && s.aggregate_rate > rate_hi_)) {
      violate("rate_bounds", s.t, s.aggregate_rate, rate_hi_,
              strf("aggregate rate %.6g bits/s outside [0, %.6g]",
                   s.aggregate_rate, rate_hi_));
    }
  }

  if (spec.conservation) {
    ++checks_;
    // delivered <= enqueued <= enqueued + dropped <= sent: every frame
    // the switch delivered was enqueued, every frame it saw (enqueued or
    // dropped at the tail) was sent.  Frames lost to injected link
    // faults are simply never seen, which the inequalities tolerate.
    const bool counters_ok =
        s.frames_delivered <= s.frames_enqueued &&
        s.frames_enqueued + s.frames_dropped <= s.frames_sent;
    const bool monotone_ok =
        !have_prev_ ||
        (s.frames_sent >= prev_.frames_sent &&
         s.frames_enqueued >= prev_.frames_enqueued &&
         s.frames_delivered >= prev_.frames_delivered &&
         s.frames_dropped >= prev_.frames_dropped &&
         s.bits_delivered >= prev_.bits_delivered);
    if (!counters_ok || !monotone_ok) {
      violate(
          "conservation", s.t, static_cast<double>(s.frames_delivered),
          static_cast<double>(s.frames_enqueued),
          strf("frame/byte conservation broken: sent=%llu enqueued=%llu "
               "delivered=%llu dropped=%llu bits=%.6g (%s)",
               static_cast<unsigned long long>(s.frames_sent),
               static_cast<unsigned long long>(s.frames_enqueued),
               static_cast<unsigned long long>(s.frames_delivered),
               static_cast<unsigned long long>(s.frames_dropped),
               s.bits_delivered,
               counters_ok ? "counter regressed" : "inequality broken"));
    }
  }

  if (spec.watchdog) {
    ++checks_;
    if (s.frames_delivered > last_delivered_) {
      last_delivered_ = s.frames_delivered;
      last_progress_t_ = s.t;
      watchdog_tripped_ = false;
    } else if (!watchdog_tripped_ && s.frames_sent > s.frames_delivered &&
               s.t - last_progress_t_ >= spec.watchdog_window) {
      watchdog_tripped_ = true;  // re-arms only after progress resumes
      violate("watchdog", s.t, s.t - last_progress_t_, spec.watchdog_window,
              strf("no delivery progress for %.6g s (window %.6g s) with "
                   "%llu frames outstanding: stalled link or PFC deadlock",
                   s.t - last_progress_t_, spec.watchdog_window,
                   static_cast<unsigned long long>(s.frames_sent -
                                                   s.frames_delivered)));
    }
  }

  if (spec.crosscheck && !crosscheck_tripped_ &&
      config_.fluid_strongly_stable.value_or(false)) {
    ++checks_;
    const bool contradicted = s.frames_dropped > 0 ||
                              (queue_hi_ > 0.0 && s.queue_bits >= queue_hi_) ||
                              s.pause_frames > 0;
    if (contradicted) {
      crosscheck_tripped_ = true;
      violate(
          "crosscheck", s.t, s.queue_bits, queue_hi_,
          strf("packet run contradicts the fluid strong-stability verdict: "
               "drops=%llu pause_frames=%llu queue=%.6g bits (B=%.6g) — the "
               "certified orbit never drops, overflows or asserts PAUSE",
               static_cast<unsigned long long>(s.frames_dropped),
               static_cast<unsigned long long>(s.pause_frames), s.queue_bits,
               queue_hi_));
    }
  }

  have_prev_ = true;
  prev_ = s;
}

void RunMonitor::violate(const char* invariant, double t, double value,
                         double bound, std::string message) {
  ++violations_total_;
  if (violations_.size() < 16) {
    violations_.push_back({invariant, t, value, bound, message});
  }
  if (violation_logs_.allow()) {
    BCN_LOG_ERROR("monitor: invariant '%s' violated at t=%.9g s: %s",
                  invariant, t, message.c_str());
  }
  if (config_.action == ViolationAction::Record || dumped_) return;
  dumped_ = true;

  PostmortemBundle bundle;
  bundle.config = config_;
  bundle.violation = {invariant, t, value, bound, std::move(message)};
  bundle.snapshots = snapshots();
  if (trace_ != nullptr) {
    bundle.recent_events = trace_->recent(kPostmortemEvents);
    bundle.events_evicted = trace_->evicted();
  }
  bundle.checks = checks_;
  write_postmortem(bundle);
  if (config_.action == ViolationAction::DumpAndExit) {
    std::exit(kMonitorViolationExit);
  }
}

void RunMonitor::merge_from(const RunMonitor& other) {
  armed_ = armed_ || other.armed_;
  checks_ += other.checks_;
  violations_total_ += other.violations_total_;

  std::vector<Violation> merged = violations_;
  merged.insert(merged.end(), other.violations_.begin(),
                other.violations_.end());
  std::sort(merged.begin(), merged.end(),
            [](const Violation& a, const Violation& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.invariant != b.invariant) return a.invariant < b.invariant;
              return a.message < b.message;
            });
  if (merged.size() > 16) merged.resize(16);
  violations_ = std::move(merged);

  // Ring semantics for the merged snapshots: chronological, most recent
  // entries win when the combined history exceeds the capacity.
  const std::size_t capacity =
      std::max<std::size_t>(1, std::max(config_.spec.snapshots,
                                        other.config_.spec.snapshots));
  std::vector<MonitorSample> mine = snapshots();
  const std::vector<MonitorSample> theirs = other.snapshots();
  mine.insert(mine.end(), theirs.begin(), theirs.end());
  std::stable_sort(mine.begin(), mine.end(),
                   [](const MonitorSample& a, const MonitorSample& b) {
                     return a.t < b.t;
                   });
  if (mine.size() > capacity) {
    mine.erase(mine.begin(),
               mine.end() - static_cast<std::ptrdiff_t>(capacity));
  }
  snapshots_ = std::move(mine);
  snapshot_head_ = 0;

  watchdog_tripped_ = watchdog_tripped_ || other.watchdog_tripped_;
  crosscheck_tripped_ = crosscheck_tripped_ || other.crosscheck_tripped_;
  dumped_ = dumped_ || other.dumped_;
  if (other.have_prev_ && (!have_prev_ || other.prev_.t > prev_.t)) {
    have_prev_ = true;
    prev_ = other.prev_;
  }
  last_delivered_ = std::max(last_delivered_, other.last_delivered_);
  last_progress_t_ = std::max(last_progress_t_, other.last_progress_t_);
}

void RunMonitor::export_metrics(MetricsRegistry& registry,
                                const std::string& prefix) const {
  registry.gauge(prefix + "armed").set(armed_ ? 1.0 : 0.0);
  registry.counter(prefix + "checks").inc(checks_);
  registry.counter(prefix + "violations").inc(violations_total_);
  registry.gauge(prefix + "snapshots").set(
      static_cast<double>(snapshots_.size()));
  for (const Violation& v : violations_) {
    registry.counter(prefix + "violations." + v.invariant).inc();
  }
}

}  // namespace bcn::obs
