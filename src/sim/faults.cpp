#include "sim/faults.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "common/format.h"
#include "common/grammar.h"
#include "common/log.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace bcn::sim {
namespace {

// Distinct RNG lane per (seed, entity, fault class); splitmix64 inside
// Rng finishes the mixing, so a simple odd-multiplier combine suffices.
std::uint64_t lane_seed(std::uint64_t seed, std::uint32_t entity,
                        std::uint32_t lane) {
  std::uint64_t h = seed;
  h ^= (static_cast<std::uint64_t>(entity) + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(lane) + 1) * 0xbf58476d1ce4e5b9ULL;
  return h;
}

bool set_error(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

// "0.25" -> probability; rejects anything outside [0, 1].
bool parse_probability(const std::string& text, double* out,
                       std::string* error) {
  const auto value = scan_number(text, error);
  if (!value) return false;
  if (!(*value >= 0.0 && *value <= 1.0)) {
    return set_error(error, "probability '" + text + "' outside [0, 1]");
  }
  *out = *value;
  return true;
}

// "100us" / "2.5ms" / "750ns" / "1s" -> nanoseconds.
bool parse_time(const std::string& text, SimTime* out, std::string* error) {
  const auto duration = scan_duration(text, error);
  if (duration) *out = duration->nanoseconds();
  return duration.has_value();
}

// "10ms+2ms/30ms+2ms" -> down/up windows (down-at + hold time each).
bool parse_flaps(const std::string& text, std::vector<LinkFlapWindow>* out,
                 std::string* error) {
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t slash = text.find('/', start);
    const std::string window =
        text.substr(start, slash == std::string::npos ? std::string::npos
                                                      : slash - start);
    const std::size_t plus = window.find('+');
    if (plus == std::string::npos) {
      return set_error(error, "bad flap window '" + window +
                                  "' (want <down-at>+<hold>)");
    }
    LinkFlapWindow w;
    SimTime hold = 0;
    if (!parse_time(window.substr(0, plus), &w.down_at, error) ||
        !parse_time(window.substr(plus + 1), &hold, error)) {
      return false;
    }
    if (hold <= 0) {
      return set_error(error, "flap hold must be positive in '" + window +
                                  "'");
    }
    if (hold > std::numeric_limits<SimTime>::max() - w.down_at) {
      return set_error(error, "flap window '" + window +
                                  "' ends past the simulated clock");
    }
    w.up_at = w.down_at + hold;
    out->push_back(w);
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  std::sort(out->begin(), out->end(),
            [](const LinkFlapWindow& a, const LinkFlapWindow& b) {
              return a.down_at < b.down_at;
            });
  for (std::size_t i = 1; i < out->size(); ++i) {
    if ((*out)[i].down_at < (*out)[i - 1].up_at) {
      return set_error(error, "flap windows overlap");
    }
  }
  return true;
}

}  // namespace

std::optional<FaultPlan> parse_fault_plan(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  if (spec.empty()) {
    set_error(error, "empty fault spec");
    return std::nullopt;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    std::string entry = spec.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    // Tolerate stray spaces around entries ("bcn_drop=0.1, seed=7").
    while (!entry.empty() && std::isspace(entry.front())) entry.erase(0, 1);
    while (!entry.empty() && std::isspace(entry.back())) entry.pop_back();
    const std::size_t eq = entry.find('=');
    if (entry.empty() || eq == std::string::npos || eq == 0) {
      set_error(error, "bad entry '" + entry + "' (want key=value)");
      return std::nullopt;
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    bool ok = true;
    if (key == "bcn_drop") {
      ok = parse_probability(value, &plan.bcn_drop_p, error);
    } else if (key == "bcn_dup") {
      ok = parse_probability(value, &plan.bcn_dup_p, error);
    } else if (key == "bcn_delay") {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        ok = set_error(error, "bcn_delay wants <prob>:<duration>, got '" +
                                  value + "'");
      } else {
        ok = parse_probability(value.substr(0, colon), &plan.bcn_delay_p,
                               error) &&
             parse_time(value.substr(colon + 1), &plan.bcn_delay, error);
        if (ok && plan.bcn_delay_p > 0.0 && plan.bcn_delay <= 0) {
          ok = set_error(error, "bcn_delay duration must be positive");
        }
      }
    } else if (key == "data_drop") {
      ok = parse_probability(value, &plan.data_drop_p, error);
    } else if (key == "pause_drop") {
      ok = parse_probability(value, &plan.pause_drop_p, error);
    } else if (key == "flap") {
      ok = parse_flaps(value, &plan.flaps, error);
    } else if (key == "seed") {
      std::string why;
      const auto seed =
          scan_count(value, std::numeric_limits<std::uint64_t>::max(), &why);
      if (seed) plan.seed = *seed;
      else ok = set_error(error, "seed: " + why);
    } else {
      ok = set_error(error, "unknown fault key '" + key + "'");
    }
    if (!ok) return std::nullopt;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return plan;
}

const char* fault_plan_usage() {
  return
      "fault spec grammar (comma-separated key=value entries):\n"
      "  bcn_drop=P          drop reverse-path BCN notifications\n"
      "  bcn_dup=P           duplicate BCN notifications\n"
      "  bcn_delay=P:DUR     delay BCN notifications by DUR (e.g. 0.2:100us)\n"
      "  data_drop=P         drop forward-path data frames\n"
      "  pause_drop=P        drop 802.3x PAUSE frames\n"
      "  flap=AT+HOLD[/...]  timed link-down windows (e.g. 10ms+2ms)\n"
      "  seed=N              fault RNG seed (default 0xfa17)\n"
      "P is a probability in [0,1]; DUR a finite number with an ns|us|ms|s\n"
      "suffix; N a 64-bit decimal count.\n"
      "Example: --faults bcn_drop=0.2,bcn_delay=0.1:100us,seed=7";
}

std::string fault_plan_summary(const FaultPlan& plan) {
  std::string s;
  const auto add = [&s](const std::string& part) {
    if (!s.empty()) s += ',';
    s += part;
  };
  if (plan.bcn_drop_p > 0.0) add(strf("bcn_drop=%g", plan.bcn_drop_p));
  if (plan.bcn_dup_p > 0.0) add(strf("bcn_dup=%g", plan.bcn_dup_p));
  if (plan.bcn_delay_p > 0.0) {
    add(strf("bcn_delay=%g:%lldns", plan.bcn_delay_p,
             static_cast<long long>(plan.bcn_delay)));
  }
  if (plan.data_drop_p > 0.0) add(strf("data_drop=%g", plan.data_drop_p));
  if (plan.pause_drop_p > 0.0) add(strf("pause_drop=%g", plan.pause_drop_p));
  if (!plan.flaps.empty()) {
    std::string flaps = "flap=";
    for (std::size_t i = 0; i < plan.flaps.size(); ++i) {
      if (i) flaps += '/';
      flaps += strf("%lldns+%lldns",
                    static_cast<long long>(plan.flaps[i].down_at),
                    static_cast<long long>(plan.flaps[i].up_at -
                                           plan.flaps[i].down_at));
    }
    add(flaps);
  }
  if (plan.seed != FaultPlan{}.seed) {
    add(strf("seed=%llu", static_cast<unsigned long long>(plan.seed)));
  }
  if (s.empty()) s = "none";
  return s;
}

void export_fault_metrics(const FaultCounters& counters,
                          obs::MetricsRegistry& registry,
                          const std::string& prefix) {
  registry.counter(prefix + "bcn_dropped").inc(counters.bcn_dropped);
  registry.counter(prefix + "bcn_duplicated").inc(counters.bcn_duplicated);
  registry.counter(prefix + "bcn_delayed").inc(counters.bcn_delayed);
  registry.counter(prefix + "data_dropped").inc(counters.data_dropped);
  registry.counter(prefix + "pause_dropped").inc(counters.pause_dropped);
  registry.counter(prefix + "link_flaps").inc(counters.link_flaps);
  registry.counter(prefix + "flap_dropped").inc(counters.flap_dropped);
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint32_t entity,
                             FaultCounters* counters, obs::EventTrace* trace)
    : plan_(plan),
      entity_(entity),
      counters_(counters),
      trace_(trace),
      bcn_drop_rng_(lane_seed(plan.seed, entity, 0)),
      bcn_dup_rng_(lane_seed(plan.seed, entity, 1)),
      bcn_delay_rng_(lane_seed(plan.seed, entity, 2)),
      data_rng_(lane_seed(plan.seed, entity, 3)),
      pause_rng_(lane_seed(plan.seed, entity, 4)) {}

void FaultInjector::note_drop(const char* what) {
  // Rate-limited like sim.schedule_clamped: the first few drops identify
  // an active fault plan in the log; the fault.* counters keep the tally.
  if (drop_warnings_.allow()) {
    BCN_LOG_INFO(
        "fault: entity %u dropped a %s frame (occurrence %llu; totals in "
        "fault.* counters)",
        entity_, what,
        static_cast<unsigned long long>(drop_warnings_.count()));
  }
}

bool FaultInjector::drop_bcn(SimTime now, SourceId flow) {
  if (plan_.bcn_drop_p <= 0.0) return false;
  if (!bcn_drop_rng_.bernoulli(plan_.bcn_drop_p)) return false;
  if (counters_) ++counters_->bcn_dropped;
  if (trace_) {
    trace_->record({to_seconds(now), obs::EventKind::FaultBcnDropped,
                    entity_, flow, 0.0, 0.0});
  }
  note_drop("BCN");
  return true;
}

SimTime FaultInjector::bcn_extra_delay(SimTime now, SourceId flow) {
  if (plan_.bcn_delay_p <= 0.0) return 0;
  if (!bcn_delay_rng_.bernoulli(plan_.bcn_delay_p)) return 0;
  if (counters_) ++counters_->bcn_delayed;
  if (trace_) {
    trace_->record({to_seconds(now), obs::EventKind::FaultBcnDelayed,
                    entity_, flow, 0.0, to_seconds(plan_.bcn_delay)});
  }
  return plan_.bcn_delay;
}

bool FaultInjector::duplicate_bcn(SimTime now, SourceId flow) {
  if (plan_.bcn_dup_p <= 0.0) return false;
  if (!bcn_dup_rng_.bernoulli(plan_.bcn_dup_p)) return false;
  if (counters_) ++counters_->bcn_duplicated;
  if (trace_) {
    trace_->record({to_seconds(now), obs::EventKind::FaultBcnDuplicated,
                    entity_, flow, 0.0, 0.0});
  }
  return true;
}

bool FaultInjector::drop_pause(SimTime now) {
  if (plan_.pause_drop_p <= 0.0) return false;
  if (!pause_rng_.bernoulli(plan_.pause_drop_p)) return false;
  if (counters_) ++counters_->pause_dropped;
  if (trace_) {
    trace_->record({to_seconds(now), obs::EventKind::FaultPauseDropped,
                    entity_, 0, 0.0, 0.0});
  }
  note_drop("PAUSE");
  return true;
}

bool FaultInjector::link_down(SimTime now) const {
  for (const LinkFlapWindow& w : plan_.flaps) {
    if (now < w.down_at) return false;  // windows sorted
    if (now < w.up_at) return true;
  }
  return false;
}

void FaultInjector::on_flap_edge(SimTime now) {
  // Inside a window this is the down edge ([down_at, up_at) is half-open,
  // so up_at tests false).
  const bool down = link_down(now);
  if (down && counters_) ++counters_->link_flaps;
  if (trace_) {
    trace_->record({to_seconds(now),
                    down ? obs::EventKind::LinkDown : obs::EventKind::LinkUp,
                    entity_, 0, 0.0, 0.0});
  }
}

bool FaultInjector::cut_by_flap(SimTime now, SourceId flow) {
  if (plan_.flaps.empty() || !link_down(now)) return false;
  if (counters_) ++counters_->flap_dropped;
  if (trace_) {
    trace_->record({to_seconds(now), obs::EventKind::FaultDataDropped,
                    entity_, flow, 0.0, 0.0});
  }
  note_drop("in-flight (link down)");
  return true;
}

bool FaultInjector::drop_data(SimTime now, SourceId flow) {
  if (plan_.data_drop_p <= 0.0) return false;
  if (!data_rng_.bernoulli(plan_.data_drop_p)) return false;
  if (counters_) ++counters_->data_dropped;
  if (trace_) {
    trace_->record({to_seconds(now), obs::EventKind::FaultDataDropped,
                    entity_, flow, 0.0, 0.0});
  }
  note_drop("data");
  return true;
}

}  // namespace bcn::sim
