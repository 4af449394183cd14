#include "sim/stats.h"

#include <algorithm>

namespace bcn::sim {
namespace {

// Sigma buckets in bits, symmetric about 0.  Sigma is bounded by
// ~q0 + w * (queue change per sampling interval), so megabit-scale
// bounds cover every standard-draft configuration.
std::vector<double> sigma_bounds() {
  return {-5e6, -2.5e6, -1e6, -2.5e5, 0.0, 2.5e5, 1e6, 2.5e6, 5e6};
}

}  // namespace

SimStats::SimStats() : sigma_histogram_(sigma_bounds()) {}

double SimStats::max_queue() const {
  double m = 0.0;
  for (const auto& p : trace_) m = std::max(m, p.queue_bits);
  return m;
}

double SimStats::mean_queue() const {
  if (trace_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& p : trace_) sum += p.queue_bits;
  return sum / static_cast<double>(trace_.size());
}

double SimStats::throughput(SimTime horizon) const {
  if (horizon <= 0) return 0.0;
  if (trace_.empty()) {
    // No trace to validate against; lifetime counters are all we have.
    return counters.bits_delivered / to_seconds(horizon);
  }
  const SimTime window = std::min(horizon, trace_.back().t);
  if (window <= 0) return 0.0;
  double bits = 0.0;
  for (const auto& p : trace_) {
    if (p.t > window) break;  // trace is recorded in time order
    bits = p.bits_delivered;
  }
  return bits / to_seconds(window);
}

std::vector<std::pair<SourceId, double>> SimStats::per_source_bits_sorted()
    const {
  // The dense store is already in SourceId order; just drop the holes.
  std::vector<std::pair<SourceId, double>> out;
  out.reserve(per_source_bits_.size());
  for (std::size_t i = 0; i < per_source_bits_.size(); ++i) {
    if (per_source_seen_[i]) {
      out.emplace_back(static_cast<SourceId>(i), per_source_bits_[i]);
    }
  }
  return out;
}

double SimStats::jain_fairness_index() const {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < per_source_bits_.size(); ++i) {
    if (!per_source_seen_[i]) continue;
    const double bits = per_source_bits_[i];
    sum += bits;
    sum_sq += bits * bits;
    ++n;
  }
  if (n == 0 || sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

void SimStats::export_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const {
  registry.counter(prefix + "frames_sent").inc(counters.frames_sent);
  registry.counter(prefix + "frames_enqueued").inc(counters.frames_enqueued);
  registry.counter(prefix + "frames_dropped").inc(counters.frames_dropped);
  registry.counter(prefix + "frames_delivered")
      .inc(counters.frames_delivered);
  registry.counter(prefix + "frames_sampled").inc(counters.frames_sampled);
  registry.counter(prefix + "bcn_positive").inc(counters.bcn_positive);
  registry.counter(prefix + "bcn_negative").inc(counters.bcn_negative);
  registry.counter(prefix + "pause_frames").inc(counters.pause_frames);
  registry.counter(prefix + "trace_samples").inc(trace_.size());
  registry.counter(prefix + "events").inc(events_.size());
  registry.gauge(prefix + "bits_delivered").set(counters.bits_delivered);
  registry.gauge(prefix + "max_queue_bits").set(max_queue());
  registry.gauge(prefix + "mean_queue_bits").set(mean_queue());
  registry.gauge(prefix + "jain_fairness").set(jain_fairness_index());
  for (const auto& [id, bits] : per_source_bits_sorted()) {
    registry.gauge(prefix + "flow." + std::to_string(id) + ".bits_delivered")
        .set(bits);
  }
  registry.histogram(prefix + "sigma_bits", sigma_bounds())
      .merge(sigma_histogram_);
}

ode::Trajectory SimStats::to_phase_trajectory(double q0,
                                              double capacity) const {
  ode::Trajectory out;
  out.reserve(trace_.size());
  for (const auto& p : trace_) {
    out.push_back(to_seconds(p.t),
                  {p.queue_bits - q0, p.aggregate_rate - capacity});
  }
  return out;
}

}  // namespace bcn::sim
