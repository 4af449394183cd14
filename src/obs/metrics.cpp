#include "obs/metrics.h"

#include <algorithm>
#include <utility>

#include "common/format.h"
#include "common/log.h"

namespace bcn::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::record(double x) {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - upper_bounds_.begin())];
  ++count_;
  sum_ += x;
}

bool Histogram::merge(const Histogram& other) {
  if (other.upper_bounds_ != upper_bounds_) {
    BCN_LOG_WARN(
        "Histogram::merge: bounds mismatch (%zu vs %zu buckets), "
        "dropping %llu samples",
        upper_bounds_.size(), other.upper_bounds_.size(),
        static_cast<unsigned long long>(other.count_));
    return false;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  return true;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(upper_bounds)))
      .first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(JsonWriter& json,
                                 const std::string& prefix) const {
  for (const auto& [name, c] : counters_) {
    json.add(prefix + name, static_cast<std::int64_t>(c.value()));
  }
  for (const auto& [name, g] : gauges_) {
    json.add(prefix + name, g.value());
  }
  for (const auto& [name, h] : histograms_) {
    json.add(prefix + name + ".count",
             static_cast<std::int64_t>(h.count()));
    json.add(prefix + name + ".sum", h.sum());
    std::uint64_t cumulative = 0;
    const auto& bounds = h.upper_bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      json.add(prefix + name + ".le_" + strf("%g", bounds[i]),
               static_cast<std::int64_t>(cumulative));
    }
    cumulative += counts.back();
    json.add(prefix + name + ".le_inf",
             static_cast<std::int64_t>(cumulative));
  }
}

}  // namespace bcn::obs
