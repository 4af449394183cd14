// Lightweight metrics registry: named counters, gauges and fixed-bucket
// histograms for run-level observability.
//
// Hot paths hold the Counter/Gauge/Histogram reference returned by the
// registry (references are stable — the registry never removes entries),
// so per-event updates cost one increment, not a map lookup.  Export is
// deterministic: entries are emitted in name order regardless of
// creation or update order.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace bcn::obs {

// Counter and Gauge updates are relaxed atomics so instrumented parallel
// stages (pool workers bumping a shared counter from parallel_for
// bodies) are race-free under TSan.  Relaxed is enough: metrics are
// snapshotted after the fork-join barrier, which orders the reads.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  // Monotone raise: keeps max(current, v).  CAS loop so concurrent
  // raisers (parallel wave workers recording a high-water mark) never
  // lose an update.
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: cumulative-style buckets with the given upper
// bounds (ascending) plus an implicit +inf overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double x);
  // Accumulates another histogram with identical bounds.  A bounds
  // mismatch is a caller bug: the merge is refused, a warning is logged,
  // and false is returned so the drop is visible instead of silent.
  bool merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  // One count per bound, plus the trailing overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  // Creates on first use; later calls return the same instance (the
  // histogram bounds argument is ignored when the histogram exists).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  const Counter* find_counter(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Flat snapshot into `json`, every key prefixed (e.g. "metrics.").
  // Counters emit one integer field; gauges one double; histograms
  // <name>.count, <name>.sum and one <name>.le_<bound> per bucket
  // (cumulative counts, trailing bucket le_inf).  Deterministic: name
  // order within each kind, counters then gauges then histograms.
  void write_json(JsonWriter& json, const std::string& prefix) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace bcn::obs
