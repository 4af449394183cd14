// Measurement layer of the packet simulator.
//
// SimStats is the per-run observability hub: aggregate counters, the
// fixed-interval (queue, aggregate-rate) trace the phase-plane
// cross-validation consumes, per-flow / per-port timelines
// (obs::TimelineSet), the causal BCN/PAUSE event trace
// (obs::EventTrace), a sigma-value histogram, and per-source delivery
// accounting.  Everything exports deterministically: timelines and
// metrics in name order, per-source accounting sorted by SourceId.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "ode/trajectory.h"
#include "sim/frame.h"
#include "sim/time.h"

namespace bcn::sim {

struct Counters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_enqueued = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_delivered = 0;
  double bits_delivered = 0.0;
  std::uint64_t frames_sampled = 0;
  std::uint64_t bcn_positive = 0;
  std::uint64_t bcn_negative = 0;
  std::uint64_t pause_frames = 0;
};

struct TracePoint {
  SimTime t = 0;
  double queue_bits = 0.0;
  double aggregate_rate = 0.0;  // sum of regulator rates [bits/s]
  // Cumulative delivered bits at the sample instant; lets throughput()
  // window deliveries instead of trusting a caller-supplied horizon.
  double bits_delivered = 0.0;
};

class SimStats {
 public:
  SimStats();

  Counters counters;

  void record(SimTime t, double queue_bits, double aggregate_rate) {
    trace_.push_back(
        {t, queue_bits, aggregate_rate, counters.bits_delivered});
  }

  const std::vector<TracePoint>& trace() const { return trace_; }

  double max_queue() const;
  // Time-average queue over the trace (simple mean of uniform samples).
  double mean_queue() const;
  // Delivered throughput in bits/s over [0, horizon], windowed against
  // the recorded trace: the horizon is clamped to the trace span and the
  // delivered bits are read from the trace at that instant, so a horizon
  // longer than the run can no longer dilute (or inflate) the rate.
  // With no trace recorded the lifetime counters over `horizon` are the
  // only information available and are used as-is.
  double throughput(SimTime horizon) const;

  // Converts the trace to the fluid model's phase coordinates
  // x = q - q0, y = aggregate_rate - C for cross-validation.
  ode::Trajectory to_phase_trajectory(double q0, double capacity) const;

  // Per-flow accounting (filled by the switch on delivery).  Runs on the
  // per-frame fast path, so the store is a dense vector indexed by
  // SourceId rather than a hash map.
  void add_delivered(SourceId source, double bits) {
    if (source >= per_source_bits_.size()) {
      per_source_bits_.resize(source + 1, 0.0);
      per_source_seen_.resize(source + 1, 0);
    }
    per_source_bits_[source] += bits;
    per_source_seen_[source] = 1;
  }
  // Export-friendly view: (SourceId, bits) for every source that
  // delivered at least one frame (including zero-bit ones), sorted by
  // SourceId.
  std::vector<std::pair<SourceId, double>> per_source_bits_sorted() const;

  // Jain fairness index over per-source delivered bits:
  // (sum x)^2 / (n sum x^2); 1.0 is perfectly fair, 1/n maximally unfair.
  // Returns 1.0 when nothing was delivered.
  double jain_fairness_index() const;

  // --- structured observability ----------------------------------------
  // Per-flow / per-port timelines (e.g. "flow.0003.rate_bps",
  // "port.core.queue_bits"), recorded by the network layers.
  obs::TimelineSet& timelines() { return timelines_; }
  const obs::TimelineSet& timelines() const { return timelines_; }

  // Causal BCN / PAUSE event trace (recorded by switches + regulators).
  obs::EventTrace& events() { return events_; }
  const obs::EventTrace& events() const { return events_; }

  // Sigma samples from the congestion point(s), bucketed by sign and
  // magnitude relative to q0 (bounds fixed at construction).
  void record_sigma(double sigma) { sigma_histogram_.record(sigma); }
  const obs::Histogram& sigma_histogram() const { return sigma_histogram_; }

  // Adds this run's metrics to `registry` under `prefix` ("sim." by
  // convention): every counter, queue/fairness gauges, per-flow delivered
  // bits (sorted), and the sigma histogram.  Intended to be called once
  // per run, right before the registry snapshot is written.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "sim.") const;

 private:
  std::vector<TracePoint> trace_;
  std::vector<double> per_source_bits_;   // indexed by SourceId
  std::vector<std::uint8_t> per_source_seen_;
  obs::TimelineSet timelines_;
  obs::EventTrace events_;
  obs::Histogram sigma_histogram_;
};

}  // namespace bcn::sim
