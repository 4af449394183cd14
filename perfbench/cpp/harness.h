// Shared plumbing of the repo benchmark program: clocks, order
// statistics, peak RSS, the result record every workload fills, and the
// span-based layer attribution of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracing.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Process-wide benchmark options, parsed once in main.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  // Flips every correctness reference, so a correct program must fail
  // every check (the benchmark's own negative test).
  bool corrupt_reference = false;
};

// CPU seconds consumed so far by the whole process (every thread, since
// exec) and by the calling thread.  The gated metrics are CPU times: on
// a shared virtual host the hypervisor steals vCPU time in bursts that
// stretch wall time by tens of percent from run to run, and CPU time
// does not count stolen time.
double process_cpu_seconds();
double thread_cpu_seconds();

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb();

// Constant-memory latency record: log-spaced buckets 1 % wide from 0.1 us
// to 100 s, so a long closed loop's footprint (and peak RSS) does not
// grow with its request count.  Quantiles are bucket midpoints.
class LatencyHistogram {
 public:
  void add(double seconds);
  void merge(const LatencyHistogram& other);
  double quantile(double q) const;  // seconds
  std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(2100, 0);
  std::uint64_t count_ = 0;
};

// Mixes a seed with a stream label (splitmix64), so every consumer of
// the workload seed draws from an independent stream.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the operations it checked and its metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const Result& other);
};

// The end-to-end metrics every workload reports: set-up CPU seconds
// (process start through warm-up), peak RSS, and CPU seconds per
// operation of the timed loop (the median over operations where each is
// timed alone).
void add_end_to_end(Result& result, double setup_cpu_s, double cpu_s_per_op);

// Prints the result as the final stdout line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
void print_result(const Result& result);

// --- layer attribution ----------------------------------------------------

// Self time per layer (the dotted prefix of a span name) of the spans
// recorded on one thread inside [begin_ns, end_ns].  Because a span's
// self time excludes its children, the rows of a single root's subtree
// sum exactly to the root's duration.
struct LayerRow {
  std::string layer;
  double self_s = 0.0;
  std::uint64_t spans = 0;
};
std::vector<LayerRow> layer_self_times(
    const std::vector<bcn::obs::SpanRecord>& spans, std::uint32_t tid,
    std::uint64_t begin_ns, std::uint64_t end_ns);

// Moves `seconds` of self time from row `from` to row `to` (created when
// absent): a main-thread span that waits on a parallel region hands the
// workers' mean busy time to the layer that did the work.
void move_self_time(std::vector<LayerRow>& rows, const std::string& from,
                    const std::string& to, double seconds);

// Prints a layer table whose rows sum to `wall_s`; the row of
// `root_layer` (the benchmark's own root span) is the unattributed
// remainder.  Returns that remainder as a share of wall_s.
double print_layer_table(const std::string& title,
                         const std::vector<LayerRow>& rows,
                         std::string_view root_layer, double wall_s);

// The most recent span named `name` (a string literal) on any thread.
const bcn::obs::SpanRecord* last_span(
    const std::vector<bcn::obs::SpanRecord>& spans, const char* name);

}  // namespace perfbench
