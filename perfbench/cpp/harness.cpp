#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>

namespace perfbench {
namespace {

double cpu_clock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// JSON has no NaN/Inf; a non-finite metric is reported as -1, which no
// metric here can legitimately read, so the tests catch it.
double finite_or_flag(double v) { return std::isfinite(v) ? v : -1.0; }

}  // namespace

double process_cpu_seconds() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {
constexpr double kHistogramFloor = 1e-7;  // seconds
const double kLogStep = std::log(1.01);
}  // namespace

void LatencyHistogram::add(double seconds) {
  const double pos = std::log(std::max(seconds, kHistogramFloor) /
                              kHistogramFloor) / kLogStep;
  const auto last = static_cast<double>(buckets_.size() - 1);
  ++buckets_[static_cast<std::size_t>(std::min(pos, last))];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) break;
  }
  return kHistogramFloor * std::exp((static_cast<double>(i) + 0.5) * kLogStep);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Result::merge(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
}

void add_end_to_end(Result& result, double setup_cpu_s, double cpu_s_per_op) {
  result.add("setup_s", setup_cpu_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  result.add("cpu_ms_per_op", 1e3 * cpu_s_per_op, "ms");
  std::printf("  checks: %llu attempted, fail_rate %.6g\n",
              static_cast<unsigned long long>(result.attempted),
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0);
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), finite_or_flag(m.value),
                m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<LayerRow> layer_self_times(
    const std::vector<bcn::obs::SpanRecord>& spans, std::uint32_t tid,
    std::uint64_t begin_ns, std::uint64_t end_ns) {
  std::map<std::string, LayerRow> rows;
  for (const auto& s : spans) {
    if (s.tid != tid || s.start_ns < begin_ns ||
        s.start_ns + s.dur_ns > end_ns) {
      continue;
    }
    const std::string_view name(s.name);
    std::string layer(name.substr(0, name.find('.')));
    LayerRow& row = rows[layer];
    row.layer = layer;
    row.self_s += static_cast<double>(s.self_ns) / 1e9;
    ++row.spans;
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void move_self_time(std::vector<LayerRow>& rows, const std::string& from,
                    const std::string& to, double seconds) {
  const auto row = [&rows](const std::string& layer) -> LayerRow& {
    for (LayerRow& r : rows) {
      if (r.layer == layer) return r;
    }
    rows.push_back({layer, 0.0, 0});
    return rows.back();
  };
  row(from).self_s -= seconds;
  row(to).self_s += seconds;
}

double print_layer_table(const std::string& title,
                         const std::vector<LayerRow>& rows,
                         std::string_view root_layer, double wall_s) {
  std::printf("  layer table: %s (wall %.6f s)\n", title.c_str(), wall_s);
  std::printf("    %-12s %12s %8s %10s\n", "layer", "self_s", "share",
              "spans");
  double sum = 0.0;
  double unattributed = 0.0;
  for (const LayerRow& row : rows) {
    const bool root = row.layer == root_layer;
    if (root) unattributed = row.self_s;
    sum += row.self_s;
    std::printf("    %-12s %12.6f %7.2f%% %10llu\n",
                root ? "unattributed" : row.layer.c_str(), row.self_s,
                wall_s > 0.0 ? 100.0 * row.self_s / wall_s : 0.0,
                static_cast<unsigned long long>(row.spans));
  }
  std::printf("    %-12s %12.6f %7.2f%%\n", "sum", sum,
              wall_s > 0.0 ? 100.0 * sum / wall_s : 0.0);
  return wall_s > 0.0 ? unattributed / wall_s : 0.0;
}

const bcn::obs::SpanRecord* last_span(
    const std::vector<bcn::obs::SpanRecord>& spans, const char* name) {
  const std::string_view want(name);
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (want == it->name) return &*it;
  }
  return nullptr;
}

}  // namespace perfbench
