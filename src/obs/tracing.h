// Span tracing and self-profiling: *where time went* observability.
//
// `TraceSpan` is an RAII scoped timer.  When tracing is disabled (the
// default) constructing one costs a single relaxed atomic load and a
// branch — nothing else runs, so instrumented hot paths keep their
// un-instrumented cost profile.  When enabled, each completed span is
// appended to a per-thread buffer — lock-free: only the owning thread
// ever writes it, and the exporter reads buffers only at drain points
// where instrumented work is quiescent (see tracing_drain) — and
// carries:
//
//   * a static-literal name ("ode.integrate_hybrid" — the dotted prefix
//     names the subsystem),
//   * start time and duration (steady clock, ns since the tracer epoch),
//   * self time (duration minus time spent in nested child spans),
//   * the recording thread's process-local ordinal and nesting depth,
//   * up to four numeric key=value args.
//
// Two exporters consume the drained spans:
//
//   * `write_chrome_trace` — Chrome trace-event JSON ("X" complete
//     events plus "M" thread-name metadata), loadable in Perfetto or
//     chrome://tracing; parallel_for workers are named by worker index.
//   * `build_self_profile` — an aggregated table (call count,
//     inclusive and exclusive wall-clock per span name, name-sorted for
//     determinism) that `profile_to_metrics` folds into a
//     MetricsRegistry snapshot as `profile.*` gauges.
//
// Span names must be string literals (or otherwise outlive the drain):
// the recorder stores the pointer, never a copy.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace bcn {
class ArgParser;
}

namespace bcn::obs {

struct TraceArg {
  const char* key = nullptr;  // static literal
  double value = 0.0;
};

inline constexpr std::size_t kMaxTraceArgs = 4;

struct SpanRecord {
  const char* name = nullptr;   // static literal
  std::uint64_t start_ns = 0;   // since the tracer epoch (steady clock)
  std::uint64_t dur_ns = 0;     // inclusive wall-clock
  std::uint64_t self_ns = 0;    // dur_ns minus nested child spans
  std::uint32_t tid = 0;        // process-local thread ordinal
  std::uint16_t depth = 0;      // nesting depth at record time (root = 0)
  std::uint8_t n_args = 0;
  std::array<TraceArg, kMaxTraceArgs> args{};
};

// --- global switch -------------------------------------------------------

// The hot-path guard: one relaxed atomic load.
bool tracing_enabled();

// Turns span collection on/off.  Enabling does not clear previously
// drained spans (a runner can enable once and drain per experiment).
void tracing_enable();
void tracing_disable();

// Names the calling thread in the Chrome export ("pool-worker-3").
// Cheap and safe to call whether or not tracing is enabled.
void tracing_set_thread_name(std::string name);

// --- drain / inspect -----------------------------------------------------

// Moves every per-thread buffer into the global drained list, releases
// the buffers of threads that have exited and returns the number of
// spans moved.  Call only while other recording threads are quiescent —
// after the recording threads are joined (parallel_for and run_fabric
// join theirs before they return), since the join is what orders worker
// writes before this read; that contract is what lets the record path
// skip locking entirely.  Spans still open on the calling thread simply
// stay unrecorded until they close.
std::size_t tracing_drain();

// All spans drained so far, in drain order.
const std::vector<SpanRecord>& tracing_spans();

// Drops drained spans, per-thread leftovers and thread names; the
// enabled flag is untouched.
void tracing_clear();

// --- exporters -----------------------------------------------------------

// Chrome trace-event JSON: one event per line, "X" complete events
// sorted by (tid, start) plus one "M" thread_name record per named
// thread.  ts/dur are microseconds.  False on I/O failure.
bool write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<SpanRecord>& spans);

struct ProfileEntry {
  std::string name;
  std::uint64_t calls = 0;
  double total_seconds = 0.0;  // inclusive
  double self_seconds = 0.0;   // exclusive of child spans
};

// Aggregates spans by name; entries are name-sorted (deterministic).
std::vector<ProfileEntry> build_self_profile(
    const std::vector<SpanRecord>& spans);

// Folds a profile into `registry` as gauges: profile.<name>.calls,
// profile.<name>.total_seconds, profile.<name>.self_seconds.
void profile_to_metrics(const std::vector<ProfileEntry>& profile,
                        MetricsRegistry& registry,
                        const std::string& prefix = "profile.");

// --- RAII span -----------------------------------------------------------

class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!tracing_enabled()) return;
    begin(name);
  }
  TraceSpan(const char* name, const char* key, double value) {
    if (!tracing_enabled()) return;
    begin(name);
    arg(key, value);
  }
  ~TraceSpan() {
    if (active_) end();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attaches a numeric arg (no-op when inactive or already at capacity);
  // callable any time before destruction, so results computed inside the
  // span can ride along.
  void arg(const char* key, double value) {
    if (!active_ || n_args_ >= kMaxTraceArgs) return;
    args_[n_args_++] = {key, value};
  }

  bool active() const { return active_; }

 private:
  void begin(const char* name);
  void end();

  bool active_ = false;
  std::uint8_t n_args_ = 0;
  std::uint16_t depth_ = 0;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  TraceSpan* parent_ = nullptr;
  std::array<TraceArg, kMaxTraceArgs> args_{};
};

// --- tool plumbing -------------------------------------------------------

// Resolves the trace destination from --trace (value = output path) with
// the BCN_TRACE environment variable as fallback, enabling tracing when
// one is present.  Returns the resolved path, or nullopt when tracing
// was not requested.
std::optional<std::filesystem::path> maybe_enable_tracing(
    const ArgParser& args);

// Drains outstanding spans and writes the Chrome trace to `path`,
// announcing the artifact on stdout.  Returns the number of spans
// exported (0 also on I/O failure, which is logged).
std::size_t finalize_tracing(const std::filesystem::path& path);

}  // namespace bcn::obs
