#include "obs/tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include <gtest/gtest.h>

#include "exec/parallel_for.h"
#include "obs/metrics.h"

namespace bcn::obs {
namespace {

// Every test owns the global recorder state: start clean, leave clean.
class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracing_disable();
    tracing_clear();
  }
  void TearDown() override {
    tracing_disable();
    tracing_clear();
  }
};

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST_F(TracingTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(tracing_enabled());
  {
    TraceSpan outer("test.outer");
    TraceSpan inner("test.inner", "k", 1.0);
    inner.arg("extra", 2.0);
    EXPECT_FALSE(outer.active());
    EXPECT_FALSE(inner.active());
  }
  EXPECT_EQ(tracing_drain(), 0u);
  EXPECT_TRUE(tracing_spans().empty());
}

TEST_F(TracingTest, NestedSpansRecordDepthAndCloseChildFirst) {
  tracing_enable();
  {
    TraceSpan outer("test.outer");
    { TraceSpan inner("test.inner"); }
    { TraceSpan inner2("test.inner"); }
  }
  tracing_drain();
  const auto& spans = tracing_spans();
  ASSERT_EQ(spans.size(), 3u);
  // Children close (and therefore record) before the parent.
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_STREQ(spans[1].name, "test.inner");
  EXPECT_STREQ(spans[2].name, "test.outer");
  EXPECT_EQ(spans[2].depth, 0);
  // The parent's interval covers both children.
  EXPECT_LE(spans[2].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[2].start_ns + spans[2].dur_ns,
            spans[1].start_ns + spans[1].dur_ns);
}

TEST_F(TracingTest, SelfTimeExcludesChildren) {
  tracing_enable();
  {
    TraceSpan outer("test.outer");
    {
      TraceSpan child("test.child");
      spin_for(std::chrono::microseconds(2000));
    }
    spin_for(std::chrono::microseconds(500));
  }
  tracing_drain();
  const auto& spans = tracing_spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto& child = spans[0];
  const auto& outer = spans[1];
  ASSERT_STREQ(outer.name, "test.outer");
  // Inclusive >= child; exclusive = inclusive - child exactly.
  EXPECT_GE(outer.dur_ns, child.dur_ns);
  EXPECT_EQ(outer.self_ns, outer.dur_ns - child.dur_ns);
  // The child had no children, so its self time is its duration.
  EXPECT_EQ(child.self_ns, child.dur_ns);
  // And the child really did spin for ~2 ms while the parent tail was
  // ~0.5 ms, so exclusive must be well under inclusive.
  EXPECT_LT(outer.self_ns, outer.dur_ns / 2);
}

TEST_F(TracingTest, ArgsAreCappedAtCapacity) {
  tracing_enable();
  {
    TraceSpan span("test.args", "a", 1.0);
    span.arg("b", 2.0);
    span.arg("c", 3.0);
    span.arg("d", 4.0);
    span.arg("overflow", 5.0);  // silently dropped
  }
  tracing_drain();
  ASSERT_EQ(tracing_spans().size(), 1u);
  const auto& s = tracing_spans()[0];
  ASSERT_EQ(s.n_args, kMaxTraceArgs);
  EXPECT_STREQ(s.args[0].key, "a");
  EXPECT_EQ(s.args[3].value, 4.0);
}

TEST_F(TracingTest, SelfProfileAggregatesByNameSorted) {
  tracing_enable();
  {
    TraceSpan b1("test.b");
    { TraceSpan a1("test.a"); }
    { TraceSpan a2("test.a"); }
  }
  tracing_drain();
  const auto profile = build_self_profile(tracing_spans());
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile[0].name, "test.a");  // name-sorted
  EXPECT_EQ(profile[0].calls, 2u);
  EXPECT_EQ(profile[1].name, "test.b");
  EXPECT_EQ(profile[1].calls, 1u);
  // test.b's inclusive time covers both test.a calls; its exclusive time
  // is what profile semantics subtract back out.
  EXPECT_GE(profile[1].total_seconds,
            profile[0].total_seconds);
  EXPECT_NEAR(profile[1].total_seconds - profile[1].self_seconds,
              profile[0].total_seconds, 1e-9);
}

TEST_F(TracingTest, ProfileToMetricsWritesGauges) {
  tracing_enable();
  { TraceSpan span("test.unit"); }
  tracing_drain();
  MetricsRegistry registry;
  profile_to_metrics(build_self_profile(tracing_spans()), registry);
  EXPECT_EQ(registry.gauge("profile.test.unit.calls").value(), 1.0);
  EXPECT_GE(registry.gauge("profile.test.unit.total_seconds").value(), 0.0);
  EXPECT_GE(registry.gauge("profile.test.unit.self_seconds").value(),
            registry.gauge("profile.test.unit.total_seconds").value() - 1e-9);
}

TEST_F(TracingTest, SpansFromWorkerThreadsCarryWorkerTidsNotMain) {
  tracing_enable();
  { TraceSpan span("test.on_main"); }
  exec::ParallelForOptions opts;
  opts.threads = 4;
  exec::parallel_for(
      64,
      [](std::size_t) {
        TraceSpan span("test.work");
        spin_for(std::chrono::microseconds(20));
      },
      opts);
  tracing_drain();
  const auto& spans = tracing_spans();
  std::uint32_t main_tid = 0;
  bool found_main = false;
  for (const auto& s : spans) {
    if (std::string(s.name) == "test.on_main") {
      main_tid = s.tid;
      found_main = true;
    }
  }
  ASSERT_TRUE(found_main);
  // With several workers the main thread only starts and joins them;
  // every body span must carry a worker tid, never main's.
  std::size_t work_spans = 0;
  for (const auto& s : spans) {
    if (std::string(s.name) == "test.work") {
      ++work_spans;
      EXPECT_NE(s.tid, main_tid);
    }
  }
  EXPECT_EQ(work_spans, 64u);

  // The spans a traced census reads to give the workers' time to the
  // body's layer: one exec.parallel_for on the caller with args (n,
  // threads) in that order, and exec.chunk spans inside it on workers
  // only, whose (begin, count) tile [0, n) exactly once and whose worker
  // arg names one of the call's workers.
  const SpanRecord* call = nullptr;
  for (const auto& s : spans) {
    if (std::string(s.name) != "exec.parallel_for") continue;
    EXPECT_EQ(call, nullptr) << "more than one exec.parallel_for span";
    call = &s;
  }
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->tid, main_tid);
  ASSERT_EQ(call->n_args, 2u);
  EXPECT_EQ(std::string(call->args[0].key), "n");
  EXPECT_EQ(call->args[0].value, 64.0);
  EXPECT_EQ(std::string(call->args[1].key), "threads");
  EXPECT_EQ(call->args[1].value, 4.0);
  std::vector<int> covered(64, 0);
  for (const auto& s : spans) {
    if (std::string(s.name) != "exec.chunk") continue;
    EXPECT_NE(s.tid, main_tid);
    EXPECT_GE(s.start_ns, call->start_ns);
    EXPECT_LE(s.start_ns + s.dur_ns, call->start_ns + call->dur_ns);
    ASSERT_EQ(s.n_args, 3u);
    EXPECT_EQ(std::string(s.args[0].key), "begin");
    EXPECT_EQ(std::string(s.args[1].key), "count");
    EXPECT_EQ(std::string(s.args[2].key), "worker");
    EXPECT_GE(s.args[2].value, 0.0);
    EXPECT_LT(s.args[2].value, 4.0);
    const auto begin = static_cast<std::size_t>(s.args[0].value);
    const auto count = static_cast<std::size_t>(s.args[1].value);
    EXPECT_GE(count, 1u);
    ASSERT_LE(begin + count, covered.size());
    for (std::size_t i = begin; i < begin + count; ++i) ++covered[i];
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_EQ(covered[i], 1) << "index " << i;
  }
}

TEST_F(TracingTest, SerialParallelForNestsBodySpansOnTheCaller) {
  // One thread runs the plain loop on the caller: the census sees one
  // exec.parallel_for with args (n, 1), no exec.chunk, and the body's
  // spans as its children on the same thread.
  tracing_enable();
  exec::parallel_for(
      5, [](std::size_t) { TraceSpan span("test.work"); }, {.threads = 1});
  tracing_drain();
  const auto& spans = tracing_spans();
  const SpanRecord* call = nullptr;
  for (const auto& s : spans) {
    if (std::string(s.name) == "exec.parallel_for") call = &s;
  }
  ASSERT_NE(call, nullptr);
  ASSERT_EQ(call->n_args, 2u);
  EXPECT_EQ(std::string(call->args[0].key), "n");
  EXPECT_EQ(call->args[0].value, 5.0);
  EXPECT_EQ(std::string(call->args[1].key), "threads");
  EXPECT_EQ(call->args[1].value, 1.0);
  std::size_t work_spans = 0;
  for (const auto& s : spans) {
    const std::string name = s.name;
    EXPECT_NE(name, "exec.chunk");
    if (name != "test.work") continue;
    ++work_spans;
    EXPECT_EQ(s.tid, call->tid);
    EXPECT_EQ(s.depth, call->depth + 1);
    EXPECT_GE(s.start_ns, call->start_ns);
    EXPECT_LE(s.start_ns + s.dur_ns, call->start_ns + call->dur_ns);
  }
  EXPECT_EQ(work_spans, 5u);
  EXPECT_EQ(spans.size(), 6u);
}

// --- Chrome export golden checks ----------------------------------------

// The export is newline-structured: "[", one event object per line
// (comma-terminated except the last), "]".  Walk it with string checks —
// by design the repo has no nested-JSON reader, and pinning the textual
// shape is exactly what a golden test is for.
std::vector<std::string> event_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "[" || line == "]") continue;
    lines.push_back(line);
  }
  return lines;
}

double field_number(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\": ");
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return -1.0;
  return std::stod(line.substr(pos + key.size() + 4));
}

TEST_F(TracingTest, ChromeTraceExportIsBalancedSortedAndComplete) {
  tracing_enable();
  tracing_set_thread_name("main-test");
  {
    TraceSpan outer("test.outer", "k", 2.5);
    { TraceSpan inner("test.inner"); }
  }
  exec::ParallelForOptions opts;
  opts.threads = 2;
  exec::parallel_for(
      8, [](std::size_t) { TraceSpan span("test.work"); }, opts);
  tracing_drain();

  const auto path = std::filesystem::temp_directory_path() /
                    "bcn_tracing_test" / "trace.json";
  std::filesystem::remove_all(path.parent_path());
  ASSERT_TRUE(write_chrome_trace(path, tracing_spans()));

  const auto lines = event_lines(path);
  ASSERT_FALSE(lines.empty());

  std::size_t x_events = 0, m_events = 0;
  std::map<double, double> last_ts;  // tid -> latest ts seen
  bool saw_main_name = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    // Every event line is one complete object; comma-separated except the
    // final one (valid JSON array overall).
    EXPECT_EQ(line.front(), '{');
    if (i + 1 < lines.size()) {
      EXPECT_EQ(line.substr(line.size() - 2), "},");
    } else {
      EXPECT_EQ(line.back(), '}');
    }
    if (line.find("\"ph\": \"M\"") != std::string::npos) {
      ++m_events;
      EXPECT_NE(line.find("\"thread_name\""), std::string::npos);
      if (line.find("main-test") != std::string::npos) saw_main_name = true;
      continue;
    }
    EXPECT_NE(line.find("\"ph\": \"X\""), std::string::npos)
        << "unknown phase: " << line;
    ++x_events;
    // Complete events: non-negative ts and dur, a name, a tid.
    const double tid = field_number(line, "tid");
    const double ts = field_number(line, "ts");
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(field_number(line, "dur"), 0.0);
    // Named either by the test or by the instrumented exec layer
    // (parallel_for emits exec.parallel_for/exec.chunk spans itself).
    EXPECT_TRUE(line.find("\"name\": \"test.") != std::string::npos ||
                line.find("\"name\": \"exec.") != std::string::npos)
        << line;
    // Monotonic start times within each thread lane.
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
  }
  // 2 nested + 8 work spans + the exec.parallel_for/exec.chunk spans.
  EXPECT_GE(x_events, 10u);
  EXPECT_GE(m_events, 1u);
  EXPECT_TRUE(saw_main_name);
  // The outer span's args survived the export.
  bool saw_args = false;
  for (const auto& line : lines) {
    if (line.find("\"name\": \"test.outer\"") != std::string::npos &&
        line.find("\"args\": {\"k\": 2.5}") != std::string::npos) {
      saw_args = true;
    }
  }
  EXPECT_TRUE(saw_args);
  std::filesystem::remove_all(path.parent_path());
}

// parallel_for starts fresh workers on every call, and each worker that
// records a span registers a buffer of 1 024 spans.  Draining releases
// the buffers of workers that have exited, so 200 traced two-worker
// calls, each drained and cleared, leave the heap where one call left
// it; keeping the buffers grew it by about 27 MB.  Under ASan or TSan
// mallinfo2 sees none of the sanitizer's heap, so there it reads flat
// either way.
TEST_F(TracingTest, DrainReleasesExitedWorkersBuffers) {
  tracing_enable();
  const auto traced_call = [] {
    exec::parallel_for(
        16, [](std::size_t) { TraceSpan span("test.work"); },
        {.threads = 2});
    tracing_drain();
    tracing_clear();
  };
  const auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  traced_call();
  const std::size_t before = in_use();
  for (int i = 0; i < 200; ++i) traced_call();
  EXPECT_LT(in_use(), before + (1u << 20));
}

TEST_F(TracingTest, DrainIsIncrementalAndClearResets) {
  tracing_enable();
  { TraceSpan span("test.one"); }
  EXPECT_EQ(tracing_drain(), 1u);
  { TraceSpan span("test.two"); }
  EXPECT_EQ(tracing_drain(), 1u);  // only the new span moves
  EXPECT_EQ(tracing_spans().size(), 2u);
  tracing_clear();
  EXPECT_TRUE(tracing_spans().empty());
  EXPECT_EQ(tracing_drain(), 0u);
}

TEST_F(TracingTest, ParallelForWorkersAreNamedByWorkerIndex) {
  // A Chrome trace labels each worker lane "pool-worker-<i>", where i is
  // the worker arg of the exec.chunk spans recorded on that thread.
  tracing_enable();
  tracing_set_thread_name("main-test");
  exec::parallel_for(
      48,
      [](std::size_t) {
        TraceSpan span("test.work");
        spin_for(std::chrono::microseconds(20));
      },
      {.threads = 3});
  tracing_drain();

  const auto path = std::filesystem::temp_directory_path() /
                    "bcn_tracing_names_test" / "trace.json";
  std::filesystem::remove_all(path.parent_path());
  ASSERT_TRUE(write_chrome_trace(path, tracing_spans()));
  std::map<std::uint32_t, std::string> names;
  const std::string name_key = "\"args\": {\"name\": \"";
  for (const auto& line : event_lines(path)) {
    if (line.find("\"ph\": \"M\"") == std::string::npos) continue;
    const auto pos = line.find(name_key);
    ASSERT_NE(pos, std::string::npos) << line;
    const auto begin = pos + name_key.size();
    names[static_cast<std::uint32_t>(field_number(line, "tid"))] =
        line.substr(begin, line.find('"', begin) - begin);
  }
  std::filesystem::remove_all(path.parent_path());

  std::size_t chunk_spans = 0;
  for (const auto& s : tracing_spans()) {
    if (std::string(s.name) != "exec.chunk") continue;
    ++chunk_spans;
    ASSERT_EQ(s.n_args, 3u);
    ASSERT_EQ(std::string(s.args[2].key), "worker");
    const int worker = static_cast<int>(s.args[2].value);
    ASSERT_TRUE(names.count(s.tid)) << "unnamed worker tid " << s.tid;
    EXPECT_EQ(names[s.tid], "pool-worker-" + std::to_string(worker));
  }
  EXPECT_GE(chunk_spans, 1u);
}

}  // namespace
}  // namespace bcn::obs
