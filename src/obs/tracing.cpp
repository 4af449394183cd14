#include "obs/tracing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/args.h"
#include "common/format.h"
#include "common/json.h"
#include "common/log.h"

namespace bcn::obs {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};

// One per recording thread, shared between the thread (writer) and the
// global registry (drainer).  Lock-free by contract: only the owning
// thread appends, and drains happen at quiescent points — after the
// recording workers are joined, and the join orders the worker's writes
// before the drainer's reads.  The record path is therefore a plain
// push_back.
struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::string name;
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::vector<SpanRecord> drained;
  std::map<std::uint32_t, std::string> thread_names;
  std::uint32_t next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during exit
  return *r;
}

Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch())
          .count());
}

struct ThreadState {
  std::shared_ptr<ThreadBuffer> owned;  // keeps the buffer alive
  ThreadBuffer* buffer = nullptr;       // hot-path raw pointer
  TraceSpan* current = nullptr;
  std::uint16_t depth = 0;
  std::string pending_name;  // set before the buffer exists
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

ThreadBuffer& thread_buffer() {
  ThreadState& state = thread_state();
  if (!state.buffer) {
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->spans.reserve(1024);
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffer->tid = reg.next_tid++;
    buffer->name = state.pending_name;
    reg.buffers.push_back(buffer);
    state.buffer = buffer.get();
    state.owned = std::move(buffer);
  }
  return *state.buffer;
}

}  // namespace

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void tracing_enable() {
  epoch();  // pin the time origin before the first span
  g_enabled.store(true, std::memory_order_relaxed);
}

void tracing_disable() { g_enabled.store(false, std::memory_order_relaxed); }

void tracing_set_thread_name(std::string name) {
  ThreadState& state = thread_state();
  if (state.buffer) {
    state.buffer->name = std::move(name);
  } else {
    state.pending_name = std::move(name);
  }
}

std::size_t tracing_drain() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t moved = 0;
  for (const auto& buffer : reg.buffers) {
    if (!buffer->name.empty()) reg.thread_names[buffer->tid] = buffer->name;
    moved += buffer->spans.size();
    reg.drained.insert(reg.drained.end(), buffer->spans.begin(),
                       buffer->spans.end());
    buffer->spans.clear();
  }
  // A thread's exit drops its ThreadState's reference, so a buffer the
  // registry alone holds has no writer left: release it, or every
  // parallel_for would leave its workers' buffers behind.
  std::erase_if(reg.buffers,
                [](const auto& buffer) { return buffer.use_count() == 1; });
  return moved;
}

const std::vector<SpanRecord>& tracing_spans() { return registry().drained; }

void tracing_clear() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.drained.clear();
  reg.thread_names.clear();
  for (const auto& buffer : reg.buffers) buffer->spans.clear();
}

void TraceSpan::begin(const char* name) {
  ThreadState& state = thread_state();
  thread_buffer();  // register this thread before the clock read
  active_ = true;
  name_ = name;
  parent_ = state.current;
  depth_ = state.depth;
  state.current = this;
  ++state.depth;
  start_ns_ = now_ns();
}

void TraceSpan::end() {
  const std::uint64_t end_ns = now_ns();
  ThreadState& state = thread_state();
  const std::uint64_t dur = end_ns > start_ns_ ? end_ns - start_ns_ : 0;

  // begin() registered the buffer, so state.buffer is live here.
  ThreadBuffer& buffer = *state.buffer;
  SpanRecord& record = buffer.spans.emplace_back();
  record.name = name_;
  record.start_ns = start_ns_;
  record.dur_ns = dur;
  record.self_ns = dur > child_ns_ ? dur - child_ns_ : 0;
  record.tid = buffer.tid;
  record.depth = depth_;
  record.n_args = n_args_;
  record.args = args_;

  if (parent_) parent_->child_ns_ += dur;
  state.current = parent_;
  if (state.depth > 0) --state.depth;
  active_ = false;
}

bool write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<SpanRecord>& spans) {
  std::vector<SpanRecord> sorted = spans;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.start_ns < b.start_ns;
                   });

  std::map<std::uint32_t, std::string> names;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    names = reg.thread_names;
  }

  if (!path.parent_path().empty()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (!f) return false;

  std::fputs("[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const auto& [tid, name] : names) {
    sep();
    std::fprintf(f,
                 "{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": %s}}",
                 tid, JsonWriter::quote(name).c_str());
  }
  for (const auto& s : sorted) {
    sep();
    std::fprintf(f,
                 "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"name\": %s",
                 s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 JsonWriter::quote(s.name).c_str());
    if (s.n_args > 0) {
      std::fputs(", \"args\": {", f);
      for (std::uint8_t i = 0; i < s.n_args; ++i) {
        std::fprintf(f, "%s%s: %s", i > 0 ? ", " : "",
                     JsonWriter::quote(s.args[i].key).c_str(),
                     JsonWriter::format(s.args[i].value).c_str());
      }
      std::fputs("}", f);
    }
    std::fputs("}", f);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

std::vector<ProfileEntry> build_self_profile(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, ProfileEntry> by_name;
  for (const auto& s : spans) {
    ProfileEntry& e = by_name[s.name];
    if (e.name.empty()) e.name = s.name;
    ++e.calls;
    e.total_seconds += static_cast<double>(s.dur_ns) / 1e9;
    e.self_seconds += static_cast<double>(s.self_ns) / 1e9;
  }
  std::vector<ProfileEntry> out;
  out.reserve(by_name.size());
  for (auto& [name, entry] : by_name) out.push_back(std::move(entry));
  return out;  // map iteration order = name order
}

void profile_to_metrics(const std::vector<ProfileEntry>& profile,
                        MetricsRegistry& registry,
                        const std::string& prefix) {
  for (const auto& e : profile) {
    registry.gauge(prefix + e.name + ".calls")
        .set(static_cast<double>(e.calls));
    registry.gauge(prefix + e.name + ".total_seconds").set(e.total_seconds);
    registry.gauge(prefix + e.name + ".self_seconds").set(e.self_seconds);
  }
}

std::optional<std::filesystem::path> maybe_enable_tracing(
    const ArgParser& args) {
  const auto dest = args.lookup("trace", "BCN_TRACE");
  if (!dest || dest->text.empty()) return std::nullopt;
  tracing_set_thread_name("main");
  tracing_enable();
  return std::filesystem::path(dest->text);
}

std::size_t finalize_tracing(const std::filesystem::path& path) {
  tracing_drain();
  const auto& spans = tracing_spans();
  if (!write_chrome_trace(path, spans)) {
    BCN_LOG_ERROR("failed to write trace file %s", path.string().c_str());
    return 0;
  }
  std::printf("  [trace] %zu spans -> %s\n", spans.size(),
              path.string().c_str());
  return spans.size();
}

}  // namespace bcn::obs
