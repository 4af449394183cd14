#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace bcn {
namespace {

// Monotonic seconds since the first log-clock use (process start for any
// practical purpose: the epoch is pinned on the first log call).
double uptime_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
  }
  return "?";
}

}  // namespace

unsigned thread_ordinal() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::string format_log_line(LogLevel level, std::string_view message) {
  return strf("[%s +%.6f t%02u] %.*s", level_name(level), uptime_seconds(),
              thread_ordinal(), static_cast<int>(message.size()),
              message.data());
}

void log_line(LogLevel level, std::string_view message) {
  const std::string line = format_log_line(level, message);
  std::fprintf(stderr, "%s\n", line.c_str());
}

void log(LogLevel level, const char* fmt, ...) {
  if (level < LogLevel::Warn) return;
  std::va_list args;
  va_start(args, fmt);
  log_line(level, vstrf(fmt, args));
  va_end(args);
}

}  // namespace bcn
