// Tiny leveled logger.  Lines below Warn are dropped, so library code is
// silent in tests and benches unless something is wrong.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/format.h"

namespace bcn {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3 };

// Small process-local id for the calling thread (main thread observes 0
// when it logs first).  Stable for the thread's lifetime; used to make
// interleaved worker logs attributable and to key trace spans.
unsigned thread_ordinal();

// The formatted line log_line writes:
//   [LEVEL +12.345678 t03] message
// where +s.ssssss is monotonic seconds since process start and tNN the
// caller's thread_ordinal.  Exposed so tests can pin the format.
std::string format_log_line(LogLevel level, std::string_view message);

// Writes one line to stderr.
void log_line(LogLevel level, std::string_view message);

// Formats and writes one line when `level` is Warn or above.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void log(LogLevel level, const char* fmt, ...);

// First-N gate for repetitive diagnostics: a recurring condition (clamped
// deadline, injected drop, monitor violation) logs its first few
// occurrences to identify itself and then goes quiet, while a counter
// keeps the full tally for metrics.  allow() counts every call and
// returns true for the first `first_n` of them.
class LogRateLimit {
 public:
  explicit LogRateLimit(std::uint64_t first_n = 5) : limit_(first_n) {}

  bool allow() { return ++count_ <= limit_; }
  // Occurrences observed so far (allowed or suppressed).
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t limit_;
  std::uint64_t count_ = 0;
};

#define BCN_LOG_DEBUG(...) ::bcn::log(::bcn::LogLevel::Debug, __VA_ARGS__)
#define BCN_LOG_INFO(...) ::bcn::log(::bcn::LogLevel::Info, __VA_ARGS__)
#define BCN_LOG_WARN(...) ::bcn::log(::bcn::LogLevel::Warn, __VA_ARGS__)
#define BCN_LOG_ERROR(...) ::bcn::log(::bcn::LogLevel::Error, __VA_ARGS__)

}  // namespace bcn
