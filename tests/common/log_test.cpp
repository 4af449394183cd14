#include "common/log.h"

#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace bcn {
namespace {

TEST(LogTest, FormatLogLinePinsTheShape) {
  const std::string line = format_log_line(LogLevel::Warn, "queue overflow");
  // [LEVEL +seconds.micros tNN] message
  const std::regex shape(
      R"(\[WARN \+\d+\.\d{6} t\d{2,}\] queue overflow)");
  EXPECT_TRUE(std::regex_match(line, shape)) << line;
}

TEST(LogTest, EveryLevelHasAName) {
  EXPECT_NE(format_log_line(LogLevel::Debug, "m").find("[DEBUG "),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::Info, "m").find("[INFO "),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::Warn, "m").find("[WARN "),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::Error, "m").find("[ERROR "),
            std::string::npos);
}

TEST(LogTest, LevelGatesOutput) {
  // The threshold is Warn: Debug and Info lines are dropped, Warn and
  // Error each write one formatted line.
  ::testing::internal::CaptureStderr();
  BCN_LOG_DEBUG("hidden %d", 1);
  BCN_LOG_INFO("hidden %d", 2);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  ::testing::internal::CaptureStderr();
  BCN_LOG_WARN("visible %d", 3);
  BCN_LOG_ERROR("visible %d", 4);
  const std::string out = ::testing::internal::GetCapturedStderr();
  const std::regex shape(
      R"(\[WARN \+\d+\.\d{6} t\d{2,}\] visible 3\n)"
      R"(\[ERROR \+\d+\.\d{6} t\d{2,}\] visible 4\n)");
  EXPECT_TRUE(std::regex_match(out, shape)) << out;
}

TEST(LogTest, UptimeIsMonotonicAcrossCalls) {
  auto seconds_of = [](const std::string& line) {
    const auto plus = line.find('+');
    return std::stod(line.substr(plus + 1));
  };
  const double t0 = seconds_of(format_log_line(LogLevel::Info, "a"));
  const double t1 = seconds_of(format_log_line(LogLevel::Info, "b"));
  EXPECT_GE(t1, t0);
  EXPECT_GE(t0, 0.0);
}

TEST(LogTest, ThreadOrdinalIsStablePerThreadAndDistinctAcrossThreads) {
  const unsigned mine = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), mine);  // stable on re-query

  std::vector<unsigned> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&seen, i] { seen[i] = thread_ordinal(); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_NE(seen[i], mine);
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]);
    }
  }
}

}  // namespace
}  // namespace bcn
