#include "obs/bench_diff.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"

namespace bcn::obs {
namespace {

class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs each case as its own process,
    // in parallel under -j, so a shared path would let cases delete each
    // other's files.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("bcn_bench_diff_test.") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path write(const std::string& name,
                              const JsonWriter& json) {
    const auto path = dir_ / name;
    EXPECT_TRUE(json.write_file(path));
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(BenchDiffTest, IdenticalFilesHaveZeroDeltaAndNoRegressions) {
  JsonWriter json;
  json.add("benchmark", "x");
  json.add("wall_seconds", 1.25);
  json.add("cells", 81);
  const auto a = write("a.json", json);
  const auto b = write("b.json", json);

  const auto result = bench_diff(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.compared, 2u);  // the string key is not numeric
  for (const auto& d : result.deltas) {
    EXPECT_EQ(d.rel_delta, 0.0);
    EXPECT_FALSE(d.breach);
  }
}

TEST_F(BenchDiffTest, BreachAboveThresholdOnly) {
  JsonWriter a_json, b_json;
  a_json.add("fast", 1.0);
  a_json.add("slow", 1.0);
  b_json.add("fast", 1.05);  // +5% — inside a 10% budget
  b_json.add("slow", 1.25);  // +25% — regression
  const auto a = write("a.json", a_json);
  const auto b = write("b.json", b_json);

  BenchDiffOptions opts;
  opts.threshold = 0.10;
  const auto result = bench_diff(a, b, opts);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.compared, 2u);
  EXPECT_EQ(result.regressions, 1u);
  ASSERT_EQ(result.deltas.size(), 2u);
  // Key-sorted: "fast" then "slow".
  EXPECT_EQ(result.deltas[0].key, "fast");
  EXPECT_FALSE(result.deltas[0].breach);
  EXPECT_EQ(result.deltas[1].key, "slow");
  EXPECT_TRUE(result.deltas[1].breach);
  EXPECT_NEAR(result.deltas[1].rel_delta, 0.25, 1e-12);
}

TEST_F(BenchDiffTest, ZeroThresholdRequiresExactEquality) {
  JsonWriter a_json, b_json;
  a_json.add("v", 2.0);
  b_json.add("v", 2.0000001);
  const auto a = write("a.json", a_json);
  const auto b = write("b.json", b_json);

  BenchDiffOptions opts;
  opts.threshold = 0.0;
  const auto result = bench_diff(a, b, opts);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.regressions, 1u);
}

TEST_F(BenchDiffTest, ImprovementsAlsoCountAsDeltas) {
  // The gate is |delta|: a metric that got 30% faster still trips a 10%
  // threshold, because an unexplained move in either direction means the
  // baseline is stale.
  JsonWriter a_json, b_json;
  a_json.add("wall", 1.0);
  b_json.add("wall", 0.7);
  const auto result =
      bench_diff(write("a.json", a_json), write("b.json", b_json));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.regressions, 1u);
}

TEST_F(BenchDiffTest, MissingKeysReportedButOnlyBreachWhenRequired) {
  JsonWriter a_json, b_json;
  a_json.add("shared", 1.0);
  a_json.add("gone", 5.0);
  b_json.add("shared", 1.0);
  b_json.add("added", 7.0);
  const auto a = write("a.json", a_json);
  const auto b = write("b.json", b_json);

  auto result = bench_diff(a, b);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.compared, 1u);
  ASSERT_EQ(result.only_in_a.size(), 1u);
  EXPECT_EQ(result.only_in_a[0], "gone");
  ASSERT_EQ(result.only_in_b.size(), 1u);
  EXPECT_EQ(result.only_in_b[0], "added");
  EXPECT_EQ(result.regressions, 0u);

  BenchDiffOptions strict;
  strict.require_same_keys = true;
  result = bench_diff(a, b, strict);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.regressions, 2u);  // one per mismatched key
}

TEST_F(BenchDiffTest, MatchFilterRestrictsComparedKeys) {
  JsonWriter a_json, b_json;
  a_json.add("metrics.profile.ode.self_seconds", 1.0);
  a_json.add("wall_seconds", 1.0);
  b_json.add("metrics.profile.ode.self_seconds", 1.0);
  b_json.add("wall_seconds", 99.0);  // would breach without the filter
  BenchDiffOptions opts;
  opts.match = "profile";
  const auto result =
      bench_diff(write("a.json", a_json), write("b.json", b_json), opts);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.compared, 1u);
  EXPECT_EQ(result.regressions, 0u);
}

TEST_F(BenchDiffTest, NearZeroBaselineUsesAbsoluteFloor) {
  JsonWriter a_json, b_json;
  a_json.add("tiny", 0.0);
  b_json.add("tiny", 1e-15);
  BenchDiffOptions opts;
  opts.threshold = 0.10;
  opts.abs_floor = 1e-9;  // |b-a|/1e-9 = 1e-6 — noise, not a breach
  const auto result =
      bench_diff(write("a.json", a_json), write("b.json", b_json), opts);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.regressions, 0u);
}

TEST_F(BenchDiffTest, MissingFileReportsErrorNotCrash) {
  JsonWriter json;
  json.add("v", 1.0);
  const auto result =
      bench_diff(dir_ / "nope.json", write("b.json", json));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST_F(BenchDiffTest, FormatMarksBreachesAndSummarizes) {
  JsonWriter a_json, b_json;
  a_json.add("ok_metric", 1.0);
  a_json.add("bad_metric", 1.0);
  b_json.add("ok_metric", 1.01);
  b_json.add("bad_metric", 2.0);
  BenchDiffOptions opts;
  const auto result =
      bench_diff(write("a.json", a_json), write("b.json", b_json), opts);
  const std::string report = format_bench_diff(result, opts);
  EXPECT_NE(report.find("REGRESSION"), std::string::npos);
  EXPECT_NE(report.find("bad_metric"), std::string::npos);
  EXPECT_NE(report.find("1 regression"), std::string::npos);
}

}  // namespace
}  // namespace bcn::obs
