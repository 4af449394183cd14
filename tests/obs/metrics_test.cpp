#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "../support/metrics_export.h"
#include "common/json.h"
#include "exec/parallel_for.h"

namespace bcn::obs {
namespace {

TEST(MetricsTest, CounterCreatesOnFirstUseAndAccumulates) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.find_counter("frames"), nullptr);
  reg.counter("frames").inc();
  reg.counter("frames").inc(41);
  ASSERT_NE(reg.find_counter("frames"), nullptr);
  EXPECT_EQ(reg.find_counter("frames")->value(), 42u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsTest, CounterReferenceIsStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hot");
  // Creating many other entries must not invalidate the held reference.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  c.inc(7);
  EXPECT_EQ(reg.find_counter("hot")->value(), 7u);
}

TEST(MetricsTest, GaugeHoldsLastValue) {
  MetricsRegistry reg;
  reg.gauge("queue").set(1.5);
  reg.gauge("queue").set(-3.25);
  EXPECT_EQ(testing::exported(reg).number("queue"), -3.25);
}

TEST(MetricsTest, HistogramBucketsBySortedBounds) {
  Histogram h({10.0, 20.0, 30.0});
  h.record(5.0);    // -> le_10
  h.record(10.0);   // boundary counts in le_10 (lower_bound semantics)
  h.record(15.0);   // -> le_20
  h.record(35.0);   // -> overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 65.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(MetricsTest, HistogramMergeRequiresMatchingBounds) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  Histogram other({1.0, 3.0});
  a.record(0.5);
  b.record(1.5);
  b.record(5.0);
  other.record(0.5);

  EXPECT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
  EXPECT_EQ(a.bucket_counts()[0], 1u);
  EXPECT_EQ(a.bucket_counts()[1], 1u);
  EXPECT_EQ(a.bucket_counts()[2], 1u);

  // Incompatible layout: refused (false) and the target is untouched.
  EXPECT_FALSE(a.merge(other));
  EXPECT_EQ(a.count(), 3u);
}

// Pool workers bump shared counters from instrumented parallel stages;
// the relaxed-atomic implementation must be race-free (this test runs
// under ThreadSanitizer via scripts/check.sh) and lose no increments.
TEST(MetricsTest, CounterAndGaugeAreSafeUnderParallelFor) {
  MetricsRegistry reg;
  Counter& hits = reg.counter("parallel.hits");
  Gauge& last = reg.gauge("parallel.last");
  exec::ParallelForOptions opts;
  opts.threads = 4;
  constexpr std::size_t kN = 10'000;
  exec::parallel_for(
      kN,
      [&](std::size_t i) {
        hits.inc();
        last.set(static_cast<double>(i));
      },
      opts);
  EXPECT_EQ(hits.value(), kN);
  EXPECT_GE(last.value(), 0.0);
  EXPECT_LT(last.value(), static_cast<double>(kN));
}

TEST(MetricsTest, RegistryHistogramKeepsFirstBounds) {
  MetricsRegistry reg;
  reg.histogram("sigma", {1.0, 2.0}).record(0.5);
  // Second call with different bounds returns the existing histogram.
  Histogram& again = reg.histogram("sigma", {99.0});
  EXPECT_EQ(again.upper_bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(again.count(), 1u);
}

// The registry snapshot must not depend on creation or update order —
// RUN_*.json artifacts are diffed across runs.
TEST(MetricsTest, WriteJsonIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry a;
  a.counter("z.count").inc(3);
  a.counter("a.count").inc(1);
  a.gauge("m.level").set(2.5);
  a.histogram("h.vals", {1.0, 10.0}).record(5.0);

  MetricsRegistry b;
  b.histogram("h.vals", {1.0, 10.0}).record(5.0);
  b.gauge("m.level").set(2.5);
  b.counter("a.count").inc(1);
  b.counter("z.count").inc(3);

  JsonWriter ja, jb;
  a.write_json(ja, "metrics.");
  b.write_json(jb, "metrics.");
  EXPECT_EQ(ja.to_string(), jb.to_string());
}

TEST(MetricsTest, WriteJsonEmitsCumulativeHistogramBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 2.0});
  h.record(0.5);
  h.record(1.5);
  h.record(9.0);
  JsonWriter json;
  reg.write_json(json, "m.");
  const std::string s = json.to_string();
  EXPECT_NE(s.find("\"m.lat.count\": 3"), std::string::npos) << s;
  EXPECT_NE(s.find("\"m.lat.le_1\": 1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"m.lat.le_2\": 2"), std::string::npos) << s;
  EXPECT_NE(s.find("\"m.lat.le_inf\": 3"), std::string::npos) << s;
}

}  // namespace
}  // namespace bcn::obs
