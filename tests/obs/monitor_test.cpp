// Runtime invariant monitors: spec grammar round-trip, the online
// predicates (queue/rate bounds, conservation, finiteness, watchdog,
// fluid cross-check) with the Record action, the snapshot ring, and the
// monitor.* metric names.  The sim-layer wiring (per-frame hooks, the
// pinned determinism digest under armed monitors, bundle determinism)
// lives in tests/sim/monitor_wiring_test.cpp.
#include "obs/monitor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "../support/metrics_export.h"
#include "obs/metrics.h"

namespace bcn::obs {
namespace {

MonitorSample sample(double t, double queue_bits, double rate) {
  MonitorSample s;
  s.t = t;
  s.queue_bits = queue_bits;
  s.aggregate_rate = rate;
  return s;
}

// --- Spec grammar -------------------------------------------------------

TEST(MonitorSpecTest, ParsesSingleMonitorsAndAll) {
  const auto queue = parse_monitor_spec("queue_bounds");
  ASSERT_TRUE(queue.has_value());
  EXPECT_TRUE(queue->queue_bounds);
  EXPECT_FALSE(queue->watchdog);
  EXPECT_TRUE(queue->any());

  const auto all = parse_monitor_spec("all");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->queue_bounds);
  EXPECT_TRUE(all->rate_bounds);
  EXPECT_TRUE(all->conservation);
  EXPECT_TRUE(all->finite);
  EXPECT_TRUE(all->watchdog);
  EXPECT_TRUE(all->crosscheck);

  const auto none = parse_monitor_spec("none");
  ASSERT_TRUE(none.has_value());
  EXPECT_FALSE(none->any());
}

TEST(MonitorSpecTest, OptionsComposeWithMonitors) {
  const auto spec =
      parse_monitor_spec("watchdog,window=2ms,ring=1024,snapshots=32");
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->watchdog);
  EXPECT_FALSE(spec->queue_bounds);
  EXPECT_DOUBLE_EQ(spec->watchdog_window, 2e-3);
  EXPECT_EQ(spec->ring, 1024u);
  EXPECT_EQ(spec->snapshots, 32u);
  // Duration suffixes beyond ms.
  const auto us = parse_monitor_spec("all,window=200us");
  ASSERT_TRUE(us.has_value());
  EXPECT_DOUBLE_EQ(us->watchdog_window, 2e-4);
}

TEST(MonitorSpecTest, MalformedSpecsFillError) {
  std::string error;
  EXPECT_FALSE(parse_monitor_spec("", &error).has_value());
  EXPECT_EQ(error, "empty spec");
  EXPECT_FALSE(parse_monitor_spec("bogus", &error).has_value());
  EXPECT_NE(error.find("unknown monitor 'bogus'"), std::string::npos);
  EXPECT_FALSE(parse_monitor_spec("all,,watchdog", &error).has_value());
  EXPECT_EQ(error, "empty entry");
  EXPECT_FALSE(parse_monitor_spec("window=5", &error).has_value());  // no unit
  EXPECT_FALSE(parse_monitor_spec("window=-3ms", &error).has_value());
  EXPECT_FALSE(parse_monitor_spec("snapshots=0", &error).has_value());
  EXPECT_FALSE(parse_monitor_spec("ring=abc", &error).has_value());
  EXPECT_FALSE(parse_monitor_spec("window=nanms", &error).has_value());
  EXPECT_FALSE(parse_monitor_spec("window=infms", &error).has_value());
  EXPECT_FALSE(parse_monitor_spec("ring=-1", &error).has_value());
  EXPECT_NE(error.find("ring: '-1' is not a count"), std::string::npos);
  EXPECT_FALSE(parse_monitor_spec("snapshots=-1", &error).has_value());
  EXPECT_FALSE(parse_monitor_spec("ring=1000001", &error).has_value());
  EXPECT_NE(error.find("exceeds the maximum 1000000"), std::string::npos);
  EXPECT_FALSE(
      parse_monitor_spec("all,ring=100000000000", &error).has_value());
  EXPECT_TRUE(parse_monitor_spec("all,ring=1000000,snapshots=1000000")
                  .has_value());
  EXPECT_FALSE(parse_monitor_spec("color=red", &error).has_value());
  EXPECT_NE(error.find("unknown option 'color'"), std::string::npos);
}

TEST(MonitorSpecTest, SummaryRoundTripsThroughTheParser) {
  for (const char* text :
       {"all", "none", "queue_bounds,watchdog", "all,ring=128",
        "conservation,crosscheck,snapshots=16"}) {
    const auto spec = parse_monitor_spec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    const std::string summary = monitor_spec_summary(*spec);
    const auto reparsed = parse_monitor_spec(summary);
    ASSERT_TRUE(reparsed.has_value()) << summary;
    EXPECT_EQ(monitor_spec_summary(*reparsed), summary);
  }
  EXPECT_EQ(monitor_spec_summary(MonitorSpec{}), "none");
  EXPECT_EQ(monitor_spec_summary(MonitorSpec::all()), "all");
}

TEST(MonitorSpecTest, UsageNamesEveryMonitorAndItsExamplesParse) {
  // Tools print the usage for --monitors: every monitor and option it
  // names must exist, and every example it shows must parse.
  const std::string usage = monitor_spec_usage();
  for (const char* name : {"all", "none", "queue_bounds", "rate_bounds",
                           "conservation", "finite", "watchdog",
                           "crosscheck"}) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
    EXPECT_TRUE(parse_monitor_spec(name).has_value()) << name;
  }
  for (const char* option : {"window=2ms", "ring=0", "snapshots=1"}) {
    const std::string key(option, std::strchr(option, '=') + 1);
    EXPECT_NE(usage.find(key), std::string::npos) << key;
    EXPECT_TRUE(parse_monitor_spec(std::string("all,") + option).has_value())
        << option;
  }
  const std::string tag = "examples: ";
  const auto at = usage.find(tag);
  ASSERT_NE(at, std::string::npos);
  const std::string examples = usage.substr(at + tag.size());
  std::size_t count = 0;
  for (std::size_t begin = 0; begin < examples.size(); ++count) {
    const auto end = std::min(examples.find(" | ", begin), examples.size());
    const std::string example = examples.substr(begin, end - begin);
    std::string error;
    EXPECT_TRUE(parse_monitor_spec(example, &error).has_value())
        << example << ": " << error;
    begin = end + 3;
  }
  EXPECT_EQ(count, 3u);
}

// --- RunMonitor predicates (Record action: collect, never exit) ---------

MonitorConfig record_config(const char* spec_text) {
  MonitorConfig cfg;
  cfg.spec = *parse_monitor_spec(spec_text);
  cfg.action = ViolationAction::Record;
  return cfg;
}

TEST(RunMonitorTest, UnarmedMonitorChecksNothing) {
  RunMonitor monitor;
  monitor.configure(record_config("none"));
  EXPECT_FALSE(monitor.armed());
  monitor.check_queue(0.0, 0, -1.0);        // out of bounds, but unarmed
  monitor.on_sample(sample(1.0, -1.0, -1.0));
  EXPECT_EQ(monitor.checks(), 0u);
  EXPECT_EQ(monitor.violation_count(), 0u);
  EXPECT_TRUE(monitor.snapshots().empty());
}

TEST(RunMonitorTest, QueueBoundsTripOnOverflowAndNegative) {
  RunMonitor monitor;
  monitor.configure(record_config("queue_bounds"));
  monitor.set_queue_bound(100.0);
  monitor.check_queue(0.1, 3, 50.0);
  EXPECT_EQ(monitor.violation_count(), 0u);
  monitor.check_queue(0.2, 3, 100.0 + 2e-6);  // above B + slack
  monitor.check_queue(0.3, 3, -1.0);
  EXPECT_EQ(monitor.violation_count(), 2u);
  ASSERT_EQ(monitor.violations().size(), 2u);
  EXPECT_EQ(monitor.violations()[0].invariant, "queue_bounds");
  EXPECT_DOUBLE_EQ(monitor.violations()[0].value, 100.0 + 2e-6);
  EXPECT_DOUBLE_EQ(monitor.violations()[0].bound, 100.0);
  EXPECT_EQ(monitor.checks(), 3u);
}

TEST(RunMonitorTest, RateBoundsTripOnNegativeAndAboveAggregate) {
  RunMonitor monitor;
  monitor.configure(record_config("rate_bounds"));
  monitor.set_rate_bound(10e9);
  monitor.on_sample(sample(0.1, 0.0, 5e9));
  EXPECT_EQ(monitor.violation_count(), 0u);
  monitor.on_sample(sample(0.2, 0.0, -1.0));
  monitor.on_sample(sample(0.3, 0.0, 11e9));
  EXPECT_EQ(monitor.violation_count(), 2u);
  EXPECT_EQ(monitor.violations()[0].invariant, "rate_bounds");
}

TEST(RunMonitorTest, FiniteGuardCatchesNanAndInf) {
  RunMonitor monitor;
  monitor.configure(record_config("finite"));
  monitor.on_sample(sample(0.1, 1.0, 1.0));
  EXPECT_EQ(monitor.violation_count(), 0u);
  monitor.on_sample(sample(0.2, std::nan(""), 1.0));
  MonitorSample inf = sample(0.3, 1.0, 1.0);
  inf.bits_delivered = std::numeric_limits<double>::infinity();
  monitor.on_sample(inf);
  EXPECT_EQ(monitor.violation_count(), 2u);
  EXPECT_EQ(monitor.violations()[0].invariant, "finite");
}

TEST(RunMonitorTest, ConservationChecksInequalitiesAndMonotonicity) {
  RunMonitor monitor;
  monitor.configure(record_config("conservation"));
  MonitorSample ok = sample(0.1, 0.0, 0.0);
  ok.frames_sent = 10;
  ok.frames_enqueued = 9;
  ok.frames_delivered = 8;
  ok.frames_dropped = 1;
  ok.bits_delivered = 8000.0;
  monitor.on_sample(ok);
  EXPECT_EQ(monitor.violation_count(), 0u);

  // delivered > enqueued: a frame left the queue that never entered it.
  MonitorSample bad = ok;
  bad.t = 0.2;
  bad.frames_delivered = 12;
  bad.frames_sent = 13;
  monitor.on_sample(bad);
  EXPECT_EQ(monitor.violation_count(), 1u);
  EXPECT_EQ(monitor.violations()[0].invariant, "conservation");

  // Lifetime counter regression (monotonicity).
  MonitorSample regressed = ok;
  regressed.t = 0.3;
  regressed.frames_sent = 5;
  regressed.frames_enqueued = 5;
  regressed.frames_delivered = 4;
  regressed.frames_dropped = 0;
  regressed.bits_delivered = 4000.0;
  monitor.on_sample(regressed);
  EXPECT_EQ(monitor.violation_count(), 2u);
}

TEST(RunMonitorTest, WatchdogTripsAfterQuietWindowAndReArms) {
  MonitorConfig cfg = record_config("watchdog,window=1ms");
  RunMonitor monitor;
  monitor.configure(cfg);
  MonitorSample s = sample(0.0, 0.0, 0.0);
  s.frames_sent = 100;
  s.frames_delivered = 50;
  monitor.on_sample(s);
  s.t = 0.5e-3;
  monitor.on_sample(s);  // quiet, inside the window
  EXPECT_EQ(monitor.violation_count(), 0u);
  s.t = 1.5e-3;
  monitor.on_sample(s);  // quiet past the window: trip
  EXPECT_EQ(monitor.violation_count(), 1u);
  EXPECT_EQ(monitor.violations()[0].invariant, "watchdog");
  s.t = 2.5e-3;
  monitor.on_sample(s);  // still stalled: latched, no duplicate
  EXPECT_EQ(monitor.violation_count(), 1u);
  s.t = 3e-3;
  s.frames_delivered = 51;  // progress resumes, watchdog re-arms
  monitor.on_sample(s);
  s.t = 5e-3;
  monitor.on_sample(s);  // stalls again past the window
  EXPECT_EQ(monitor.violation_count(), 2u);
}

TEST(RunMonitorTest, WatchdogIgnoresIdleRunsWithNothingOutstanding) {
  RunMonitor monitor;
  monitor.configure(record_config("watchdog,window=1ms"));
  MonitorSample s = sample(0.0, 0.0, 0.0);
  s.frames_sent = 50;
  s.frames_delivered = 50;  // nothing in flight: no deadlock possible
  monitor.on_sample(s);
  s.t = 10e-3;
  monitor.on_sample(s);
  EXPECT_EQ(monitor.violation_count(), 0u);
}

TEST(RunMonitorTest, CrosscheckFiresOnlyAgainstACertifiedVerdict) {
  MonitorSample contradicting = sample(0.1, 0.0, 0.0);
  contradicting.pause_frames = 3;

  // No fluid hint: the crosscheck never arms.
  {
    RunMonitor monitor;
    monitor.configure(record_config("crosscheck"));
    monitor.on_sample(contradicting);
    EXPECT_EQ(monitor.violation_count(), 0u);
  }
  // Fluid says unstable: observed congestion is expected, not a bug.
  {
    MonitorConfig cfg = record_config("crosscheck");
    cfg.fluid_strongly_stable = false;
    RunMonitor monitor;
    monitor.configure(cfg);
    monitor.on_sample(contradicting);
    EXPECT_EQ(monitor.violation_count(), 0u);
  }
  // Fluid certified strong stability: PAUSE/drops/overflow contradict it,
  // and the latch fires exactly once for the whole run.
  {
    MonitorConfig cfg = record_config("crosscheck");
    cfg.fluid_strongly_stable = true;
    RunMonitor monitor;
    monitor.configure(cfg);
    monitor.set_queue_bound(100.0);
    monitor.on_sample(sample(0.05, 50.0, 0.0));  // clean sample: no trip
    EXPECT_EQ(monitor.violation_count(), 0u);
    monitor.on_sample(contradicting);
    monitor.on_sample(contradicting);
    EXPECT_EQ(monitor.violation_count(), 1u);
    EXPECT_EQ(monitor.violations()[0].invariant, "crosscheck");
  }
}

// --- Snapshot ring and metrics ------------------------------------------

TEST(RunMonitorTest, SnapshotRingKeepsNewestInChronologicalOrder) {
  RunMonitor monitor;
  monitor.configure(record_config("finite,snapshots=4"));
  for (int i = 0; i < 6; ++i) {
    monitor.on_sample(sample(static_cast<double>(i), 1.0, 1.0));
  }
  const auto snaps = monitor.snapshots();
  ASSERT_EQ(snaps.size(), 4u);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_DOUBLE_EQ(snaps[i].t, static_cast<double>(i + 2));
  }
}

TEST(RunMonitorTest, ExportsMonitorMetricsUnderPrefix) {
  RunMonitor monitor;
  monitor.configure(record_config("queue_bounds"));
  monitor.set_queue_bound(100.0);
  monitor.check_queue(0.1, 0, 50.0);
  monitor.check_queue(0.2, 0, 200.0);
  MetricsRegistry registry;
  monitor.export_metrics(registry);
  const auto* checks = registry.find_counter("monitor.checks");
  const auto* violations = registry.find_counter("monitor.violations");
  const auto* per_invariant =
      registry.find_counter("monitor.violations.queue_bounds");
  ASSERT_NE(checks, nullptr);
  ASSERT_NE(violations, nullptr);
  ASSERT_NE(per_invariant, nullptr);
  EXPECT_EQ(testing::exported(registry).number("monitor.armed"), 1.0);
  EXPECT_EQ(checks->value(), 2u);
  EXPECT_EQ(violations->value(), 1u);
  EXPECT_EQ(per_invariant->value(), 1u);
}

// --- Deterministic cross-shard merge ------------------------------------

TEST(RunMonitorTest, MergeFromSumsCountsAndOrdersViolationsByTime) {
  RunMonitor a;
  a.configure(record_config("queue_bounds"));
  a.set_queue_bound(100.0);
  a.check_queue(0.1, 0, 50.0);
  a.check_queue(0.4, 0, 300.0);  // violation at t=0.4

  RunMonitor b;
  b.configure(record_config("queue_bounds"));
  b.set_queue_bound(100.0);
  b.check_queue(0.2, 1, 200.0);  // violation at t=0.2
  b.check_queue(0.3, 1, 80.0);
  b.check_queue(0.5, 1, 250.0);  // violation at t=0.5

  a.merge_from(b);
  EXPECT_TRUE(a.armed());
  EXPECT_EQ(a.checks(), 5u);
  EXPECT_EQ(a.violation_count(), 3u);
  const auto& violations = a.violations();
  ASSERT_EQ(violations.size(), 3u);
  // Merged order is (t, invariant, message) -- shard-id independent.
  EXPECT_DOUBLE_EQ(violations[0].t, 0.2);
  EXPECT_DOUBLE_EQ(violations[1].t, 0.4);
  EXPECT_DOUBLE_EQ(violations[2].t, 0.5);
}

TEST(RunMonitorTest, MergeFromKeepsNewestSnapshotsChronological) {
  RunMonitor a;
  a.configure(record_config("finite,snapshots=4"));
  RunMonitor b;
  b.configure(record_config("finite,snapshots=4"));
  // Interleaved sample times across the two shards.
  for (const double t : {0.1, 0.3, 0.5}) a.on_sample(sample(t, 1.0, 1.0));
  for (const double t : {0.2, 0.4, 0.6}) b.on_sample(sample(t, 1.0, 1.0));
  a.merge_from(b);
  const auto snaps = a.snapshots();
  ASSERT_EQ(snaps.size(), 4u);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_DOUBLE_EQ(snaps[i].t, 0.3 + 0.1 * static_cast<double>(i));
  }
}

TEST(RunMonitorTest, MergeFromWithUnarmedPeerIsANoOp) {
  RunMonitor a;
  a.configure(record_config("queue_bounds"));
  a.set_queue_bound(100.0);
  a.check_queue(0.1, 0, 200.0);
  RunMonitor unarmed;
  a.merge_from(unarmed);
  EXPECT_EQ(a.checks(), 1u);
  EXPECT_EQ(a.violation_count(), 1u);
}

TEST(RunMonitorTest, ConfigureSwitchesTraceIntoRingMode) {
  EventTrace trace;
  MonitorConfig cfg = record_config("queue_bounds,ring=8");
  RunMonitor monitor;
  monitor.configure(cfg, &trace);
  EXPECT_EQ(trace.ring_capacity(), 8u);
  EXPECT_TRUE(trace.enabled());
}

}  // namespace
}  // namespace bcn::obs
