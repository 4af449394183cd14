// Fault-injection layer (sim/faults.h): spec parsing, the determinism
// contract (same plan => byte-identical trajectory; all-zero plan => the
// pinned lossless digest), link flaps discarding in-flight frames without
// growing the event pool, and counter reconciliation against the
// scenario's own control-plane counters.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "sim/faults.h"
#include "sim/network.h"

namespace bcn::sim {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Same reference scenario as determinism_test.cpp, so the all-zero-plan
// case can compare against that test's pinned digest.
NetworkConfig reference_config() {
  core::BcnParams p;
  p.num_sources = 5;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  NetworkConfig cfg;
  cfg.params = p;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.record_interval = 20 * kMicrosecond;
  return cfg;
}

struct RunDigest {
  std::uint64_t hash = 0;
  Counters counters;
  FaultCounters faults;
  std::size_t events_executed = 0;
};

RunDigest run_reference(const FaultPlan& plan) {
  NetworkConfig cfg = reference_config();
  cfg.faults = plan;
  Network net(cfg);
  net.run(from_seconds(0.04));
  RunDigest d;
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& tp : net.stats().trace()) h = fnv1a(h, &tp, sizeof(tp));
  h = fnv1a(h, &net.stats().counters, sizeof(net.stats().counters));
  d.hash = h;
  d.counters = net.stats().counters;
  d.faults = net.fault_counters();
  d.events_executed = net.simulator().executed();
  return d;
}

// --- parser ---------------------------------------------------------------

TEST(FaultsTest, ParserAcceptsFullGrammar) {
  std::string err;
  const auto plan = parse_fault_plan(
      "bcn_drop=0.25,bcn_dup=0.1,bcn_delay=0.5:100us,data_drop=0.01,"
      "pause_drop=1,flap=10ms+2ms/30ms+500us,seed=42",
      &err);
  ASSERT_TRUE(plan) << err;
  EXPECT_DOUBLE_EQ(plan->bcn_drop_p, 0.25);
  EXPECT_DOUBLE_EQ(plan->bcn_dup_p, 0.1);
  EXPECT_DOUBLE_EQ(plan->bcn_delay_p, 0.5);
  EXPECT_EQ(plan->bcn_delay, 100 * kMicrosecond);
  EXPECT_DOUBLE_EQ(plan->data_drop_p, 0.01);
  EXPECT_DOUBLE_EQ(plan->pause_drop_p, 1.0);
  ASSERT_EQ(plan->flaps.size(), 2u);
  EXPECT_EQ(plan->flaps[0].down_at, 10 * kMillisecond);
  EXPECT_EQ(plan->flaps[0].up_at, 12 * kMillisecond);
  EXPECT_EQ(plan->flaps[1].down_at, 30 * kMillisecond);
  EXPECT_EQ(plan->flaps[1].up_at, 30 * kMillisecond + 500 * kMicrosecond);
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_TRUE(plan->armed());
}

TEST(FaultsTest, ParserSortsFlapWindows) {
  const auto plan = parse_fault_plan("flap=30ms+1ms/10ms+1ms");
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->flaps[0].down_at, 10 * kMillisecond);
  EXPECT_EQ(plan->flaps[1].down_at, 30 * kMillisecond);
}

TEST(FaultsTest, ParserRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "bcn_drop", "bcn_drop=", "bcn_drop=1.5", "bcn_drop=-0.1",
        "bcn_drop=abc", "unknown_key=1", "bcn_delay=0.5", "bcn_delay=0.5:",
        "bcn_delay=0.5:100", "bcn_delay=0.5:100furlongs", "flap=10ms",
        "flap=10ms+0ms", "flap=10ms+5ms/12ms+1ms", "seed=notanumber",
        "=0.5", "bcn_drop=0.1,,bcn_dup=0.1", "bcn_delay=0.5:infus",
        "flap=nanms+2ms", "flap=infms+2ms", "flap=1ms+nanms", "seed=-1",
        "seed=18446744073709551616", "bcn_drop=nan", "bcn_drop=0x.8",
        "flap=9e18ns+9e18ns"}) {
    std::string err;
    EXPECT_FALSE(parse_fault_plan(bad, &err)) << "accepted: " << bad;
    EXPECT_FALSE(err.empty()) << "no error message for: " << bad;
  }
}

TEST(FaultsTest, SeedIsAFull64BitCount) {
  const auto plan = parse_fault_plan("bcn_drop=0.1,seed=18446744073709551615");
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->seed, 18446744073709551615ull);
}

TEST(FaultsTest, SummaryRoundTripsThroughParser) {
  const auto plan = parse_fault_plan(
      "bcn_drop=0.2,bcn_delay=0.1:50us,flap=1ms+2ms,seed=7");
  ASSERT_TRUE(plan);
  const auto again = parse_fault_plan(fault_plan_summary(*plan));
  ASSERT_TRUE(again);
  EXPECT_DOUBLE_EQ(again->bcn_drop_p, plan->bcn_drop_p);
  EXPECT_DOUBLE_EQ(again->bcn_delay_p, plan->bcn_delay_p);
  EXPECT_EQ(again->bcn_delay, plan->bcn_delay);
  ASSERT_EQ(again->flaps.size(), plan->flaps.size());
  EXPECT_EQ(again->flaps[0].down_at, plan->flaps[0].down_at);
  EXPECT_EQ(again->flaps[0].up_at, plan->flaps[0].up_at);
  EXPECT_EQ(again->seed, plan->seed);
}

TEST(FaultsTest, UsageNamesEveryKeyAndItsExampleParses) {
  // Tools print the usage for --faults: every key it documents must
  // parse with the sample value it shows, and so must its example.
  const std::string usage = fault_plan_usage();
  for (const char* entry :
       {"bcn_drop=0.2", "bcn_dup=0.2", "bcn_delay=0.2:100us", "data_drop=0.2",
        "pause_drop=0.2", "flap=10ms+2ms", "seed=7"}) {
    const std::string text(entry);
    const std::string key = text.substr(0, text.find('=') + 1);
    EXPECT_NE(usage.find("  " + key), std::string::npos) << key;
    std::string err;
    EXPECT_TRUE(parse_fault_plan(text, &err)) << text << ": " << err;
  }
  EXPECT_NE(usage.find("(e.g. 0.2:100us)"), std::string::npos);
  EXPECT_NE(usage.find("(e.g. 10ms+2ms)"), std::string::npos);

  const std::string tag = "Example: --faults ";
  const auto at = usage.find(tag);
  ASSERT_NE(at, std::string::npos);
  std::string err;
  const auto plan = parse_fault_plan(usage.substr(at + tag.size()), &err);
  ASSERT_TRUE(plan) << err;
  EXPECT_DOUBLE_EQ(plan->bcn_drop_p, 0.2);
  EXPECT_DOUBLE_EQ(plan->bcn_delay_p, 0.1);
  EXPECT_EQ(plan->bcn_delay, 100 * kMicrosecond);
  EXPECT_EQ(plan->seed, 7u);
}

// --- determinism contract -------------------------------------------------

TEST(FaultsTest, ZeroPlanMatchesPinnedDeterminismDigest) {
  // An all-zero FaultPlan must be a true no-op: no RNG draws, no extra
  // events, the exact digest determinism_test.cpp pins for the lossless
  // reference run.
  const RunDigest d = run_reference(FaultPlan{});
  EXPECT_EQ(d.hash, 0x521a746626762d88ull);
  EXPECT_EQ(d.events_executed, 108970u);
  EXPECT_EQ(d.faults.bcn_dropped, 0u);
  EXPECT_EQ(d.faults.data_dropped, 0u);
}

// Every fault class armed at once on the reference scenario: pins the
// forward-link loss and flap-edge handling alongside the reverse path.
TEST(FaultsTest, FullPlanMatchesPinnedDigest) {
  const auto plan = parse_fault_plan(
      "bcn_drop=0.1,bcn_dup=0.1,bcn_delay=0.2:50us,data_drop=0.01,"
      "pause_drop=0.5,flap=5ms+2ms/20ms+1ms");
  ASSERT_TRUE(plan);
  const RunDigest d = run_reference(*plan);
  EXPECT_EQ(d.faults.link_flaps, 2u);
  EXPECT_GT(d.faults.data_dropped, 0u);
  EXPECT_EQ(d.hash, 0xd2354d70c313a5d9ull);
  EXPECT_EQ(d.events_executed, 107512u);
}

TEST(FaultsTest, SamePlanProducesByteIdenticalTrajectory) {
  const auto plan = parse_fault_plan(
      "bcn_drop=0.3,bcn_delay=0.2:100us,data_drop=0.001,seed=11");
  ASSERT_TRUE(plan);
  const RunDigest a = run_reference(*plan);
  const RunDigest b = run_reference(*plan);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.faults.bcn_dropped, b.faults.bcn_dropped);
  EXPECT_EQ(a.faults.bcn_delayed, b.faults.bcn_delayed);
  EXPECT_EQ(a.faults.data_dropped, b.faults.data_dropped);
  EXPECT_GT(a.faults.bcn_dropped, 0u);
  EXPECT_GT(a.faults.bcn_delayed, 0u);
  EXPECT_GT(a.faults.data_dropped, 0u);
}

TEST(FaultsTest, FaultSeedChangesScheduleTrafficSeedDoesNot) {
  const auto plan = parse_fault_plan("bcn_drop=0.3,seed=11");
  const auto other = parse_fault_plan("bcn_drop=0.3,seed=12");
  ASSERT_TRUE(plan && other);
  const RunDigest a = run_reference(*plan);
  const RunDigest b = run_reference(*other);
  // A different fault seed is a different degraded network.
  EXPECT_NE(a.hash, b.hash);
}

TEST(FaultsTest, FaultClassLanesAreIndependent) {
  // Adding a second fault class must not change which BCN messages the
  // drop lane selects: the drop schedule is a pure function of its own
  // lane.  (The trajectory differs -- duplicates change queue dynamics --
  // but the drop tally stays within the range the same-lane schedule
  // allows; equality of the early schedule is what the lane isolation
  // guarantees, so compare counts on a short horizon with no feedback
  // interaction: pause_drop never fires here, leaving bcn_drop's lane
  // untouched.)
  const auto drop_only = parse_fault_plan("bcn_drop=0.4,seed=5");
  const auto with_pause = parse_fault_plan("bcn_drop=0.4,pause_drop=0.5,seed=5");
  ASSERT_TRUE(drop_only && with_pause);
  const RunDigest a = run_reference(*drop_only);
  const RunDigest b = run_reference(*with_pause);
  // The reference run never asserts PAUSE (queue stays far below qsc), so
  // enabling the pause_drop lane must leave the run byte-identical.
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.faults.bcn_dropped, b.faults.bcn_dropped);
  EXPECT_EQ(b.faults.pause_dropped, 0u);
}

// --- counter reconciliation ----------------------------------------------

TEST(FaultsTest, CertainBcnLossDropsEveryNotification) {
  const auto plan = parse_fault_plan("bcn_drop=1");
  ASSERT_TRUE(plan);
  const RunDigest d = run_reference(*plan);
  // Every emitted notification (negative and positive) is dropped, and
  // the tally reconciles exactly with the emission counters.
  EXPECT_EQ(d.faults.bcn_dropped,
            d.counters.bcn_negative + d.counters.bcn_positive);
  EXPECT_GT(d.faults.bcn_dropped, 0u);

  // No notification survives, so no regulator ever applies feedback.
  NetworkConfig cfg = reference_config();
  cfg.faults = *plan;
  Network net(cfg);
  net.run(from_seconds(0.01));
  EXPECT_EQ(net.stats().events().count(obs::EventKind::BcnApplied), 0u);
  EXPECT_EQ(net.stats().events().count(obs::EventKind::FaultBcnDropped),
            net.fault_counters().bcn_dropped);
}

TEST(FaultsTest, CertainDataLossStarvesTheSwitch) {
  const auto plan = parse_fault_plan("data_drop=1");
  ASSERT_TRUE(plan);
  const RunDigest d = run_reference(*plan);
  EXPECT_EQ(d.counters.frames_delivered, 0u);
  EXPECT_EQ(d.counters.frames_enqueued, 0u);
  EXPECT_EQ(d.faults.data_dropped, d.counters.frames_sent);
  EXPECT_GT(d.faults.data_dropped, 0u);
}

TEST(FaultsTest, DuplicationInflatesAppliedFeedback) {
  const auto plan = parse_fault_plan("bcn_dup=1");
  ASSERT_TRUE(plan);
  NetworkConfig cfg = reference_config();
  cfg.faults = *plan;
  Network net(cfg);
  net.run(from_seconds(0.01));
  const auto& ev = net.stats().events();
  const std::uint64_t sent = ev.count(obs::EventKind::BcnNegativeSent) +
                             ev.count(obs::EventKind::BcnPositiveSent);
  // Every notification is duplicated: regulators apply feedback twice per
  // emission.
  EXPECT_EQ(ev.count(obs::EventKind::BcnApplied), 2 * sent);
  EXPECT_EQ(net.fault_counters().bcn_duplicated, sent);
  EXPECT_GT(sent, 0u);
}

// --- link flaps -----------------------------------------------------------

TEST(FaultsTest, LinkFlapCutsFramesWithoutTombstones) {
  const auto plan = parse_fault_plan("flap=5ms+2ms/20ms+1ms");
  ASSERT_TRUE(plan);
  NetworkConfig cfg = reference_config();
  cfg.faults = *plan;
  Network net(cfg);
  net.run(from_seconds(0.04));
  const FaultCounters& fc = net.fault_counters();
  EXPECT_EQ(fc.link_flaps, 2u);
  EXPECT_GT(fc.flap_dropped, 0u);
  // Frames sent into (or caught in) a down window are discarded at
  // delivery, never cancelled: the scheduler's slot pool must stay fully
  // recycled with no event unaccounted for.
  Simulator& sim = net.simulator();
  EXPECT_EQ(sim.pool_free() + sim.heap_size(), sim.pool_slots());
  // Both edges trace as LinkDown/LinkUp.
  EXPECT_EQ(net.stats().events().count(obs::EventKind::LinkDown), 2u);
  EXPECT_EQ(net.stats().events().count(obs::EventKind::LinkUp), 2u);
  // Conservation: every sent frame was delivered, queued, dropped at the
  // switch, cut by the flap, or is still in flight at the horizon.
  const Counters& c = net.stats().counters;
  EXPECT_LE(c.frames_enqueued + fc.flap_dropped, c.frames_sent);
}

TEST(FaultsTest, LinkDownWindowIsHalfOpen) {
  const auto plan = parse_fault_plan("flap=1ms+1ms");
  ASSERT_TRUE(plan);
  FaultInjector inj(*plan, 0, nullptr);
  EXPECT_FALSE(inj.link_down(1 * kMillisecond - 1));
  EXPECT_TRUE(inj.link_down(1 * kMillisecond));
  EXPECT_TRUE(inj.link_down(2 * kMillisecond - 1));
  EXPECT_FALSE(inj.link_down(2 * kMillisecond));
}

TEST(FaultsTest, DisarmedInjectorIsANoOp) {
  FaultInjector inj;
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.drop_bcn(0, 0));
  EXPECT_EQ(inj.bcn_extra_delay(0, 0), 0);
  EXPECT_FALSE(inj.duplicate_bcn(0, 0));
  EXPECT_FALSE(inj.drop_pause(0));
  EXPECT_FALSE(inj.cut_by_flap(0, 0));
  EXPECT_FALSE(inj.drop_data(0, 0));
  EXPECT_FALSE(inj.link_down(0));
}

}  // namespace
}  // namespace bcn::sim
