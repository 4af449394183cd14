#include "obs/event_trace.h"

#include <gtest/gtest.h>

#include "../support/csv_table.h"

namespace bcn::obs {
namespace {

using Row = std::vector<std::string>;

TEST(EventTraceTest, CountsByKind) {
  EventTrace trace;
  trace.record({1e-3, EventKind::BcnNegativeSent, 7, 0, -1e5, 0.0});
  trace.record({2e-3, EventKind::BcnNegativeSent, 7, 1, -2e5, 0.0});
  trace.record({3e-3, EventKind::BcnApplied, 0, 1, -2e5, 1.5e9});
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.count(EventKind::BcnNegativeSent), 2u);
  EXPECT_EQ(trace.count(EventKind::BcnApplied), 1u);
  EXPECT_EQ(trace.count(EventKind::PauseOn), 0u);
}

TEST(EventTraceTest, KindNamesAreStableIdentifiers) {
  EXPECT_STREQ(EventTrace::kind_name(EventKind::BcnNegativeSent),
               "bcn_negative_sent");
  EXPECT_STREQ(EventTrace::kind_name(EventKind::PauseOff), "pause_off");
  EXPECT_STREQ(EventTrace::kind_name(EventKind::BcnRateAdvertSent),
               "bcn_rate_advert_sent");
}

// PAUSE expiries are recorded at send time with their future timestamp;
// the CSV must still come out time-ordered, and same-instant events must
// keep recording order (stable sort).
TEST(EventTraceTest, CsvIsTimeSortedWithStableTies) {
  EventTrace trace;
  trace.record({1e-3, EventKind::PauseOn, 2, 0, 0.0, 64e-6});
  trace.record({1e-3 + 64e-6, EventKind::PauseOff, 2, 0, 0.0, 64e-6});
  trace.record({5e-4, EventKind::BcnNegativeSent, 7, 3, -1e5, 0.0});
  trace.record({5e-4, EventKind::BcnApplied, 0, 3, -1e5, 2e9});
  const auto csv = testing::written_csv(trace, "bcn_trace_sorted");
  const int kind = csv.column("kind");
  ASSERT_GE(kind, 0);
  ASSERT_EQ(csv.rows.size(), 4u);
  EXPECT_EQ(csv.rows[0][kind], "bcn_negative_sent");
  EXPECT_EQ(csv.rows[1][kind], "bcn_applied");  // same t: recording order
  EXPECT_EQ(csv.rows[2][kind], "pause_on");
  EXPECT_EQ(csv.rows[3][kind], "pause_off");
  // Sorting is on the export copy only; the trace keeps recording order.
  EXPECT_EQ(trace.events().front().kind, EventKind::PauseOn);
}

TEST(EventTraceTest, CsvColumnsCarryCausalFields) {
  EventTrace trace;
  trace.record({0.25, EventKind::BcnNegativeSent, 7, 3, -125000.0, 0.0});
  const auto csv = testing::written_csv(trace, "bcn_trace_fields");
  EXPECT_EQ(csv.header, (Row{"t", "kind", "point", "flow", "sigma", "value"}));
  ASSERT_EQ(csv.rows.size(), 1u);
  EXPECT_EQ(csv.rows[0],
            (Row{"0.25", "bcn_negative_sent", "7", "3", "-125000", "0"}));
}

// Flight-recorder ring mode: capacity bounds the trace to the newest
// events, evicting in recording order.  The eviction order is pinned —
// a wrapped ring must yield exactly the last `capacity` events, oldest
// surviving first, via in_order()/recent() even though the raw slot
// order has rotated.
TEST(EventTraceTest, RingEvictsOldestInRecordingOrder) {
  EventTrace trace;
  trace.set_ring_capacity(4);
  EXPECT_EQ(trace.ring_capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    trace.record({static_cast<double>(i), EventKind::BcnNegativeSent,
                  static_cast<std::uint32_t>(i), 0, 0.0, 0.0});
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.evicted(), 2u);
  const auto ordered = trace.in_order();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_DOUBLE_EQ(ordered[i].t, static_cast<double>(i + 2)) << "slot " << i;
  }
  // The raw storage has wrapped: slot order is rotated, not chronological.
  EXPECT_DOUBLE_EQ(trace.events().front().t, 4.0);
}

TEST(EventTraceTest, RecentReturnsNewestTailInOrder) {
  EventTrace trace;
  trace.set_ring_capacity(4);
  for (int i = 0; i < 7; ++i) {
    trace.record({static_cast<double>(i), EventKind::PauseOn, 1, 0, 0.0, 0.0});
  }
  const auto tail = trace.recent(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_DOUBLE_EQ(tail[0].t, 5.0);
  EXPECT_DOUBLE_EQ(tail[1].t, 6.0);
  // Asking for more than retained clamps to the whole retained window.
  EXPECT_EQ(trace.recent(100).size(), 4u);
}

TEST(EventTraceTest, RingBeforeWrapAndUnboundedDefaultKeepEverything) {
  EventTrace ring;
  ring.set_ring_capacity(8);
  ring.record({0.0, EventKind::BcnPositiveSent, 0, 0, 1.0, 0.0});
  ring.record({1.0, EventKind::BcnPositiveSent, 0, 1, 1.0, 0.0});
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.evicted(), 0u);
  EXPECT_DOUBLE_EQ(ring.in_order().front().t, 0.0);

  EventTrace unbounded;  // default: legacy unbounded vector
  EXPECT_EQ(unbounded.ring_capacity(), 0u);
  for (int i = 0; i < 100; ++i) {
    unbounded.record({static_cast<double>(i), EventKind::BcnApplied, 0,
                      0, 0.0, 0.0});
  }
  EXPECT_EQ(unbounded.size(), 100u);
  EXPECT_EQ(unbounded.evicted(), 0u);
}

}  // namespace
}  // namespace bcn::obs
