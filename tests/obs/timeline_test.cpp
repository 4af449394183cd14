#include "obs/timeline.h"

#include <gtest/gtest.h>

#include "../support/csv_table.h"

namespace bcn::obs {
namespace {

using Row = std::vector<std::string>;

TEST(TimelineTest, SeriesCreatesOnFirstUseWithStableReference) {
  TimelineSet set;
  Timeline& flow = set.series("flow.0001.rate_bps");
  for (int i = 0; i < 50; ++i) {
    set.series("filler." + std::to_string(i));
  }
  flow.record(0.0, 1e9);
  flow.record(1e-3, 2e9);
  ASSERT_NE(set.find("flow.0001.rate_bps"), nullptr);
  EXPECT_EQ(set.find("flow.0001.rate_bps")->size(), 2u);
  EXPECT_EQ(set.find("missing"), nullptr);
  EXPECT_EQ(set.total_points(), 2u);
}

TEST(TimelineTest, NamesAreSortedRegardlessOfCreationOrder) {
  TimelineSet set;
  set.series("port.core.queue_bits");
  set.series("flow.0002.rate_bps");
  set.series("flow.0001.rate_bps");
  const auto names = set.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "flow.0001.rate_bps");
  EXPECT_EQ(names[1], "flow.0002.rate_bps");
  EXPECT_EQ(names[2], "port.core.queue_bits");
}

TEST(TimelineTest, CsvIsLongFormatGroupedBySeriesName) {
  TimelineSet set;
  set.series("b.series").record(0.5, 2.0);
  set.series("a.series").record(0.25, 1.0);
  set.series("a.series").record(0.75, 3.0);
  const auto csv = testing::written_csv(set, "bcn_timeline_long");
  EXPECT_EQ(csv.header, (Row{"series", "t", "value"}));
  // Series grouped in name order, points in recording order.
  ASSERT_EQ(csv.rows.size(), 3u);
  EXPECT_EQ(csv.rows[0], (Row{"a.series", "0.25", "1"}));
  EXPECT_EQ(csv.rows[1], (Row{"a.series", "0.75", "3"}));
  EXPECT_EQ(csv.rows[2], (Row{"b.series", "0.5", "2"}));
}

TEST(TimelineTest, EmptySetExportsHeaderOnly) {
  TimelineSet set;
  EXPECT_TRUE(set.empty());
  const auto csv = testing::written_csv(set, "bcn_timeline_empty");
  EXPECT_EQ(csv.header, (Row{"series", "t", "value"}));
  EXPECT_TRUE(csv.rows.empty());
}

}  // namespace
}  // namespace bcn::obs
