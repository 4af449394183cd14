// BENCH_trajectory.json, the committed perf history of the repo
// benchmark: one row per change, each workload's three end-to-end
// metrics as the medians of alternating parent/change runs.  A row
// added by hand must be complete before it lands.
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace bcn {
namespace {

TEST(TrajectoryTest, EveryRowIsComplete) {
  const auto trajectory = FlatJson::load(BCN_TRAJECTORY_PATH);
  ASSERT_TRUE(trajectory) << "cannot load or parse " << BCN_TRAJECTORY_PATH;
  const auto& arrays = trajectory->arrays();

  const auto prs = arrays.find("prs");
  ASSERT_NE(prs, arrays.end());
  const std::size_t rows = prs->second.size();
  ASSERT_GT(rows, 0u);
  for (std::size_t r = 1; r < rows; ++r) {
    EXPECT_LT(prs->second[r - 1], prs->second[r]) << "row " << r;
  }

  // A row cannot name the commit it lands in, so each names its parent.
  const auto parents = trajectory->string_value("parents");
  ASSERT_TRUE(parents);
  std::istringstream tokens(*parents);
  std::size_t n_parents = 0;
  for (std::string commit; tokens >> commit;) ++n_parents;
  EXPECT_EQ(n_parents, rows);
  EXPECT_TRUE(trajectory->string_value("host"));

  for (const char* workload : {"map", "fabric", "service"}) {
    for (const char* metric : {"setup_s", "peak_rss_mb", "cpu_ms_per_op"}) {
      for (const char* side : {"parent", "change"}) {
        const std::string key =
            std::string(workload) + "." + metric + "." + side;
        EXPECT_TRUE(arrays.count(key)) << "missing " << key;
      }
    }
  }
  for (const auto& [key, values] : arrays) {
    EXPECT_EQ(values.size(), rows) << key;
    for (const double v : values) {
      EXPECT_TRUE(std::isfinite(v) && v > 0.0) << key << " holds " << v;
    }
  }
}

}  // namespace
}  // namespace bcn
