// canonical_order (sim/shard/fabric.h) must give exactly the order
// std::sort(..., transfer_before) gives, on both of its paths -- the
// counting sort with its tie pass, and the comparison-sort fallback for a
// window wide against the bucket -- and must reject a record due outside
// its epoch window instead of indexing past its counters.
#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard/fabric.h"

namespace bcn::sim::shard {
namespace {

// A shuffled bucket heavy with ties: few distinct deliver_at values in
// [start, start + quantum) and few senders, each numbering its records
// with a monotone src_seq, so only (src_gid, src_seq) breaks most ties.
// dst_gid holds each record's index, so an order can be read back.
std::vector<TransferRecord> tied_bucket(std::mt19937_64& rng, SimTime start,
                                        SimTime quantum, std::size_t n) {
  std::uniform_int_distribution<SimTime> offset(0, quantum - 1);
  std::vector<SimTime> instants(5);
  for (SimTime& t : instants) t = start + offset(rng);
  std::uniform_int_distribution<std::size_t> pick_instant(0, 4);
  std::uniform_int_distribution<std::uint32_t> pick_sender(0, 3);
  std::vector<std::uint64_t> next_seq(4, 0);
  std::vector<TransferRecord> records(n);
  for (TransferRecord& r : records) {
    r.deliver_at = instants[pick_instant(rng)];
    r.src_gid = 10 * pick_sender(rng);
    r.src_seq = next_seq[r.src_gid / 10]++;
  }
  std::shuffle(records.begin(), records.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].dst_gid = static_cast<std::uint32_t>(i);
  }
  return records;
}

TEST(CanonicalOrderTest, MatchesComparisonSortOnTiedBuckets) {
  std::mt19937_64 rng(2121);
  // Scratch reused across every window and size, as a shard reuses it.
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> order;
  struct Case {
    SimTime quantum;
    std::vector<std::size_t> sizes;
  };
  // Sizes straddle the fallback rule quantum > 16 * n: at Q = 1 every
  // bucket counts; at Q = 500, n <= 31 falls back; at Q = 10^6, n <=
  // 62 499 does.  The empty bucket follows a larger one, so the reused
  // order must shrink to nothing.
  for (const Case& c :
       {Case{1, {1, 2, 7, 300}},
        Case{500, {1, 2, 20, 0, 31, 32, 33, 300, 2000}},
        Case{1'000'000, {1, 3, 1000, 62'499, 62'500}}}) {
    for (const std::size_t n : c.sizes) {
      const SimTime start = 7 * c.quantum;
      const std::vector<TransferRecord> records =
          tied_bucket(rng, start, c.quantum, n);
      std::vector<TransferRecord> sorted = records;
      std::sort(sorted.begin(), sorted.end(), transfer_before);

      std::vector<std::uint32_t> fresh_counts;
      canonical_order(records, start, c.quantum, &fresh_counts, &order);
      const bool fell_back = c.quantum > 16 * static_cast<SimTime>(n);
      EXPECT_EQ(fresh_counts.empty(), fell_back)
          << "Q=" << c.quantum << " n=" << n;
      ASSERT_EQ(order.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(order[i], sorted[i].dst_gid)
            << "Q=" << c.quantum << " n=" << n << " at " << i;
      }

      canonical_order(records, start, c.quantum, &counts, &order);
      ASSERT_EQ(order.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(order[i], sorted[i].dst_gid) << "reused scratch, Q="
            << c.quantum << " n=" << n << " at " << i;
      }
    }
  }
}

// The window's first and last instants order like any other; a record
// due before the window or at its end is a staging bug, and both paths
// throw instead of ordering it.
TEST(CanonicalOrderTest, RecordOutsideItsEpochThrows) {
  std::mt19937_64 rng(2122);
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> order;
  const SimTime q = 500;
  const SimTime start = 3 * q;
  for (const std::size_t n : {10u, 100u}) {  // fallback, counting sort
    std::vector<TransferRecord> records = tied_bucket(rng, start, q, n);
    records[0].deliver_at = start + q - 1;
    records[n - 1].deliver_at = start;
    canonical_order(records, start, q, &counts, &order);
    ASSERT_EQ(order.size(), n);
    EXPECT_EQ(records[order.front()].deliver_at, start) << "n=" << n;
    EXPECT_EQ(records[order.back()].deliver_at, start + q - 1) << "n=" << n;

    for (const SimTime stray : {start - 1, start + q}) {
      records[n / 2].deliver_at = stray;
      EXPECT_THROW(canonical_order(records, start, q, &counts, &order),
                   std::logic_error)
          << "n=" << n << " stray=" << stray;
    }
  }
}

}  // namespace
}  // namespace bcn::sim::shard
