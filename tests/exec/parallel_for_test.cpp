#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace bcn::exec {
namespace {

TEST(ResolveThreadsTest, ZeroMeansHardwareAndExplicitIsLiteral) {
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(7), 7);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(
      kN, [&](std::size_t i) { visits[i].fetch_add(1); }, {.threads = 4});
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForTest, OrderingDeterministicAcrossThreadCounts) {
  constexpr std::size_t kN = 513;  // not a multiple of any chunk size
  auto cell = [](std::size_t i) {
    // An irrational-ish value so any index mixup changes bits.
    return std::sin(static_cast<double>(i) * 0.7) * 1e9;
  };
  const auto serial = parallel_map<double>(kN, cell, {.threads = 1});
  for (const int threads : {2, 4, 8}) {
    const auto parallel = parallel_map<double>(kN, cell, {.threads = threads});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < kN; ++i) {
      // Bitwise identity, not tolerance: slot i is always cell(i).
      EXPECT_EQ(parallel[i], serial[i]) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, EmptyRange) {
  parallel_for(0, [](std::size_t) { FAIL(); }, {.threads = 4});
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        parallel_for(
            100,
            [](std::size_t i) {
              if (i == 37) throw std::runtime_error("cell 37 failed");
            },
            {.threads = threads}),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelForTest, RepeatedForkJoinsCoverRangeOrRethrow) {
  // Every call starts and joins its own workers, so a few hundred calls
  // in a row give the thread sanitizer each start, join and exception
  // hand-off many times over.  Every other call throws at one index that
  // moves from call to call; the others must visit each index once.
  for (int call = 0; call < 300; ++call) {
    const int threads = call % 4 < 2 ? 2 : 4;
    const std::size_t n = 40 + static_cast<std::size_t>(call % 61);
    const std::size_t bad = static_cast<std::size_t>(call * 7) % n;
    const bool throws = call % 2 == 1;
    std::vector<std::atomic<int>> visits(n);
    auto body = [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
      if (throws && i == bad) throw std::runtime_error(std::to_string(i));
    };
    if (!throws) {
      parallel_for(n, body, {.threads = threads});
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "call " << call << " i=" << i;
      }
      continue;
    }
    try {
      parallel_for(n, body, {.threads = threads});
      ADD_FAILURE() << "call " << call << " did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), std::to_string(bad)) << "call " << call;
    }
    // Abandoned chunks are skipped, never run twice.
    EXPECT_EQ(visits[bad].load(), 1) << "call " << call;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(visits[i].load(), 1) << "call " << call << " i=" << i;
    }
  }
}

TEST(ParallelForTest, SerialPathRunsInOrderOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  parallel_for(
      50,
      [&](std::size_t i) {
        order.push_back(i);
        ran_on.push_back(std::this_thread::get_id());
      },
      {.threads = 1});
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], caller) << "i=" << i;
  }
}

TEST(ParallelForTest, WorkersRunEveryIndexOffTheCallingThread) {
  // With several threads the caller only starts and joins the workers.
  constexpr std::size_t kN = 1000;
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(kN);  // slot i: written by its worker
  parallel_for(
      kN, [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); },
      {.threads = 4});
  std::set<std::thread::id> workers;
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NE(ran_on[i], std::thread::id()) << "i=" << i << " never ran";
    EXPECT_NE(ran_on[i], caller) << "i=" << i;
    workers.insert(ran_on[i]);
  }
  EXPECT_GE(workers.size(), 1u);
  EXPECT_LE(workers.size(), 4u);
}

TEST(ParallelForTest, FewerIndicesThanThreadsVisitEachOnce) {
  // n < threads·8 makes the chunk one index, and the workers that find
  // the counter past n return without running anything.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 31u}) {
    std::vector<std::atomic<int>> visits(n);
    parallel_for(
        n, [&](std::size_t i) { visits[i].fetch_add(1); }, {.threads = 8});
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelForTest, EachChunkRunsInOrderOnOneWorker) {
  // 650 indices on 4 threads claim chunks of 650 / 32 = 20, the last
  // one partial (10).  A chunk is never split across workers and runs in
  // index order, so the tickets its indices draw from one shared counter
  // rise within it.
  constexpr std::size_t kN = 650, kChunk = 20;
  std::atomic<std::size_t> tickets{0};
  std::vector<std::thread::id> ran_on(kN);
  std::vector<std::size_t> ticket(kN);
  parallel_for(
      kN,
      [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
        ticket[i] = tickets.fetch_add(1);
      },
      {.threads = 4});
  EXPECT_EQ(tickets.load(), kN);
  for (std::size_t begin = 0; begin < kN; begin += kChunk) {
    const std::size_t end = std::min(kN, begin + kChunk);
    for (std::size_t i = begin + 1; i < end; ++i) {
      EXPECT_EQ(ran_on[i], ran_on[begin]) << "chunk " << begin << " i=" << i;
      EXPECT_GT(ticket[i], ticket[i - 1]) << "chunk " << begin << " i=" << i;
    }
  }
}

TEST(ParallelForTest, ConcurrentThrowsRethrowExactlyOne) {
  // Every index throws, so each worker fails on the first index of the
  // one chunk it claims (4000 / 32 = 125 indices) and takes no other.
  // The call must hand exactly one of those exceptions to the caller.
  constexpr std::size_t kN = 4000, kChunk = 125;
  std::vector<std::atomic<int>> visits(kN);
  std::string rethrown;
  try {
    parallel_for(
        kN,
        [&](std::size_t i) {
          visits[i].fetch_add(1);
          throw std::runtime_error(std::to_string(i));
        },
        {.threads = 4});
    ADD_FAILURE() << "parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    rethrown = e.what();
  }
  std::size_t visited = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    if (visits[i].load() == 0) continue;
    ++visited;
    EXPECT_EQ(visits[i].load(), 1) << "i=" << i;
    EXPECT_EQ(i % kChunk, 0u) << "i=" << i << " is not a chunk's first index";
  }
  EXPECT_GE(visited, 1u);
  EXPECT_LE(visited, 4u);
  ASSERT_FALSE(rethrown.empty());
  const auto thrown_at = static_cast<std::size_t>(std::stoul(rethrown));
  ASSERT_LT(thrown_at, kN);
  EXPECT_EQ(visits[thrown_at].load(), 1) << "rethrew " << rethrown;
}

}  // namespace
}  // namespace bcn::exec
