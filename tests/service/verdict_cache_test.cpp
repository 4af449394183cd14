#include "service/verdict_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "../support/metrics_export.h"
#include "obs/metrics.h"

namespace bcn::service {
namespace {

// --- quantization -----------------------------------------------------------

// The key text append_quantize_key writes for `v`.
std::string key_text(double v) {
  std::string out;
  append_quantize_key(out, v);
  return out;
}

TEST(Quantize, IdempotentAndStable) {
  const double values[] = {0.0,      1.0,   1.6e9, 0.0078125,
                           2e-8,     2.5e6, -3.75, 1.0 / 3.0};
  for (const double v : values) {
    EXPECT_EQ(quantize(quantize(v)), quantize(v)) << v;
  }
  // Values already representable in 12 significant digits pass through.
  EXPECT_EQ(quantize(1.6e9), 1.6e9);
  EXPECT_EQ(quantize(0.0078125), 0.0078125);
  EXPECT_EQ(quantize(0.0), 0.0);
}

TEST(Quantize, CollisionsAtTwelveSignificantDigits) {
  // Differ only past the 12th significant digit -> same grid point.
  EXPECT_EQ(quantize(1.0000000000001), quantize(1.0000000000002));
  EXPECT_EQ(key_text(1.0000000000001), key_text(1.0000000000002));
  EXPECT_EQ(quantize(1.6000000000001e9), quantize(1.6e9));
  // Differ within 12 significant digits -> distinct grid points.
  EXPECT_NE(quantize(1.00000000001), quantize(1.00000000002));
  EXPECT_NE(key_text(1.00000000001), key_text(1.00000000002));
}

TEST(Quantize, BoundaryRounding) {
  // 13th digit rounds into the 12th: ...15 and ...149 straddle nothing,
  // both land on ...1 vs ...2 per round-to-nearest of %.12g.
  EXPECT_EQ(key_text(1.00000000001), "1.00000000001");
  EXPECT_EQ(quantize(1.000000000014), quantize(1.00000000001));
  EXPECT_NE(quantize(1.000000000016), quantize(1.00000000001));
}

TEST(Quantize, KeyIsCanonicalText) {
  EXPECT_EQ(key_text(2.5e6), "2500000");
  EXPECT_EQ(key_text(2e-8), "2e-08");
  // Key text equality iff quantized-value equality.
  EXPECT_EQ(key_text(1.6e9), key_text(1600000000.0));
}

// The key text is printf's "%.12g" and the grid point strtod of it, for
// values of every magnitude the service sees and beyond.
TEST(Quantize, MatchesPrintfAndStrtod) {
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-40, 40);
  for (int i = 0; i < 20000; ++i) {
    double v = mantissa(rng) * std::pow(10.0, exponent(rng));
    if (i % 4 == 0) v = std::round(v * 1e6) / 1e6;  // short decimals too
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    EXPECT_EQ(key_text(v), buf) << v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(quantize(v)),
              std::bit_cast<std::uint64_t>(std::strtod(buf, nullptr)))
        << buf;
  }
}

// --- LRU behavior -----------------------------------------------------------

VerdictCache::Config single_shard(std::size_t entries) {
  VerdictCache::Config config;
  config.entries = entries;
  config.shards = 1;
  return config;
}

TEST(VerdictCache, HitAndMissCountersAreExact) {
  VerdictCache cache(single_shard(8), nullptr);
  EXPECT_FALSE(cache.get("a"));  // miss
  cache.put("a", "va");
  EXPECT_EQ(cache.get("a").value(), "va");  // hit
  EXPECT_EQ(cache.get("a").value(), "va");  // hit
  EXPECT_FALSE(cache.get("b"));             // miss
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerdictCache, EvictsLeastRecentlyUsedInOrder) {
  VerdictCache cache(single_shard(3), nullptr);
  cache.put("a", "va");
  cache.put("b", "vb");
  cache.put("c", "vc");
  // Touch "a": LRU order is now b < c < a.
  EXPECT_TRUE(cache.get("a"));
  cache.put("d", "vd");  // evicts b
  EXPECT_FALSE(cache.get("b"));
  EXPECT_TRUE(cache.get("a"));
  EXPECT_TRUE(cache.get("c"));
  EXPECT_TRUE(cache.get("d"));
  EXPECT_EQ(cache.evictions(), 1u);
  // The probing gets above touched a, then c, then d, so "a" is now the
  // least recently used again.
  cache.put("e", "ve");
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_FALSE(cache.get("a"));
  EXPECT_TRUE(cache.get("c"));
  EXPECT_TRUE(cache.get("d"));
  EXPECT_TRUE(cache.get("e"));
}

TEST(VerdictCache, PutRefreshesExistingEntry) {
  VerdictCache cache(single_shard(2), nullptr);
  cache.put("a", "v1");
  cache.put("b", "vb");
  cache.put("a", "v2");  // refresh, not insert: "b" becomes LRU
  cache.put("c", "vc");  // evicts b
  EXPECT_EQ(cache.get("a").value(), "v2");
  EXPECT_FALSE(cache.get("b"));
  EXPECT_TRUE(cache.get("c"));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(VerdictCache, ShardCapacityRoundsUp) {
  VerdictCache::Config config;
  config.entries = 10;
  config.shards = 4;
  VerdictCache cache(config, nullptr);
  EXPECT_EQ(cache.shard_count(), 4u);
  EXPECT_EQ(cache.per_shard_capacity(), 3u);  // ceil(10/4)
}

TEST(VerdictCache, MetricsRegistryExportsCounters) {
  obs::MetricsRegistry metrics;
  VerdictCache cache(single_shard(2), &metrics);
  cache.get("missing");
  cache.put("a", "va");
  cache.get("a");
  cache.put("b", "vb");
  cache.put("c", "vc");  // evicts
  EXPECT_EQ(metrics.find_counter("service.cache.hits")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("service.cache.misses")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("service.cache.evictions")->value(), 1u);
  EXPECT_EQ(testing::exported(metrics).number("service.cache.entries"), 2.0);
}

TEST(VerdictCache, ConcurrentMixedAccessIsRaceFreeAndConsistent) {
  // TSan gate 1 runs this suite under -fsanitize=thread: hammer one
  // small sharded cache from several threads and check the counters
  // balance afterwards (every get is exactly one hit or one miss).
  VerdictCache::Config config;
  config.entries = 16;
  config.shards = 4;
  VerdictCache cache(config, nullptr);
  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 24);
        if (!cache.get(key)) cache.put(key, "value-" + key);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_LE(cache.size(), 16u);
}

}  // namespace
}  // namespace bcn::service
