#include "common/rng.h"

#include <set>

#include <gtest/gtest.h>

namespace bcn {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ZeroSeedIsWellMixed) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(r.next_u64());
  EXPECT_EQ(seen.size(), 32u);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng r(11);
  int counts[5] = {0};
  for (int i = 0; i < 50000; ++i) counts[r.uniform_int(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 10000.0, 500.0);
  }
}

TEST(RngTest, BernoulliEdgesAndMean) {
  Rng r(13);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_FALSE(r.bernoulli(-1.0));
  EXPECT_TRUE(r.bernoulli(2.0));
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace bcn
