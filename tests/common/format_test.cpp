#include "common/format.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"

namespace bcn {
namespace {

TEST(StrfTest, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(strf("%.3g", 3.14159), "3.14");
  EXPECT_EQ(strf("%s", "hello"), "hello");
}

TEST(StrfTest, EmptyAndLongStrings) {
  EXPECT_EQ(strf("%s", ""), "");
  const std::string big(5000, 'x');
  EXPECT_EQ(strf("%s", big.c_str()), big);
}

// strf formats once into a stack buffer and again only when the text is
// longer; every length on both sides of that buffer prints in full.
TEST(StrfTest, EveryLengthAroundTheStackBufferPrintsInFull) {
  for (std::size_t n = 0; n < 1200; ++n) {
    const std::string body(n, 'a' + static_cast<char>(n % 26));
    EXPECT_EQ(strf("%s|%d|%.3f", body.c_str(), 42, 0.5),
              body + "|42|0.500")
        << n;
  }
}

// Doubles every printf conversion the renderers use must agree on: the
// seeded draw spans every binade, and the named cases sit where rounding
// or the %g exponent switch could go wrong.
std::vector<double> differential_inputs() {
  std::vector<double> v = {
      0.0,
      -0.0,
      DBL_TRUE_MIN,
      -DBL_TRUE_MIN,
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      9007199254740992.0 - 1.0,  // 2^53 - 1
      9007199254740992.0,
      9007199254740992.0 + 2.0,  // 2^53 + 1 rounds to an even neighbour
      0.5,
      1.5,
      2.5,
      -2.5,
      999999.5,
      9999995.0,
      9.9999995,
      0.00099999995,
      1e-5,
      9.99999e-6,
      9.999995e-5,
      0.0001,
      0.000099999,
      0.00009999995,
      1e-4 - 1e-20,
      123456.5,
      1e15,
      1e16,
      1e21,
      1e22,
      5e-324,
      0.1 + 0.2,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  Rng rng(1234);
  for (int i = 0; i < 4000; ++i) {
    // Raw bit patterns: every exponent, subnormals and non-finites too.
    const std::uint64_t bits = rng.next_u64();
    double raw;
    std::memcpy(&raw, &bits, sizeof(raw));
    v.push_back(raw);
    // Log-uniform magnitudes around the plant scales, and values on the
    // 4-, 6- and 12-digit grids plus half a unit.
    const double mag = std::pow(10.0, rng.uniform(-12.0, 13.0));
    v.push_back(rng.bernoulli(0.5) ? mag : -mag);
    const double digits = std::floor(rng.uniform(0.0, 1e6));
    v.push_back((digits + 0.5) * std::pow(10.0, rng.uniform_int(30)) * 1e-15);
  }
  return v;
}

std::string printf_g(double v, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

TEST(NumberWriterTest, GMatchesSnprintfAtEveryRenderedPrecision) {
  int checked = 0;
  for (const double v : differential_inputs()) {
    for (const int precision : {4, 6, 12, 17}) {
      std::string out = "x";
      append_g(out, v, precision);
      ASSERT_EQ(out, "x" + printf_g(v, precision))
          << "%." << precision << "g of " << printf_g(v, 17);
      char buf[kGChars];
      ASSERT_EQ(std::string(buf, to_chars_g(buf, v, precision)),
                printf_g(v, precision));
      ++checked;
    }
    std::string plain;
    append_g(plain, v);  // the default precision is plain %g's
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%g", v);
    ASSERT_EQ(plain, buf);
  }
  EXPECT_GT(checked, 40000);
}

TEST(NumberWriterTest, FMatchesSnprintfUpToDblMax) {
  for (const double v : differential_inputs()) {
    std::string out;
    append_f(out, v, 6);
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    ASSERT_EQ(out, buf) << printf_g(v, 17);
  }
  std::string max;
  append_f(max, -DBL_MAX, 6);
  EXPECT_EQ(max.size(), 1u + 309u + 1u + 6u);
}

TEST(NumberWriterTest, StrfMatchesTheWriter) {
  for (const double v : differential_inputs()) {
    for (const int precision : {4, 6, 12, 17}) {
      std::string out;
      append_g(out, v, precision);
      ASSERT_EQ(strf("%.*g", precision, v), out);
    }
    std::string fixed;
    append_f(fixed, v, 6);
    ASSERT_EQ(strf("%.6f", v), fixed);
  }
}

TEST(LogTest, LevelGatesOutput) {
  // Just exercise the call paths; output goes to stderr.
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  BCN_LOG_DEBUG("hidden %d", 1);
  BCN_LOG_ERROR("visible %d", 2);
  set_log_level(LogLevel::Warn);
  EXPECT_EQ(log_level(), LogLevel::Warn);
}

}  // namespace
}  // namespace bcn
