// Accept/reject tables for the shared input grammar (common/grammar.h)
// and for values arriving through ArgParser's flag-else-environment
// lookup.  Accepted numbers must keep the exact bits strtod gave them.
#include "common/grammar.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/args.h"

namespace bcn {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

TEST(GrammarTest, NumbersKeepTheirBits) {
  for (const char* text :
       {"10e9", "0.0078125", "-5", "2.5e6", "1e10", "50", "4", "0.01",
        "8e6", "1.5e-3", "5e-3", "5e7", "0.2", "0.1", "0.3", "0.25", "1",
        "0", "-0", "1e-12", "0.10", "1.2e7", "4e8", "2e9", "1E5", "1e+3",
        ".5", "5.", "3.141592653589793", "1.7976931348623157e308"}) {
    std::string error;
    const auto value = scan_number(text, &error);
    ASSERT_TRUE(value.has_value()) << text << ": " << error;
    EXPECT_EQ(bits(*value), bits(std::strtod(text, nullptr))) << text;
  }
}

TEST(GrammarTest, NumbersRejectAnythingButAFiniteDecimal) {
  for (const char* text :
       {"", "abc", "nan", "NaN", "-nan", "inf", "-inf", "infinity", "0x10",
        "0x1p3", "+5", " 5", "5 ", "5x", "0.01x", "1e", "1e999", "-1e999",
        "--5", "1,5", "5e3.0"}) {
    std::string error;
    EXPECT_FALSE(scan_number(text, &error).has_value()) << text;
    EXPECT_NE(error.find("is not a finite decimal number"), std::string::npos)
        << text << ": " << error;
  }
}

TEST(GrammarTest, CountsAreDigitsWithinTheirMaximum) {
  constexpr auto kU64 = std::numeric_limits<std::uint64_t>::max();
  const struct {
    const char* text;
    std::uint64_t max;
    std::uint64_t want;
  } accept[] = {{"0", 10, 0},
                {"7", 10, 7},
                {"007", 10, 7},
                {"999999", 999'999, 999'999},
                {"1000000", 1'000'000, 1'000'000},
                {"4294967296", kU64, 4'294'967'296ull},
                {"18446744073709551615", kU64, kU64}};
  for (const auto& c : accept) {
    const auto value = scan_count(c.text, c.max);
    ASSERT_TRUE(value.has_value()) << c.text;
    EXPECT_EQ(*value, c.want) << c.text;
  }
  for (const char* text :
       {"", "-1", "+1", "1.0", "1e3", " 1", "1 ", "0x10", "abc", "4x"}) {
    std::string error;
    EXPECT_FALSE(scan_count(text, kU64, &error).has_value()) << text;
    EXPECT_NE(error.find("is not a count"), std::string::npos) << error;
  }
  const std::pair<const char*, std::uint64_t> too_big[] = {
      {"18446744073709551616", kU64}, {"11", 10}, {"1000001", 1'000'000}};
  for (const auto& [text, max] : too_big) {
    std::string error;
    EXPECT_FALSE(scan_count(text, max, &error).has_value()) << text;
    EXPECT_NE(error.find("exceeds the maximum"), std::string::npos) << error;
  }
}

TEST(GrammarTest, DurationsReadAsTheSpecGrammarsAlwaysDid) {
  const struct {
    const char* text;
    std::int64_t ns;
    double seconds;
  } accept[] = {{"100us", 100'000, 100 * 1e-6},
                {"2.5ms", 2'500'000, 2.5 * 1e-3},
                {"750ns", 750, 750 * 1e-9},
                {"1s", 1'000'000'000, 1.0},
                {"0ms", 0, 0.0},
                {"2ms", 2'000'000, 2 * 1e-3},
                {"200us", 200'000, 200 * 1e-6},
                {"1e3us", 1'000'000, 1e3 * 1e-6},
                {"0.002s", 2'000'000, 0.002},
                {"9e18ns", 9'000'000'000'000'000'000, 9e18 * 1e-9}};
  for (const auto& c : accept) {
    std::string error;
    const auto d = scan_duration(c.text, &error);
    ASSERT_TRUE(d.has_value()) << c.text << ": " << error;
    EXPECT_EQ(d->nanoseconds(), c.ns) << c.text;
    EXPECT_EQ(bits(d->seconds()), bits(c.seconds)) << c.text;
  }
  for (const char* text :
       {"", "5", "ms", "s", "-3ms", "nanms", "infms", "-infus", "5 ms",
        " 5ms", "0x10ms", "5msx", "5m", "5xs", "100furlongs", "1e10s",
        "9.3e18ns", "1e999ms"}) {
    std::string error;
    EXPECT_FALSE(scan_duration(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(GrammarTest, BooleansTakeEightSpellings) {
  for (const char* text : {"true", "1", "yes", "on"}) {
    EXPECT_EQ(scan_bool(text), std::optional<bool>(true)) << text;
  }
  for (const char* text : {"false", "0", "no", "off"}) {
    EXPECT_EQ(scan_bool(text), std::optional<bool>(false)) << text;
  }
  for (const char* text : {"", "TRUE", "False", "maybe", "2", "y", " on"}) {
    std::string error;
    EXPECT_FALSE(scan_bool(text, &error).has_value()) << text;
    EXPECT_NE(error.find("is not a boolean"), std::string::npos) << error;
  }
}

class EnvValueTest : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "BCN_GRAMMAR_TEST";
  void SetUp() override { unsetenv(kVar); }
  void TearDown() override { unsetenv(kVar); }

  static ArgParser parse(std::initializer_list<const char*> argv) {
    std::vector<const char*> full{"prog"};
    full.insert(full.end(), argv.begin(), argv.end());
    return ArgParser(static_cast<int>(full.size()), full.data());
  }
};

TEST_F(EnvValueTest, EnvironmentValuesFollowTheSameGrammar) {
  const auto none = parse({});
  const struct {
    const char* value;
    int want;          // -1: usage error
    const char* what;  // expected message when rejected
  } cases[] = {
      {"4", 4, nullptr},
      {"0", 0, nullptr},
      {"abc", -1, "BCN_GRAMMAR_TEST: 'abc' is not a count (digits only)"},
      {"-1", -1, "BCN_GRAMMAR_TEST: '-1' is not a count (digits only)"},
      {"5000000000", -1,
       "BCN_GRAMMAR_TEST: '5000000000' exceeds the maximum 2147483647"},
  };
  for (const auto& c : cases) {
    setenv(kVar, c.value, 1);
    const auto v = none.lookup("n", kVar);
    ASSERT_TRUE(v.has_value()) << c.value;
    EXPECT_EQ(v->source, kVar);
    if (c.want >= 0) {
      EXPECT_EQ(v->count(), c.want) << c.value;
      continue;
    }
    try {
      v->count();
      ADD_FAILURE() << "accepted " << c.value;
    } catch (const UsageError& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
  }
}

TEST_F(EnvValueTest, FlagBeatsEnvironmentAndEmptyMeansUnset) {
  setenv(kVar, "garbage", 1);
  const auto flagged = parse({"--n", "3"});
  const auto v = flagged.lookup("n", kVar);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->source, "--n");
  EXPECT_EQ(v->count(), 3);
  EXPECT_FALSE(parse({}).lookup("n").has_value());  // no env consulted
  setenv(kVar, "", 1);
  EXPECT_FALSE(parse({}).lookup("n", kVar).has_value());
}

int read_count_n(const ArgParser& args) {
  return args.get_count("n", 0);
}

TEST(RunCliTest, UsageErrorsExitTwo) {
  const char* bad[] = {"prog", "--n", "x"};
  EXPECT_EQ(run_cli(3, bad, read_count_n), kUsageExit);
  const char* good[] = {"prog", "--n", "7"};
  EXPECT_EQ(run_cli(3, good, read_count_n), 7);
}

}  // namespace
}  // namespace bcn
