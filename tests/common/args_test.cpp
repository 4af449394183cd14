#include "common/args.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace bcn {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return ArgParser(static_cast<int>(full.size()), full.data());
}

TEST(ArgParserTest, SpaceSeparatedValues) {
  const auto args = parse({"--N", "50", "--C", "1e10"});
  EXPECT_DOUBLE_EQ(args.get_double("N", 0.0), 50.0);
  EXPECT_DOUBLE_EQ(args.get_double("C", 0.0), 1e10);
}

TEST(ArgParserTest, EqualsForm) {
  const auto args = parse({"--q0=2.5e6", "--gi=4"});
  EXPECT_DOUBLE_EQ(args.get_double("q0", 0.0), 2.5e6);
  EXPECT_EQ(args.get_count("gi", 0), 4);
}

TEST(ArgParserTest, BooleanFlags) {
  const auto args = parse({"--plot", "--N", "10", "--verbose"});
  EXPECT_TRUE(args.get_bool("plot"));
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_DOUBLE_EQ(args.get_double("N", 0.0), 10.0);
}

TEST(ArgParserTest, ExplicitBooleanValues) {
  const auto args = parse({"--a=true", "--b=0", "--c", "yes", "--d=off"});
  EXPECT_TRUE(args.get_bool("a"));
  EXPECT_FALSE(args.get_bool("b"));
  EXPECT_TRUE(args.get_bool("c"));
  EXPECT_FALSE(args.get_bool("d"));
}

// Only a missing flag falls back; a malformed one is a usage error that
// names the flag.
TEST(ArgParserTest, FallbacksOnMissingOrMalformed) {
  const auto args = parse({"--x", "notanumber", "--n", "-3", "--b", "maybe"});
  EXPECT_DOUBLE_EQ(args.get_double("y", 3.0), 3.0);
  EXPECT_EQ(args.get_count("y", 7), 7);
  EXPECT_THROW(args.get_count("x", 1), UsageError);
  EXPECT_THROW(args.get_count("n", 1), UsageError);
  EXPECT_THROW(args.get_bool("b"), UsageError);
  try {
    args.get_double("x", 7.0);
    ADD_FAILURE() << "--x notanumber accepted";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "--x: 'notanumber' is not a finite decimal number");
  }
}

TEST(ArgParserTest, PositionalArguments) {
  const auto args = parse({"input.csv", "--flag", "v", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(ArgParserTest, HasAndNames) {
  const auto args = parse({"--one", "1", "--two=2"});
  EXPECT_EQ(args.get("one"), "1");
  EXPECT_EQ(args.get("two"), "2");
  EXPECT_FALSE(args.get("three"));
  EXPECT_EQ(args.flag_names().size(), 2u);
}

TEST(ArgParserTest, NegativeNumberAsValue) {
  const auto args = parse({"--offset", "-5"});
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -5.0);
}

class ThreadCountTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("BCN_THREADS"); }
  void TearDown() override { unsetenv("BCN_THREADS"); }
};

TEST_F(ThreadCountTest, FlagWins) {
  const auto args = parse({"--threads", "6"});
  EXPECT_EQ(thread_count(args, 1), 6);
  setenv("BCN_THREADS", "3", 1);
  EXPECT_EQ(thread_count(args, 1), 6);  // flag beats env
}

TEST_F(ThreadCountTest, EnvFallback) {
  const auto args = parse({});
  setenv("BCN_THREADS", "5", 1);
  EXPECT_EQ(thread_count(args, 1), 5);
}

TEST_F(ThreadCountTest, DefaultWhenUnset) {
  const auto args = parse({});
  EXPECT_EQ(thread_count(args, 1), 1);
  EXPECT_EQ(thread_count(args, 4), 4);
}

TEST_F(ThreadCountTest, ZeroMeansAllHardwareThreadsIsAccepted) {
  const auto args = parse({"--threads", "0"});
  EXPECT_EQ(thread_count(args, 1), 0);
}

// Malformed values no longer fall back: they are usage errors naming
// the flag or the variable they came from.
TEST_F(ThreadCountTest, InvalidValuesFallBack) {
  EXPECT_THROW(thread_count(parse({"--threads", "abc"}), 2), UsageError);
  EXPECT_THROW(thread_count(parse({"--threads", "-3"}), 2), UsageError);
  EXPECT_THROW(thread_count(parse({"--threads", "4x"}), 2), UsageError);
  EXPECT_THROW(thread_count(parse({"--threads"}), 2), UsageError);
  setenv("BCN_THREADS", "garbage", 1);
  try {
    thread_count(parse({}), 2);
    ADD_FAILURE() << "BCN_THREADS=garbage accepted";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(),
                 "BCN_THREADS: 'garbage' is not a count (digits only)");
  }
  setenv("BCN_THREADS", "", 1);  // empty counts as unset
  EXPECT_EQ(thread_count(parse({}), 2), 2);
}

TEST(UnknownFlagsTest, FindsTyposOnly) {
  const auto args = parse({"--gi", "4", "--grd", "0.1", "--plot"});
  const auto unknown = unknown_flags(args, {"gi", "gd", "plot", "help"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "grd");
}

TEST(UnknownFlagsTest, AllKnownIsEmpty) {
  const auto args = parse({"--gi", "4", "--plot"});
  EXPECT_TRUE(unknown_flags(args, {"gi", "plot"}).empty());
  EXPECT_TRUE(reject_unknown_flags(args, {"gi", "plot"}));
}

TEST(UnknownFlagsTest, RejectReturnsFalseOnUnknown) {
  const auto args = parse({"--bogus"});
  EXPECT_FALSE(reject_unknown_flags(args, {"help"}));
}

}  // namespace
}  // namespace bcn
