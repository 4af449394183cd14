#include "common/json.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace bcn {
namespace {

TEST(JsonWriterTest, InsertionOrderAndTypes) {
  JsonWriter w;
  w.add("name", "sweep");
  w.add("cells", 81);
  w.add("speedup", 3.5);
  w.add("ok", true);
  const std::string s = w.to_string();
  // Keys appear in insertion order.
  EXPECT_LT(s.find("\"name\""), s.find("\"cells\""));
  EXPECT_LT(s.find("\"cells\""), s.find("\"speedup\""));
  EXPECT_NE(s.find("\"name\": \"sweep\""), std::string::npos);
  EXPECT_NE(s.find("\"cells\": 81"), std::string::npos);
  EXPECT_NE(s.find("\"speedup\": 3.5"), std::string::npos);
  EXPECT_NE(s.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '\n');
}

TEST(JsonWriterTest, QuoteEscapesSpecials) {
  EXPECT_EQ(JsonWriter::quote("plain"), "\"plain\"");
  EXPECT_EQ(JsonWriter::quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonWriter::quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonWriter::quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonWriter::quote("tab\there"), "\"tab\\there\"");
  // Control characters use \u00XX.
  EXPECT_EQ(JsonWriter::quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonWriterTest, DoubleFormatRoundTripsAndHandlesNonFinite) {
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(JsonWriter::format(v)), v);
  EXPECT_EQ(JsonWriter::format(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(JsonWriter::format(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::format(2.0), "2");
}

// Every byte below 0x80 and a UTF-8 sequence, as key and as value: the
// escapes JsonWriter writes, in both layouts, and back through FlatJson.
TEST(JsonWriterTest, LinesHoldingEveryEscapeRoundTrip) {
  std::string all;
  for (int c = 1; c < 0x80; ++c) all += static_cast<char>(c);
  all += "\xc2\xb5s";  // "µs"
  std::string escaped = "\"";
  for (int c = 1; c < 0x20; ++c) {
    if (c == '\n') {
      escaped += "\\n";
    } else if (c == '\r') {
      escaped += "\\r";
    } else if (c == '\t') {
      escaped += "\\t";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      escaped += buf;
    }
  }
  for (int c = 0x20; c < 0x80; ++c) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += static_cast<char>(c);
  }
  escaped += "\xc2\xb5s\"";
  EXPECT_EQ(JsonWriter::quote(all), escaped);

  JsonWriter w;
  w.add(all, all);
  w.add("k:,[", "v\":,[]");
  w.add("walls", std::vector<double>{0.5, -1.25});
  w.add("none", std::vector<double>{});
  w.add("n", std::int64_t{-9007199254740993});
  w.add("nan", std::nan(""));
  const std::string members = escaped + ":" + escaped +
                              ",\"k:,[\":\"v\\\":,[]\"," +
                              "\"walls\":[0.5, -1.25],\"none\":[]," +
                              "\"n\":-9007199254740993,\"nan\":null";
  EXPECT_EQ(w.to_line(), "{" + members + "}");
  EXPECT_EQ(w.to_string(), "{\n  " + escaped + ": " + escaped +
                               ",\n  \"k:,[\": \"v\\\":,[]\",\n"
                               "  \"walls\": [0.5, -1.25],\n"
                               "  \"none\": [],\n"
                               "  \"n\": -9007199254740993,\n"
                               "  \"nan\": null\n}\n");
  EXPECT_EQ(w.size(), 6u);
  EXPECT_EQ(JsonWriter().to_line(), "{}");
  EXPECT_EQ(JsonWriter().to_string(), "{\n}\n");

  const auto parsed = FlatJson::parse(w.to_line());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string_value(all), all);
  EXPECT_EQ(parsed->string_value("k:,["), "v\":,[]");
  const auto pretty = FlatJson::parse(w.to_string());
  ASSERT_TRUE(pretty.has_value());
  EXPECT_EQ(pretty->strings(), parsed->strings());
  EXPECT_EQ(pretty->arrays(), parsed->arrays());
}

// Numbers print as "%.17g"; inf and nan print null.
TEST(JsonWriterTest, NumbersMatchSnprintfAtSeventeenDigits) {
  for (const double v :
       {0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 9007199254740991.0, 0.1, 1e-5, 0.0001,
        123456789.5, 1.6e9, 1.0 / 128.0, 2.5}) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    EXPECT_EQ(JsonWriter::format(v), buf);
    JsonWriter w;
    w.add("v", v);
    EXPECT_EQ(w.to_line(), std::string("{\"v\":") + buf + "}");
  }
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(JsonWriter::format(v), "null");
  }
}

TEST(JsonWriterTest, NumberArray) {
  JsonWriter w;
  w.add("walls", std::vector<double>{0.5, 1.25});
  EXPECT_NE(w.to_string().find("[0.5, 1.25]"), std::string::npos);
}

TEST(JsonWriterTest, WriteFileCreatesParentDirs) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "bcn_json_test" / "nested";
  std::filesystem::remove_all(dir.parent_path());
  JsonWriter w;
  w.add("k", 1);
  const auto path = dir / "out.json";
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), w.to_string());
  std::filesystem::remove_all(dir.parent_path());
}

TEST(FlatJsonTest, RoundTripsWhatJsonWriterEmits) {
  JsonWriter w;
  w.add("experiment", "fig7");
  w.add("status", 0);
  w.add("wall_seconds", 0.125);
  w.add("ok", true);
  w.add("off", false);
  w.add("walls", std::vector<double>{0.5, 1.25, 2.0});
  const auto parsed = FlatJson::parse(w.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string_value("experiment"), "fig7");
  EXPECT_EQ(parsed->number("status"), 0.0);
  EXPECT_EQ(parsed->number("wall_seconds"), 0.125);
  EXPECT_EQ(parsed->number("ok"), 1.0);   // booleans land as 0/1
  EXPECT_EQ(parsed->number("off"), 0.0);
  ASSERT_EQ(parsed->arrays().count("walls"), 1u);
  EXPECT_EQ(parsed->arrays().at("walls"),
            (std::vector<double>{0.5, 1.25, 2.0}));
  EXPECT_FALSE(parsed->number("missing").has_value());
  EXPECT_FALSE(parsed->string_value("status").has_value());
}

TEST(FlatJsonTest, ParsesEscapesScientificNotationAndNull) {
  const auto parsed = FlatJson::parse(
      "{\"msg\": \"a\\\"b\\\\c\\nd\", \"tiny\": 1.5e-9, \"neg\": -2E3, "
      "\"gone\": null, \"ascii\": \"b\\u0063n\\u004A\\u007f\\u001f\\u0000\"}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string_value("msg"), "a\"b\\c\nd");
  EXPECT_EQ(parsed->string_value("ascii"),
            std::string("bcnJ\x7f\x1f\0", 7));
  EXPECT_EQ(parsed->number("tiny"), 1.5e-9);
  EXPECT_EQ(parsed->number("neg"), -2000.0);
  // null parses as NaN: present but not a usable number.
  ASSERT_EQ(parsed->numbers().count("gone"), 1u);
  EXPECT_TRUE(std::isnan(parsed->numbers().at("gone")));
}

// A number printf writes for a finite double is an RFC 8259 number, and
// parses to strtod's bits; so do the grammar's own edge shapes.
TEST(FlatJsonTest, NumbersKeepStrtodBits) {
  std::vector<std::string> tokens = {"0",      "-0",     "0.5",   "-0.0e0",
                                     "1E5",    "2e-08",  "1e-400", "1e999",
                                     "-1e999", "12345678901234567890"};
  Rng rng(34);
  for (int i = 0; i < 4000; ++i) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(v)) continue;
    for (const char* format : {"%.17g", "%g", "%.12g", "%.3e"}) {
      char buf[64];
      std::snprintf(buf, sizeof buf, format, v);
      tokens.emplace_back(buf);
    }
  }
  for (const std::string& token : tokens) {
    const auto parsed = FlatJson::parse("{\"v\": " + token + "}");
    ASSERT_TRUE(parsed.has_value()) << token;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->numbers().at("v")),
              std::bit_cast<std::uint64_t>(std::strtod(token.c_str(), nullptr)))
        << token;
  }
}

TEST(FlatJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(FlatJson::parse("").has_value());
  EXPECT_FALSE(FlatJson::parse("{").has_value());
  EXPECT_FALSE(FlatJson::parse("{\"k\": }").has_value());
  EXPECT_FALSE(FlatJson::parse("{\"k\": 1,}").has_value());
  EXPECT_FALSE(FlatJson::parse("{\"k\": 1} trailing").has_value());
  EXPECT_FALSE(FlatJson::parse("[1, 2]").has_value());
  // Nested objects are out of scope by design.
  EXPECT_FALSE(FlatJson::parse("{\"k\": {\"nested\": 1}}").has_value());
  // Numbers follow RFC 8259, in fields and in arrays.
  for (const char* number : {"nan", "-inf", "inf", "infinity", "0x10", "+5",
                             ".5", "-.5", "01", "1.", "-"}) {
    EXPECT_FALSE(FlatJson::parse(std::string("{\"k\": ") + number + "}")
                     .has_value())
        << number;
    EXPECT_FALSE(FlatJson::parse(std::string("{\"k\": [1, ") + number + "]}")
                     .has_value())
        << number;
  }
  // \u takes exactly four hex digits naming a code point below 0x80: no
  // prefix, sign or space, nothing short, nothing wider.
  for (const char* escape :
       {"b\\u0x63n", "b\\u-09Fn", "b\\u+063n", "b\\u 063n", "bc\\uzzzzn",
        "b\\u0163n", "\\u0080", "\\uFFFF", "\\u006", "\\u00", "\\u"}) {
    EXPECT_FALSE(FlatJson::parse(std::string("{\"k\": \"") + escape + "\"}")
                     .has_value())
        << escape;
  }
}

TEST(FlatJsonTest, LoadReadsFilesAndFailsCleanly) {
  const auto dir =
      std::filesystem::temp_directory_path() / "bcn_flatjson_test";
  std::filesystem::remove_all(dir);
  JsonWriter w;
  w.add("v", 3.5);
  const auto path = dir / "artifact.json";
  ASSERT_TRUE(w.write_file(path));
  const auto loaded = FlatJson::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->number("v"), 3.5);
  EXPECT_FALSE(FlatJson::load(dir / "missing.json").has_value());
  std::filesystem::remove_all(dir);
}

TEST(FlatJsonTest, LoadRefusesAnArtifactHoldingANonJsonNumber) {
  // JsonWriter writes null for a non-finite value, so an artifact holding
  // nan, inf or hex was written by something else; the loader behind
  // bcn_bench_diff refuses it instead of comparing a value strtod made up.
  const auto dir =
      std::filesystem::temp_directory_path() / "bcn_flatjson_nan_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir / "artifact.json";
  for (const char* number : {"nan", "-inf", "0x10", "+1"}) {
    std::ofstream(path) << "{\"a\": 1, \"v\": " << number << "}\n";
    EXPECT_FALSE(FlatJson::load(path).has_value()) << number;
  }
  std::ofstream(path) << "{\"a\": 1, \"v\": null}\n";
  const auto loaded = FlatJson::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(std::isnan(loaded->numbers().at("v")));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bcn
