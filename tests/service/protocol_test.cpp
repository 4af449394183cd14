#include "service/protocol.h"

#include <gtest/gtest.h>

#include <string>

#include "analysis/report.h"
#include "common/json.h"
#include "core/bcn_params.h"
#include "service/verdict_cache.h"

namespace bcn::service {
namespace {

Request must_parse(const std::string& line) {
  std::string error;
  const auto request = parse_request(line, &error);
  EXPECT_TRUE(request) << line << " -> " << error;
  return request.value_or(Request{});
}

// The key text append_quantize_key writes for `v`.
std::string key_text(double v) {
  std::string out;
  append_quantize_key(out, v);
  return out;
}

std::string parse_error(const std::string& line) {
  std::string error;
  const auto request = parse_request(line, &error);
  EXPECT_FALSE(request) << line;
  return error;
}

// --- parsing ----------------------------------------------------------------

TEST(ParseRequest, AcceptsMinimalAndFullRequests) {
  const Request ping = must_parse("{\"op\":\"ping\"}");
  EXPECT_EQ(ping.op, "ping");
  EXPECT_FALSE(ping.id.has_value());

  const Request verdict = must_parse(
      "{\"op\":\"verdict\",\"id\":42,\"mechanism\":\"qcn\",\"a\":1.6e9,"
      "\"b\":0.0078125,\"k\":2e-8,\"q0\":2.5e6,\"B\":5e6}");
  EXPECT_EQ(verdict.op, "verdict");
  EXPECT_EQ(verdict.id.value(), 42);
}

TEST(ParseRequest, RejectsMalformedInput) {
  EXPECT_NE(parse_error("not json").find("\"parse\""), std::string::npos);
  EXPECT_NE(parse_error("{\"a\":1}").find("missing op"), std::string::npos);
  EXPECT_NE(parse_error("{\"op\":\"nope\"}").find("unknown op"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"op\":\"verdict\",\"bogus\":1}")
                .find("unknown field"),
            std::string::npos);
}

TEST(ParseRequest, RejectsStringTypedNumericFields) {
  // A numeric field sent as a string would default in the cache key but
  // error in execution -- rejecting it up front closes the
  // cache-poisoning hazard.
  const std::string error =
      parse_error("{\"op\":\"verdict\",\"a\":\"1.6e9\"}");
  EXPECT_NE(error.find("must be a number"), std::string::npos);
  EXPECT_NE(parse_error("{\"op\":\"verdict\",\"mechanism\":7}")
                .find("must be a string"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"op\":\"verdict\",\"a\":[1,2]}")
                .find("array fields"),
            std::string::npos);
}

TEST(ParseRequest, RejectsBadIdsAndEchoesGoodOnes) {
  EXPECT_NE(parse_error("{\"op\":\"ping\",\"id\":1.5}")
                .find("id must be an integer"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"op\":\"ping\",\"id\":\"seven\"}")
                .find("id must be an integer"),
            std::string::npos);
  // The id survives into field-validation errors so clients can match
  // the error to the request.
  const std::string error =
      parse_error("{\"op\":\"verdict\",\"id\":9,\"bogus\":1}");
  EXPECT_EQ(error.rfind("{\"id\":9,", 0), 0u) << error;
}

// The number grammar is strtod's, as it always was: a sign, a leading
// point and hex are taken; what overflows to inf is refused as
// non-finite.  A \u escape must name an ASCII code point in four hex
// digits, or the line is not JSON.
TEST(ParseRequest, PinsTheNumberGrammarAndStrictUnicodeEscapes) {
  // Numbers follow RFC 8259: anything else strtod reads is a parse error.
  for (const char* number :
       {"+5e8", ".5e9", "0x10", "nan", "-inf", "01", "1.", "-"}) {
    const std::string line =
        std::string("{\"op\":\"verdict\",\"a\":") + number + "}";
    EXPECT_NE(parse_error(line).find("\"parse\""), std::string::npos)
        << number;
  }
  const Request exp_a = must_parse("{\"op\":\"verdict\",\"a\":-0.5E+9}");
  EXPECT_EQ(exp_a.fields.number("a"), -5e8);
  EXPECT_NE(parse_error("{\"op\":\"verdict\",\"a\":1e999}")
                .find("field 'a' must be finite"),
            std::string::npos);

  EXPECT_EQ(cache_key(must_parse(
                "{\"op\":\"verdict\",\"mechanism\":\"b\\u0063n\"}")),
            cache_key(must_parse("{\"op\":\"verdict\"}")));
  for (const char* name :
       {"b\\u0x63n", "b\\u0163n", "b\\u-09Fn", "bc\\uzzzzn"}) {
    const std::string line =
        std::string("{\"op\":\"verdict\",\"mechanism\":\"") + name + "\"}";
    EXPECT_NE(parse_error(line).find("\"parse\""), std::string::npos)
        << name;
  }
}

// --- id splicing ------------------------------------------------------------

TEST(AttachId, SplicesWithoutReserialization) {
  EXPECT_EQ(attach_id(7, "{\"op\":\"ping\",\"ok\":true}"),
            "{\"id\":7,\"op\":\"ping\",\"ok\":true}");
  EXPECT_EQ(attach_id(7, "{}"), "{\"id\":7}");
  EXPECT_EQ(attach_id(std::nullopt, "{\"op\":\"ping\"}"), "{\"op\":\"ping\"}");
  EXPECT_EQ(attach_id(-12, "not an object"), "not an object");
}

TEST(AttachId, ResponseLineIsTheSplicedBodyAndANewline) {
  for (const std::optional<std::int64_t> id :
       {std::optional<std::int64_t>{}, std::optional<std::int64_t>{7},
        std::optional<std::int64_t>{-9007199254740991}}) {
    for (const std::string body :
         {"{\"op\":\"ping\",\"ok\":true}", "{}", "", "x"}) {
      EXPECT_EQ(response_line(id, body), attach_id(id, body) + "\n");
    }
  }
}

// --- cache keys -------------------------------------------------------------

TEST(CacheKey, QuantizationMergesEquivalentRequests) {
  const Request explicit_default = must_parse(
      "{\"op\":\"verdict\",\"a\":1.6e9,\"b\":0.0078125,\"k\":2e-8,"
      "\"q0\":2.5e6,\"B\":5e6,\"mechanism\":\"bcn\"}");
  const Request bare = must_parse("{\"op\":\"verdict\"}");
  EXPECT_EQ(cache_key(explicit_default), cache_key(bare));

  // Sub-quantum perturbation -> same key; 12th-digit change -> new key.
  const Request wiggled =
      must_parse("{\"op\":\"verdict\",\"a\":1.6000000000001e9}");
  EXPECT_EQ(cache_key(wiggled), cache_key(bare));
  const Request moved = must_parse("{\"op\":\"verdict\",\"a\":1.60000000001e9}");
  EXPECT_NE(cache_key(moved), cache_key(bare));

  // The id never reaches the key.
  const Request with_id = must_parse("{\"op\":\"verdict\",\"id\":123}");
  EXPECT_EQ(cache_key(with_id), cache_key(bare));
}

// A key's text is what "%.12g" prints for each quantized value: fixed
// notation up to 12 digits, the exponent form past them, no trailing
// zeros.
TEST(CacheKey, KeysSpellEachValueAsPercentTwelveG) {
  EXPECT_EQ(cache_key(must_parse("{\"op\":\"verdict\"}")),
            "verdict|bcn|1600000000|0.0078125|2e-08|2500000|5000000");
  EXPECT_EQ(cache_key(must_parse(
                "{\"op\":\"verdict\",\"mechanism\":\"rcp\","
                "\"a\":1234567890.123456,\"b\":0.00123456789012345,"
                "\"k\":3.3e-9,\"q0\":123456.7,\"B\":1e21}")),
            "verdict|rcp|1234567890.12|0.00123456789012|3.3e-09|123456.7|"
            "1e+21");
  EXPECT_EQ(cache_key(must_parse(
                "{\"op\":\"stability_map\",\"grid\":4,\"a_min\":1e8,"
                "\"a_max\":999999999999.5,\"b_min\":0.001,"
                "\"b_max\":0.5,\"B\":12e6}")),
            "map|bcn|linearized|batch|4|100000000|1e+12|0.001|0.5|2e-08|"
            "2500000|12000000");
  EXPECT_EQ(key_text(-0.1), "-0.1");
  EXPECT_EQ(key_text(123456789012.0), "123456789012");
  EXPECT_EQ(key_text(1234567890123.0), "1.23456789012e+12");
  EXPECT_EQ(key_text(1e-5), "1e-05");
  EXPECT_EQ(key_text(0.0001), "0.0001");
}

TEST(CacheKey, OpsAndMechanismsAreDisjoint) {
  const Request verdict = must_parse("{\"op\":\"verdict\"}");
  const Request crossval = must_parse("{\"op\":\"crossval\"}");
  const Request svg = must_parse("{\"op\":\"svg_plot\"}");
  const Request qcn = must_parse("{\"op\":\"verdict\",\"mechanism\":\"qcn\"}");
  EXPECT_NE(cache_key(verdict), cache_key(crossval));
  EXPECT_NE(cache_key(verdict), cache_key(svg));
  EXPECT_NE(cache_key(verdict), cache_key(qcn));
  // Control-plane ops are never cached.
  EXPECT_TRUE(cache_key(must_parse("{\"op\":\"ping\"}")).empty());
  EXPECT_TRUE(cache_key(must_parse("{\"op\":\"stats\"}")).empty());
  EXPECT_TRUE(cache_key(must_parse("{\"op\":\"shutdown\"}")).empty());
}

// --- canonical plant --------------------------------------------------------

TEST(CanonicalPlant, RoundTripsTheGainSpace) {
  const core::BcnParams d = core::BcnParams::standard_draft();
  const core::BcnParams p = canonical_plant(d.a(), d.b(), d.k(), d.q0,
                                            d.buffer);
  EXPECT_DOUBLE_EQ(p.a(), d.a());
  EXPECT_DOUBLE_EQ(p.b(), d.b());
  EXPECT_DOUBLE_EQ(p.k(), d.k());
  EXPECT_DOUBLE_EQ(p.gi, d.gi);
  EXPECT_DOUBLE_EQ(p.gd, d.gd);
  EXPECT_DOUBLE_EQ(p.pm, d.pm);
  EXPECT_EQ(p.qsc, std::min(0.9 * d.buffer, d.buffer - 1.0));
  EXPECT_TRUE(p.is_valid());
}

// --- execution --------------------------------------------------------------

TEST(Execute, VerdictBodyEmbedsTheExactCliReport) {
  const Request request = must_parse("{\"op\":\"verdict\"}");
  const auto result = execute(request, ServiceOptions{}, nullptr);
  ASSERT_FALSE(result.error);
  EXPECT_TRUE(result.cacheable);

  const auto body = FlatJson::parse(result.body);
  ASSERT_TRUE(body);
  analysis::VerdictRequest vr;
  vr.params = core::BcnParams::standard_draft();
  const auto report = analysis::render_verdict_report(vr);
  EXPECT_EQ(body->string_value("text").value(), report.text);
  EXPECT_EQ(body->number("has_fluid").value(), 1.0);
  EXPECT_EQ(body->number("a").value(), 1.6e9);
  EXPECT_EQ(body->number("gi").value(), 4.0);
}

TEST(Execute, DeterministicAcrossRepeatedExecution) {
  const Request request = must_parse(
      "{\"op\":\"verdict\",\"a\":4e8,\"B\":1.2e7,\"q0\":2.5e6}");
  const auto first = execute(request, ServiceOptions{}, nullptr);
  const auto second = execute(request, ServiceOptions{}, nullptr);
  EXPECT_EQ(first.body, second.body);
}

TEST(Execute, ErrorsAreTypedAndUncacheable) {
  const auto unknown = execute(
      must_parse("{\"op\":\"verdict\",\"mechanism\":\"tcp-reno\"}"),
      ServiceOptions{}, nullptr);
  EXPECT_TRUE(unknown.error);
  EXPECT_FALSE(unknown.cacheable);
  EXPECT_NE(unknown.body.find("unknown_mechanism"), std::string::npos);

  // q0 above the buffer is a physically meaningless plant.
  const auto invalid = execute(
      must_parse("{\"op\":\"verdict\",\"q0\":6e6,\"B\":5e6}"),
      ServiceOptions{}, nullptr);
  EXPECT_TRUE(invalid.error);
  EXPECT_NE(invalid.body.find("invalid_params"), std::string::npos);

  // stability_map is closed-form BCN machinery only.
  const auto map = execute(
      must_parse("{\"op\":\"stability_map\",\"mechanism\":\"rcp\"}"),
      ServiceOptions{}, nullptr);
  EXPECT_TRUE(map.error);
  EXPECT_NE(map.body.find("unsupported_mechanism"), std::string::npos);

  // svg_plot needs a fluid facet; fera is packet-only.
  const auto svg = execute(
      must_parse("{\"op\":\"svg_plot\",\"mechanism\":\"fera\"}"),
      ServiceOptions{}, nullptr);
  EXPECT_TRUE(svg.error);
  EXPECT_NE(svg.body.find("unsupported_mechanism"), std::string::npos);
}

TEST(Execute, PacketOnlyMechanismVerdictHasNoFluidFields) {
  const auto result = execute(
      must_parse("{\"op\":\"verdict\",\"mechanism\":\"fera\"}"),
      ServiceOptions{}, nullptr);
  ASSERT_FALSE(result.error);
  const auto body = FlatJson::parse(result.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->number("has_fluid").value(), 0.0);
  EXPECT_FALSE(body->number("stable_nonlinear").has_value());
}

TEST(Execute, StabilityMapGridShapeAndAggregates) {
  const auto result = execute(
      must_parse("{\"op\":\"stability_map\",\"grid\":4,\"a_min\":4e8,"
                 "\"a_max\":4e9,\"b_min\":0.002,\"b_max\":0.06}"),
      ServiceOptions{}, nullptr);
  ASSERT_FALSE(result.error) << result.body;
  const auto body = FlatJson::parse(result.body);
  ASSERT_TRUE(body);
  const auto& a_values = body->arrays().at("a_values");
  const auto& b_values = body->arrays().at("b_values");
  ASSERT_EQ(a_values.size(), 4u);
  ASSERT_EQ(b_values.size(), 4u);
  // The axes start and end exactly at the requested bounds.
  EXPECT_EQ(a_values.front(), 4e8);
  EXPECT_EQ(a_values.back(), 4e9);
  EXPECT_EQ(b_values.front(), 0.002);
  EXPECT_EQ(b_values.back(), 0.06);
  EXPECT_EQ(body->arrays().at("stable").size(), 16u);
  EXPECT_EQ(body->arrays().at("theorem1").size(), 16u);
  double stable = 0.0;
  for (const double cell : body->arrays().at("stable")) stable += cell;
  EXPECT_EQ(stable, body->number("numeric_stable").value());
}

TEST(Execute, StabilityMapEchoesTheModeThatRan) {
  // Clipped maps always run the scalar path, whatever mode was asked for.
  const auto clipped = execute(
      must_parse("{\"op\":\"stability_map\",\"grid\":2,"
                 "\"level\":\"clipped\",\"mode\":\"batch\"}"),
      ServiceOptions{}, nullptr);
  ASSERT_FALSE(clipped.error) << clipped.body;
  const auto body = FlatJson::parse(clipped.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->string_value("mode").value_or(""), "scalar");
  EXPECT_EQ(body->number("refinement_waves").value(), 0.0);

  const auto adaptive = execute(
      must_parse("{\"op\":\"stability_map\",\"grid\":2,"
                 "\"mode\":\"adaptive\"}"),
      ServiceOptions{}, nullptr);
  ASSERT_FALSE(adaptive.error) << adaptive.body;
  EXPECT_EQ(FlatJson::parse(adaptive.body)->string_value("mode").value_or(""),
            "adaptive");
}

TEST(Execute, SvgPlotReturnsRenderedDocument) {
  const auto result = execute(
      must_parse("{\"op\":\"svg_plot\",\"duration\":5e-4,\"width\":320,"
                 "\"height\":200}"),
      ServiceOptions{}, nullptr);
  ASSERT_FALSE(result.error) << result.body;
  const auto body = FlatJson::parse(result.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->number("width").value(), 320.0);
  const auto svg = body->string_value("svg");
  ASSERT_TRUE(svg);
  EXPECT_NE(svg->find("<svg"), std::string::npos);
  EXPECT_NE(svg->find("queue transient"), std::string::npos);
}

TEST(Execute, ControlPlaneOps) {
  const auto ping = execute(must_parse("{\"op\":\"ping\"}"), ServiceOptions{},
                            nullptr);
  EXPECT_EQ(ping.body, "{\"op\":\"ping\",\"ok\":true}");
  EXPECT_FALSE(ping.cacheable);

  obs::MetricsRegistry metrics;
  metrics.counter("service.requests").inc(3);
  const auto stats = execute(must_parse("{\"op\":\"stats\"}"),
                             ServiceOptions{}, &metrics);
  const auto body = FlatJson::parse(stats.body);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->number("service.requests").value(), 3.0);
}

}  // namespace
}  // namespace bcn::service
