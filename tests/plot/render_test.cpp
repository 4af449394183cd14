#include <filesystem>

#include <gtest/gtest.h>

#include "plot/ascii.h"
#include "plot/svg.h"

namespace bcn::plot {
namespace {

Series wave() {
  Series s;
  s.name = "wave";
  for (int i = 0; i <= 50; ++i) {
    const double x = i / 50.0 * 6.28;
    s.add(x, std::sin(x));
  }
  return s;
}

TEST(AsciiTest, RendersGridWithLegendAndBounds) {
  AsciiOptions opts;
  opts.title = "Test Plot";
  opts.x_label = "time";
  const std::string out = render_ascii({wave()}, opts);
  EXPECT_NE(out.find("Test Plot"), std::string::npos);
  EXPECT_NE(out.find("*"), std::string::npos);
  EXPECT_NE(out.find("legend: *=wave"), std::string::npos);
  EXPECT_NE(out.find("(time)"), std::string::npos);
  EXPECT_NE(out.find("y: ["), std::string::npos);
}

TEST(AsciiTest, EmptyInput) {
  EXPECT_EQ(render_ascii({}), "(no data)\n");
  EXPECT_EQ(render_ascii({Series{"e", {}}}), "(no data)\n");
}

TEST(AsciiTest, MultipleSeriesGetDistinctGlyphs) {
  Series a = wave();
  Series b = wave();
  b.name = "other";
  for (auto& p : b.points) p.y += 0.5;
  const std::string out = render_ascii({a, b});
  EXPECT_NE(out.find("*=wave"), std::string::npos);
  EXPECT_NE(out.find("+=other"), std::string::npos);
}

TEST(AsciiTest, ZeroAxesDrawn) {
  const std::string out = render_ascii({wave()});
  EXPECT_NE(out.find("-"), std::string::npos);  // y = 0 line
}

TEST(AsciiTest, ConstantSeriesDoesNotDivideByZero) {
  Series flat{"flat", {{0.0, 1.0}, {1.0, 1.0}}};
  const std::string out = render_ascii({flat});
  EXPECT_NE(out.find("*"), std::string::npos);
}

TEST(SvgTest, WellFormedWithLegendAndRefLines) {
  SvgOptions opts;
  opts.title = "BCN <Phase>";
  opts.x_label = "x";
  opts.y_label = "y";
  opts.ref_lines.push_back({false, 0.5, "B-q0"});
  opts.ref_lines.push_back({true, 3.14, "switch"});
  const std::string svg = render_svg({wave()}, opts);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("BCN &lt;Phase&gt;"), std::string::npos);  // escaped
  EXPECT_NE(svg.find("B-q0"), std::string::npos);
  EXPECT_NE(svg.find("wave"), std::string::npos);
}

TEST(SvgTest, OutOfRangeRefLinesSkipped) {
  SvgOptions opts;
  opts.ref_lines.push_back({false, 99.0, "faraway"});
  const std::string svg = render_svg({wave()}, opts);
  EXPECT_EQ(svg.find("faraway"), std::string::npos);
}

TEST(SvgTest, WriteCreatesFile) {
  const auto dir = std::filesystem::temp_directory_path() / "bcn_svg_test";
  std::filesystem::remove_all(dir);
  const auto path = dir / "sub" / "plot.svg";
  ASSERT_TRUE(write_svg(path, {wave()}));
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bcn::plot
