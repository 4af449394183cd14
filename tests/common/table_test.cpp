#include "common/table.h"

#include <gtest/gtest.h>

namespace bcn {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name    v"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  // Underline spans the full width.
  EXPECT_NE(out.find("---------"), std::string::npos);
}

TEST(TablePrinterTest, TitleOnOwnLine) {
  TablePrinter t({"a"});
  t.add_row({"1"});
  const std::string out = t.to_string("My Title");
  EXPECT_EQ(out.rfind("My Title\n", 0), 0u);
}

TEST(TablePrinterTest, NumericFormatting) {
  EXPECT_EQ(TablePrinter::format(1.0, 6), "1");
  EXPECT_EQ(TablePrinter::format(1.25e7, 3), "1.25e+07");
}

}  // namespace
}  // namespace bcn
