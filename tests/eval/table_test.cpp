#include "eval/table.hpp"

#include <gtest/gtest.h>

namespace nd::eval {
namespace {

TEST(TextTable, RendersAligned) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "10000"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("|-------|-------|"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TextTable, EmptyTableStillRendersHeader) {
  TextTable table({"x"});
  EXPECT_NE(table.to_string().find("| x |"), std::string::npos);
}

}  // namespace
}  // namespace nd::eval
