// Tests for the benches' text-table printer (table.hpp).
#include "table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pup {
namespace {

TEST(Table, RendersAlignedColumns) {
  TextTable t("demo");
  t.header({"a", "long-name", "c"});
  t.row({"1", "2", "3"});
  t.row({"10", "20", "30"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("## demo"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("30"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t("demo");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), ContractError);
}

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(static_cast<long long>(42)), "42");
}

}  // namespace
}  // namespace pup
