#include "util/table.hpp"

#include <gtest/gtest.h>

namespace pfdrl::util {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "6"});
  t.add_row({"beta", "12"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("| 12"), std::string::npos);
}

TEST(TextTable, TitleIncluded) {
  TextTable t({"a"});
  const std::string out = t.render("My Title");
  EXPECT_EQ(out.rfind("My Title\n", 0), 0u);
}

TEST(TextTable, ColumnsAligned) {
  TextTable t({"x", "longer"});
  t.add_row({"aaaaaa", "1"});
  const std::string out = t.render();
  // Every line has the same length (alignment property).
  std::size_t prev = std::string::npos;
  std::size_t start = 0;
  while (start < out.size()) {
    const auto end = out.find('\n', start);
    const auto len = (end == std::string::npos ? out.size() : end) - start;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    if (end == std::string::npos) break;
    start = end + 1;
  }
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b"});
  t.add_row({"1"});
  EXPECT_NE(t.render().find("| 1"), std::string::npos);
}

TEST(Format, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Format, FmtPercent) {
  EXPECT_EQ(fmt_percent(0.921, 1), "92.1%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
  EXPECT_EQ(fmt_percent(0.005, 2), "0.50%");
}

}  // namespace
}  // namespace pfdrl::util
