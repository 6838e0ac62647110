#include "util/strings.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace sega {
namespace {

TEST(StringsTest, Strfmt) {
  EXPECT_EQ(strfmt("x=%d y=%s", 3, "ok"), "x=3 y=ok");
  EXPECT_EQ(strfmt("%.2f", 1.2345), "1.23");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(StringsTest, SiFormatPicksPrefix) {
  EXPECT_EQ(si_format(1.25e-9, "s", 2), "1.25 ns");
  EXPECT_EQ(si_format(2.5e12, "OPS", 1), "2.5 TOPS");
  EXPECT_EQ(si_format(0.079e-6, "m^2", 0), "79 nm^2");
  EXPECT_EQ(si_format(3.0, "V", 0), "3 V");
}

TEST(StringsTest, SiFormatZeroAndNegative) {
  EXPECT_EQ(si_format(0.0, "J"), "0 J");
  EXPECT_EQ(si_format(-2.2e-3, "A", 1), "-2.2 mA");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, VerilogIdentifierValidation) {
  EXPECT_TRUE(is_verilog_identifier("adder_tree_8"));
  EXPECT_TRUE(is_verilog_identifier("_x$y"));
  EXPECT_FALSE(is_verilog_identifier(""));
  EXPECT_FALSE(is_verilog_identifier("2fast"));
  EXPECT_FALSE(is_verilog_identifier("has space"));
  EXPECT_FALSE(is_verilog_identifier("dash-ed"));
}

TEST(StringsTest, VerilogIdentifierMangling) {
  EXPECT_EQ(to_verilog_identifier("adder tree"), "adder_tree");
  EXPECT_EQ(to_verilog_identifier("8wide"), "_8wide");
  EXPECT_EQ(to_verilog_identifier(""), "_");
  EXPECT_TRUE(is_verilog_identifier(to_verilog_identifier("a-b.c/d")));
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(to_upper("bf16"), "BF16");
  EXPECT_EQ(to_lower("INT8"), "int8");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(split("a,,c", ',')[1], "");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("x", ',')[0], "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("INT8", "INT"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_FALSE(starts_with("IN", "INT"));
}

TEST(StringsTest, ParseNumberStrictAcceptsWholeDecimalNumbers) {
  int i = 0;
  EXPECT_TRUE(parse_number_strict("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(parse_number_strict("-7", &i));
  EXPECT_EQ(i, -7);
  std::int64_t ll = 0;
  EXPECT_TRUE(parse_number_strict("9007199254740993", &ll));
  EXPECT_EQ(ll, 9007199254740993);
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_number_strict("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ull);
  double d = 0;
  EXPECT_TRUE(parse_number_strict("0.25", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(parse_number_strict("-1.5e-3", &d));
  EXPECT_EQ(d, -1.5e-3);
  EXPECT_TRUE(parse_number_strict(".5", &d));
  EXPECT_EQ(d, 0.5);
}

TEST(StringsTest, ParseNumberStrictRejectsEverythingElse) {
  // Each rejection leaves the output untouched.
  for (const char* text : {"", " 1", "1 ", "+1", "1x", "2e3", "1.0", "0x10",
                           "2147483648", "-", "nan"}) {
    int i = 17;
    EXPECT_FALSE(parse_number_strict(text, &i)) << "'" << text << "'";
    EXPECT_EQ(i, 17) << text;
  }
  for (const char* text : {"-1", "18446744073709551616", "1e3"}) {
    std::uint64_t u = 17;
    EXPECT_FALSE(parse_number_strict(text, &u)) << text;
    EXPECT_EQ(u, 17u) << text;
  }
  for (const char* text :
       {"", "nan", "-nan", "inf", "-inf", "infinity", "0x0.8", "0x1p-2",
        "0.5zz", "1e", "1e999", "-1e999", "1e-400", "+0.5", " 0.5", "0.5\n",
        "1,5"}) {
    double d = 17;
    EXPECT_FALSE(parse_number_strict(text, &d)) << "'" << text << "'";
    EXPECT_EQ(d, 17) << text;
  }
}

}  // namespace
}  // namespace sega
