#include <gtest/gtest.h>

#include <sstream>

#include "support/stats.hh"
#include "support/string_utils.hh"

namespace predilp
{
namespace
{

TEST(StringUtils, Padding)
{
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("abcdef", 3), "abcdef");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(StringUtils, FormatFixed)
{
    EXPECT_EQ(formatFixed(1.234567, 2), "1.23");
    EXPECT_EQ(formatFixed(2.0, 1), "2.0");
    EXPECT_EQ(formatFixed(-0.5, 2), "-0.50");
}

TEST(StringUtils, FormatCountMatchesPaperStyle)
{
    // The paper prints 1526K, 11225M, etc.
    EXPECT_EQ(formatCount(1526000), "1526K");
    EXPECT_EQ(formatCount(11225000000ull), "11225M");
    EXPECT_EQ(formatCount(9999), "9999");
    EXPECT_EQ(formatCount(10000), "10K");
    EXPECT_EQ(formatCount(489000000), "489M");
}

TEST(StringUtils, JoinAndSplit)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
}

TEST(StringUtils, StartsWith)
{
    EXPECT_TRUE(startsWith("pred_eq", "pred"));
    EXPECT_FALSE(startsWith("pre", "pred"));
}

TEST(Stats, TextTableAligns)
{
    TextTable table;
    table.setHeader({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream os;
    table.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Numbers are right-aligned in their column.
    EXPECT_NE(out.find(" 1"), std::string::npos);
}

TEST(Stats, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

} // namespace
} // namespace predilp
