#include "pdcu/support/strings.hpp"

#include <gtest/gtest.h>

namespace strs = pdcu::strings;

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(strs::trim("  hello  "), "hello");
  EXPECT_EQ(strs::trim("\t\r\n x \n"), "x");
  EXPECT_EQ(strs::trim(""), "");
  EXPECT_EQ(strs::trim("   "), "");
  EXPECT_EQ(strs::trim("no-trim"), "no-trim");
}

TEST(Strings, TrimLeftAndRightAreOneSided) {
  EXPECT_EQ(strs::trim_left("  a  "), "a  ");
  EXPECT_EQ(strs::trim_right("  a  "), "  a");
}

TEST(Strings, SplitOnCharPreservesEmptyFields) {
  auto parts = strs::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitOnStringSeparator) {
  auto parts = strs::split("x::y::z", "::");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "y");
}

TEST(Strings, SplitLinesHandlesCrlfAndFinalNewline) {
  auto lines = strs::split_lines("a\r\nb\nc\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(Strings, SplitLinesWithoutTrailingNewline) {
  auto lines = strs::split_lines("a\nb");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "b");
}

TEST(Strings, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"one", "two", "three"};
  EXPECT_EQ(strs::join(parts, ", "), "one, two, three");
  EXPECT_EQ(strs::split(strs::join(parts, "|"), '|'), parts);
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(strs::starts_with("TCPP_Algorithms", "TCPP_"));
  EXPECT_FALSE(strs::starts_with("TC", "TCPP_"));
  EXPECT_TRUE(strs::ends_with("example.md", ".md"));
  EXPECT_FALSE(strs::ends_with("md", ".md"));
  EXPECT_TRUE(strs::contains("abcdef", "cde"));
  EXPECT_FALSE(strs::contains("abcdef", "gh"));
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(strs::to_lower("CS2013"), "cs2013");
  EXPECT_EQ(strs::to_upper("tcpp"), "TCPP");
}

TEST(Strings, ReplaceAllReplacesEveryOccurrence) {
  EXPECT_EQ(strs::replace_all("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(strs::replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(strs::replace_all("abc", "", "x"), "abc");
}

TEST(Strings, PadAlignsToWidth) {
  EXPECT_EQ(strs::pad_right("ab", 5), "ab   ");
  EXPECT_EQ(strs::pad_left("ab", 5), "   ab");
  EXPECT_EQ(strs::pad_right("abcdef", 3), "abcdef");
}

TEST(Strings, WordWrapBreaksAtWidth) {
  auto lines = strs::word_wrap("one two three four", 9);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one two");
  EXPECT_EQ(lines[1], "three");
  EXPECT_EQ(lines[2], "four");
}

TEST(Strings, WordWrapKeepsLongWordsWhole) {
  auto lines = strs::word_wrap("supercalifragilistic a", 5);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "supercalifragilistic");
}

TEST(Strings, WordWrapEmptyGivesOneEmptyLine) {
  auto lines = strs::word_wrap("", 10);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "");
}

TEST(Strings, HtmlEscape) {
  EXPECT_EQ(strs::html_escape("a < b & c > \"d\""),
            "a &lt; b &amp; c &gt; &quot;d&quot;");
}

namespace {
std::string json_escaped(std::string_view s) {
  std::string out;
  strs::json_escape_append(s, out);
  return out;
}
}  // namespace

TEST(JsonEscape, QuotesBackslashesAndControls) {
  EXPECT_EQ(json_escaped("plain"), "plain");
  EXPECT_EQ(json_escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escaped("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escaped(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escaped(std::string("\0x", 2)), "\\u0000x");
  EXPECT_EQ(json_escaped(""), "");
  // Appends after what is there; DEL and bytes above 0x7f pass verbatim.
  std::string out = "{\"k\":\"";
  strs::json_escape_append(std::string("\r\x1f\x7f\xc3\xa9", 5), out);
  EXPECT_EQ(out, "{\"k\":\"\\r\\u001f\x7f\xc3\xa9");
}

TEST(Strings, PercentMatchesPaperFormatting) {
  // The exact strings from the paper's Table I/II (rounded cells).
  EXPECT_EQ(strs::percent(2, 3), "66.67%");
  EXPECT_EQ(strs::percent(5, 6), "83.33%");
  EXPECT_EQ(strs::percent(7, 8), "87.50%");
  EXPECT_EQ(strs::percent(6, 7), "85.71%");
  EXPECT_EQ(strs::percent(1, 9), "11.11%");
  EXPECT_EQ(strs::percent(10, 22), "45.45%");
  EXPECT_EQ(strs::percent(19, 37), "51.35%");
  EXPECT_EQ(strs::percent(7, 12), "58.33%");
  EXPECT_EQ(strs::percent(27, 38), "71.05%");
  EXPECT_EQ(strs::percent(10, 38), "26.32%");
  EXPECT_EQ(strs::percent(0, 0), "0.00%");
}

TEST(Strings, RepeatConcatenates) {
  EXPECT_EQ(strs::repeat("ab", 3), "ababab");
  EXPECT_EQ(strs::repeat("x", 0), "");
}
