#include "util/lexer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

namespace cohls::lex {
namespace {

TEST(Lexer, LinesSkipBlanksAndCommentsAndCountFromOne) {
  Lines lines("# header\n\n  a b # tail\r\n\t\r\nlast");
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.number(), 3);
  EXPECT_EQ(lines.text(), "  a b ");
  ASSERT_TRUE(lines.next());
  EXPECT_EQ(lines.number(), 5);
  EXPECT_EQ(lines.text(), "last");
  EXPECT_FALSE(lines.next());
}

TEST(Lexer, CrIsWhitespace) {
  EXPECT_EQ(trim(" \tword\r"), "word");
  Cursor cursor("key=7\r");
  EXPECT_EQ(cursor.word(), "key");
  cursor.expect('=');
  EXPECT_EQ(to_int<std::int32_t>(cursor.word()), 7);
  EXPECT_TRUE(cursor.at_end());
}

TEST(Lexer, CursorReadsWordsStringsAndLists) {
  Cursor cursor(R"(  op "a name" accessories = {pump; cell trap } tail)");
  EXPECT_EQ(cursor.column(), 3);
  EXPECT_EQ(cursor.word(), "op");
  EXPECT_EQ(cursor.quoted(), "a name");
  EXPECT_EQ(cursor.word(), "accessories");
  cursor.expect('=');
  const List list = cursor.list();
  EXPECT_EQ(std::vector<std::string_view>(list.begin(), list.end()),
            (std::vector<std::string_view>{"pump", "cell trap"}));
  EXPECT_EQ(cursor.word(), "tail");
  EXPECT_TRUE(cursor.at_end());
  EXPECT_THROW((void)cursor.word(), Error);
}

TEST(Lexer, CursorRejectsMalformedTokens) {
  EXPECT_THROW((void)Cursor("\"open").quoted(), Error);
  EXPECT_THROW((void)Cursor("bare").quoted(), Error);
  EXPECT_THROW((void)Cursor("{a; b").list(), Error);
  EXPECT_THROW((void)Cursor("{a;; b}").list(), Error);
  EXPECT_THROW((void)Cursor("{}").list(), Error);
  EXPECT_THROW(Cursor("x").expect('='), Error);
}

/// The column a Cursor error names, or 0 when `read` does not throw.
template <class Read>
int error_column(std::string_view line, Read read) {
  Cursor cursor(line);
  try {
    read(cursor);
  } catch (const Error& e) {
    return e.column();
  }
  return 0;
}

TEST(Lexer, CursorErrorsNameTheColumnOfTheBadToken) {
  // A word where the line has ended.
  EXPECT_EQ(error_column("key  ", [](Cursor& c) { (void)c.word(), (void)c.word(); }), 6);
  // A number, alone or in a comma run, and a malformed list item.
  EXPECT_EQ(error_column("a  12x", [](Cursor& c) { (void)c.word(), (void)c.integer<int>(); }),
            4);
  EXPECT_EQ(error_column("cost=inf", [](Cursor& c) {
              (void)c.word();
              c.expect('=');
              (void)c.real();
            }),
            6);
  EXPECT_EQ(error_column("  {a;  ; b}", [](Cursor& c) { (void)c.list(); }), 6);
  EXPECT_EQ(error_column("{a", [](Cursor& c) { (void)c.list(); }), 3);
  EXPECT_EQ(error_column(" x", [](Cursor& c) { c.expect('='); }), 2);
  EXPECT_EQ(error_column("x \"open", [](Cursor& c) { (void)c.word(), (void)c.quoted(); }), 3);
  // Without a cursor, a token has no column.
  try {
    (void)to_int<std::int32_t>("x");
    ADD_FAILURE();
  } catch (const Error& e) {
    EXPECT_EQ(e.column(), 0);
  }
  Cursor cursor("ab cd");
  (void)cursor.word();
  EXPECT_EQ(cursor.column_of(cursor.word()), 4);
}

TEST(Lexer, ListsAreViewsOverTheLine) {
  const std::string_view line = "{ a ;b;  c d }";
  Cursor cursor(line);
  const List list = cursor.list();
  std::vector<std::string_view> items(list.begin(), list.end());
  ASSERT_EQ(items, (std::vector<std::string_view>{"a", "b", "c d"}));
  for (const std::string_view item : items) {
    EXPECT_GE(item.data(), line.data());
    EXPECT_LE(item.data() + item.size(), line.data() + line.size());
  }
  EXPECT_TRUE(cursor.at_end());
  EXPECT_EQ(std::distance(list.begin(), list.end()), 3);
}

TEST(Lexer, IntegersAreWholeDecimalTokensOfTheCallersType) {
  EXPECT_EQ(to_int<std::int32_t>("-2147483648"), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(to_int<std::int32_t>("2147483647"), std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(to_int<std::int64_t>("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(to_int<std::int32_t>("-0"), 0);
  for (const char* bad : {"", "+5", "0x10", "12x", " 1", "1 ", "1.0", "--1", "abc"}) {
    EXPECT_THROW((void)to_int<std::int32_t>(bad), Error) << bad;
  }
  for (const char* big : {"2147483648", "-2147483649", "9223372036854775807"}) {
    try {
      (void)to_int<std::int32_t>(big);
      ADD_FAILURE() << big;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW((void)to_int<std::int64_t>("9223372036854775808"), Error);
}

TEST(Lexer, RealsAreFinite) {
  EXPECT_EQ(to_double("2.5"), 2.5);
  EXPECT_EQ(to_double("-1e3"), -1000.0);
  EXPECT_EQ(to_double("7"), 7.0);
  EXPECT_TRUE(std::signbit(to_double("-0")));
  for (const char* bad :
       {"", "+2.5", "0x1p3", "inf", "-inf", "nan", "infinity", "1e309", "2.5x", "1e"}) {
    EXPECT_THROW((void)to_double(bad), Error) << bad;
  }
}

TEST(Lexer, RealsRoundTripBitForBit) {
  for (const double value :
       {0.1234567, 1.2345678, 0.1, 1.0 / 3.0, 3.5, 1e300, 5e-324, -0.0, 100000.0,
        std::numeric_limits<double>::max(), std::numeric_limits<double>::min()}) {
    const std::string text = format_double(value);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(to_double(text)),
              std::bit_cast<std::uint64_t>(value))
        << text;
  }
  EXPECT_EQ(format_double(3.5), "3.5");
  EXPECT_EQ(format_double(0.1234567), "0.1234567");
}

}  // namespace
}  // namespace cohls::lex
