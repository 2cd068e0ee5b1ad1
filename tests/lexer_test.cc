#include "oosql/lexer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

namespace n2j {
namespace {

std::vector<Token> Lex(const std::string& text) {
  Lexer lexer(text);
  Result<std::vector<Token>> r = lexer.Tokenize();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<Token>{};
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  std::vector<Token> ts = Lex("SELECT from WhErE");
  ASSERT_EQ(ts.size(), 4u);  // + eof
  EXPECT_EQ(ts[0].kind, TokenKind::kSelect);
  EXPECT_EQ(ts[1].kind, TokenKind::kFrom);
  EXPECT_EQ(ts[2].kind, TokenKind::kWhere);
}

TEST(LexerTest, IdentifiersKeepCase) {
  std::vector<Token> ts = Lex("SUPPLIER sname s1");
  EXPECT_EQ(ts[0].kind, TokenKind::kIdent);
  EXPECT_EQ(ts[0].text, "SUPPLIER");
  EXPECT_EQ(ts[2].text, "s1");
}

TEST(LexerTest, NumbersAndStrings) {
  std::vector<Token> ts = Lex("940101 3.25 \"red\"");
  EXPECT_EQ(ts[0].kind, TokenKind::kInt);
  EXPECT_EQ(ts[0].int_value, 940101);
  EXPECT_EQ(ts[1].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(ts[1].double_value, 3.25);
  EXPECT_EQ(ts[2].kind, TokenKind::kString);
  EXPECT_EQ(ts[2].text, "red");
}

TEST(LexerTest, StringEscapes) {
  std::vector<Token> ts = Lex(R"("a\"b\n")");
  EXPECT_EQ(ts[0].text, "a\"b\n");
}

TEST(LexerTest, OperatorsAndPunctuation) {
  std::vector<Token> ts = Lex("( ) { } [ ] , . : ; = <> < <= > >= + - * / %");
  std::vector<TokenKind> expect = {
      TokenKind::kLParen, TokenKind::kRParen, TokenKind::kLBrace,
      TokenKind::kRBrace, TokenKind::kLBracket, TokenKind::kRBracket,
      TokenKind::kComma,  TokenKind::kDot,     TokenKind::kColon,
      TokenKind::kSemicolon, TokenKind::kEq,   TokenKind::kNe,
      TokenKind::kLt,     TokenKind::kLe,      TokenKind::kGt,
      TokenKind::kGe,     TokenKind::kPlus,    TokenKind::kDash,
      TokenKind::kStar,   TokenKind::kSlash,   TokenKind::kPercent,
      TokenKind::kEof};
  ASSERT_EQ(ts.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(ts[i].kind, expect[i]) << i;
  }
}

TEST(LexerTest, CommentsAreSkipped) {
  std::vector<Token> ts = Lex("select -- comment to end of line\n 1");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[1].kind, TokenKind::kInt);
}

TEST(LexerTest, LineAndColumnTracking) {
  std::vector<Token> ts = Lex("select\n  x");
  EXPECT_EQ(ts[0].line, 1);
  EXPECT_EQ(ts[1].line, 2);
  EXPECT_EQ(ts[1].column, 3);
}

TEST(LexerTest, Errors) {
  Lexer bad("select @");
  EXPECT_FALSE(bad.Tokenize().ok());
  Lexer unterminated("\"abc");
  EXPECT_FALSE(unterminated.Tokenize().ok());
}

TEST(LexerTest, SetComparisonKeywords) {
  std::vector<Token> ts =
      Lex("in contains subset subseteq supset supseteq union intersect minus");
  EXPECT_EQ(ts[0].kind, TokenKind::kIn);
  EXPECT_EQ(ts[1].kind, TokenKind::kContains);
  EXPECT_EQ(ts[2].kind, TokenKind::kSubset);
  EXPECT_EQ(ts[3].kind, TokenKind::kSubsetEq);
  EXPECT_EQ(ts[4].kind, TokenKind::kSupset);
  EXPECT_EQ(ts[5].kind, TokenKind::kSupsetEq);
  EXPECT_EQ(ts[6].kind, TokenKind::kUnion);
  EXPECT_EQ(ts[7].kind, TokenKind::kIntersect);
  EXPECT_EQ(ts[8].kind, TokenKind::kMinus);
}

TEST(LexerTest, MixedCaseKeywords) {
  std::vector<Token> ts = Lex("SeLeCt FROM wHeRe IsEmPtY SUPSETEQ Max");
  ASSERT_EQ(ts.size(), 7u);
  EXPECT_EQ(ts[0].kind, TokenKind::kSelect);
  EXPECT_EQ(ts[1].kind, TokenKind::kFrom);
  EXPECT_EQ(ts[2].kind, TokenKind::kWhere);
  EXPECT_EQ(ts[3].kind, TokenKind::kIsEmpty);
  EXPECT_EQ(ts[4].kind, TokenKind::kSupsetEq);
  EXPECT_EQ(ts[5].kind, TokenKind::kMax);
}

TEST(LexerTest, IdentifiersThatExtendOrPrefixAKeyword) {
  // A keyword must match the whole word: a longer or shorter word is an
  // identifier, and keeps its spelling.
  std::vector<Token> ts =
      Lex("selects in_x orx Min2 i sel _in exists_ supseteqs");
  const char* want[] = {"selects", "in_x", "orx", "Min2", "i",
                        "sel", "_in", "exists_", "supseteqs"};
  ASSERT_EQ(ts.size(), std::size(want) + 1);
  for (size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(ts[i].kind, TokenKind::kIdent) << want[i];
    EXPECT_EQ(ts[i].text, want[i]);
  }
}

TEST(LexerTest, IdentifiersLongerThanAnyKeyword) {
  std::string longest(64, 'x');
  std::vector<Token> ts = Lex("attributesx " + longest + " ATTRIBUTES");
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts[0].kind, TokenKind::kIdent);
  EXPECT_EQ(ts[0].text, "attributesx");
  EXPECT_EQ(ts[1].kind, TokenKind::kIdent);
  EXPECT_EQ(ts[1].text, longest);
  EXPECT_EQ(ts[2].kind, TokenKind::kAttributes);
}

TEST(LexerTest, BytesAbove0x7FOnlyInStringsAndComments) {
  // UTF-8 in a string literal or a comment is carried through.
  std::vector<Token> ts = Lex("\"caf\xc3\xa9\" -- \xe2\x88\x80 x\n 1");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].kind, TokenKind::kString);
  EXPECT_EQ(ts[0].text, "caf\xc3\xa9");
  EXPECT_EQ(ts[1].kind, TokenKind::kInt);
  // Anywhere else such a byte is an unexpected character, also right
  // after an identifier (it does not extend it).
  for (const char* text : {"select \xc3\xa9", "select x\xc3\xa9"}) {
    Lexer lexer(text);
    Result<std::vector<Token>> r = lexer.Tokenize();
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find("unexpected character"),
              std::string::npos)
        << r.status().ToString();
  }
  Lexer lexer("select x\xc3");
  EXPECT_NE(lexer.Tokenize().status().message().find("1:9:"),
            std::string::npos);
}

TEST(LexerTest, LineAndColumnOfEveryTokenKind) {
  std::vector<Token> ts = Lex(
      "SELECT (a = x.b, c = 3.5)  -- note\n"
      "\tfrom x in X where x.s <> \"t\\\"q\" and 12 >= -4\n"
      "\n"
      "  count");
  struct Want {
    TokenKind kind;
    int line, column;
  };
  const Want want[] = {
      {TokenKind::kSelect, 1, 1},   {TokenKind::kLParen, 1, 8},
      {TokenKind::kIdent, 1, 9},    {TokenKind::kEq, 1, 11},
      {TokenKind::kIdent, 1, 13},   {TokenKind::kDot, 1, 14},
      {TokenKind::kIdent, 1, 15},   {TokenKind::kComma, 1, 16},
      {TokenKind::kIdent, 1, 18},   {TokenKind::kEq, 1, 20},
      {TokenKind::kDouble, 1, 22},  {TokenKind::kRParen, 1, 25},
      {TokenKind::kFrom, 2, 2},     {TokenKind::kIdent, 2, 7},
      {TokenKind::kIn, 2, 9},       {TokenKind::kIdent, 2, 12},
      {TokenKind::kWhere, 2, 14},   {TokenKind::kIdent, 2, 20},
      {TokenKind::kDot, 2, 21},     {TokenKind::kIdent, 2, 22},
      {TokenKind::kNe, 2, 24},      {TokenKind::kString, 2, 27},
      {TokenKind::kAnd, 2, 34},     {TokenKind::kInt, 2, 38},
      {TokenKind::kGe, 2, 41},      {TokenKind::kDash, 2, 44},
      {TokenKind::kInt, 2, 45},     {TokenKind::kCount, 4, 3},
      {TokenKind::kEof, 4, 8},
  };
  ASSERT_EQ(ts.size(), std::size(want));
  for (size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(ts[i].kind, want[i].kind) << i;
    EXPECT_EQ(ts[i].line, want[i].line) << i;
    EXPECT_EQ(ts[i].column, want[i].column) << i;
  }
  EXPECT_EQ(ts[21].text, "t\"q");
}

}  // namespace
}  // namespace n2j
