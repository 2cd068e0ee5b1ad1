// Robustness: the front end must fail with a ParseError/TypeError Status
// — never crash, hang or abort — on malformed and adversarial input.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "oosql/lexer.h"
#include "oosql/parser.h"
#include "oosql/translate.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

TEST(ParserRobustnessTest, MalformedQueriesFailCleanly) {
  const char* kBad[] = {
      "",
      ";",
      "select",
      "select from",
      "select x from",
      "select x from x",
      "select x from x in",
      "select x from x in X where",
      "select x from x in X where x.",
      "select x from x in X where x.a =",
      "select x from x in X where (x.a = 1",
      "select x from x in X where x.a = 1)",
      "select x from x in X with",
      "select x from x in X with Y",
      "select x from x in X with Y =",
      "select (a = from x in X",
      "select {1, from x in X",
      "select x[ from x in X",
      "select x from x in X where exists",
      "select x from x in X where exists y",
      "select x from x in X where exists y in",
      "select x from x in X where count(",
      "select x from x in X where x.a in {1, }",
      "not not not",
      "x.a = 1",  // no select — a bare expression is fine to parse...
  };
  for (const char* text : kBad) {
    Result<QExprPtr> r = Parser::ParseQueryString(text);
    // The last entry actually parses (queries are arbitrary expressions);
    // everything else must fail with a ParseError.
    if (std::string(text) == "x.a = 1") {
      EXPECT_TRUE(r.ok()) << text;
    } else {
      ASSERT_FALSE(r.ok()) << "unexpectedly parsed: " << text;
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
    }
  }
}

TEST(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  // Strings assembled from valid tokens in random order: the parser must
  // terminate with OK or ParseError on every one of them.
  const char* kTokens[] = {
      "select", "from",  "where", "in",     "and",   "or",    "not",
      "exists", "forall", "count", "(",     ")",     "{",     "}",
      "[",      "]",      ",",     ".",     ":",     "=",     "<>",
      "<",      ">",      "x",     "y",     "X",     "Y",     "1",
      "2",      "\"s\"", "subseteq", "union", "with", "true", "isempty",
  };
  Rng rng(2024);
  int parsed_ok = 0;
  for (int round = 0; round < 500; ++round) {
    std::string text;
    int len = static_cast<int>(rng.Uniform(1, 14));
    for (int i = 0; i < len; ++i) {
      text += kTokens[rng.Uniform(0, std::size(kTokens) - 1)];
      text += " ";
    }
    Result<QExprPtr> r = Parser::ParseQueryString(text);
    if (r.ok()) ++parsed_ok;
    // No crash = pass; also check errors carry positions.
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
      EXPECT_FALSE(r.status().message().empty());
    }
  }
  // A few random soups are valid expressions — sanity that the generator
  // is not trivially rejecting everything.
  EXPECT_GT(parsed_ok, 0);
}

TEST(ParserRobustnessTest, DeeplyNestedInputTerminates) {
  // 200 levels of parentheses and of nested selects.
  std::string parens(200, '(');
  parens += "1";
  parens += std::string(200, ')');
  EXPECT_TRUE(Parser::ParseQueryString(parens).ok());

  std::string nested = "1";
  for (int i = 0; i < 60; ++i) {
    nested = "select " + nested + " from v" + std::to_string(i) + " in X";
  }
  Result<QExprPtr> r = Parser::ParseQueryString(nested);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

// WHERE clause of a query over PART, nested `depth` levels deep in one of
// four ways.
std::string ParenQuery(int depth) {
  return "select p.pname from p in PART where " + Repeat("(", depth) +
         "p.price > 0" + Repeat(")", depth);
}
std::string PlusChainQuery(int terms) {
  return "select p.pname from p in PART where p.price" +
         Repeat(" + 1", terms - 1) + " > 0";
}
std::string NotQuery(int depth) {
  return "select p.pname from p in PART where " + Repeat("not ", depth) +
         "p.price > 0";
}
std::string NestedSelectQuery(int depth) {
  std::string q = "p.pname";
  for (int i = 0; i < depth; ++i) {
    q = "select " + q + " from v" + std::to_string(i) + " in {1}";
  }
  return "select " + q + " from p in PART";
}

// Each of these used to overflow the stack (the process died with
// SIGSEGV) in the parser or a later recursive pass, at least in a
// sanitizer build. Past Parser::kMaxQueryDepth they now fail with a
// clean ParseError.
TEST(ParserRobustnessTest, TooDeepQueriesFailWithParseError) {
  auto db = testutil::SmallSupplierDb();
  QueryEngine engine(db.get());
  const std::string kTooDeep[] = {
      ParenQuery(3000),
      PlusChainQuery(10000),
      NotQuery(3000),
      NestedSelectQuery(600),
  };
  for (const std::string& text : kTooDeep) {
    Result<QueryReport> r = engine.Run(text);
    ASSERT_FALSE(r.ok()) << text.substr(0, 80);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find(
                  "nesting deeper than " +
                  std::to_string(Parser::kMaxQueryDepth) + " levels"),
              std::string::npos)
        << r.status().ToString();
  }
}

// The limit is not a tighter bound on ordinary queries: nesting just
// under it parses, translates, rewrites and runs.
TEST(ParserRobustnessTest, QueriesJustUnderTheDepthLimitRun) {
  auto db = testutil::SmallSupplierDb();
  QueryEngine engine(db.get());
  const int kUnder = Parser::kMaxQueryDepth - 12;
  const std::string kDeep[] = {
      ParenQuery(kUnder),
      PlusChainQuery(kUnder),
      NotQuery(kUnder),
      NestedSelectQuery(kUnder),
  };
  for (const std::string& text : kDeep) {
    Result<QueryReport> r = engine.Run(text);
    ASSERT_TRUE(r.ok()) << text.substr(0, 80) << "\n"
                        << r.status().ToString();
    EXPECT_TRUE(r->result.is_set());
  }
}

TEST(ParserRobustnessTest, TranslatorRejectsParsedNonsense) {
  // Things that parse but cannot type-check must fail as TypeError.
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(AddRandomXY(db.get(), XYConfig()).ok());
  Translator tr(db->schema(), db.get());
  const char* kIllTyped[] = {
      "select x from x in X where x.c + 1 = 2",
      "select x from x in X where x.a and true",
      "select x from x in X where exists y in x.a : true",
      "select x.a.b from x in X",
      "select x from x in 1 + 2",
      "select sum(x.c) from x in X",
  };
  for (const char* text : kIllTyped) {
    Result<TypedExpr> r = tr.TranslateString(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << text;
  }
}

TEST(ParserRobustnessTest, LexerHandlesEdgeCases) {
  // Long identifiers, adjacent operators, CRLF, tabs.
  std::string long_ident(5000, 'a');
  Lexer l1("select " + long_ident + " from x in X");
  EXPECT_TRUE(l1.Tokenize().ok());
  Lexer l2("a<=>=<>b");
  Result<std::vector<Token>> t2 = l2.Tokenize();
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ((*t2)[1].kind, TokenKind::kLe);
  EXPECT_EQ((*t2)[2].kind, TokenKind::kGe);
  EXPECT_EQ((*t2)[3].kind, TokenKind::kNe);
  Lexer l3("select\r\n\tx from x in X");
  EXPECT_TRUE(l3.Tokenize().ok());
}

}  // namespace
}  // namespace n2j
