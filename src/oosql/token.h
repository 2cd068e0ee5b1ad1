#ifndef N2J_OOSQL_TOKEN_H_
#define N2J_OOSQL_TOKEN_H_

#include <cstdint>
#include <string>

namespace n2j {

/// Token kinds of the OOSQL surface language. Keywords are matched
/// case-insensitively; identifiers are case-sensitive.
enum class TokenKind : uint8_t {
  kEof,
  kIdent,
  kInt,
  kDouble,
  kString,
  // Keywords.
  kSelect, kFrom, kWhere, kIn, kAnd, kOr, kNot, kExists, kForall,
  kTrue, kFalse, kUnion, kIntersect, kMinus, kContains, kSubset,
  kSubsetEq, kSupset, kSupsetEq, kCount, kSum, kAvg, kMin, kMax,
  kClass, kWith, kExtension, kAttributes, kEnd, kOid, kIsEmpty,
  // (kWith doubles as the query-level `with` construct keyword.)
  // Punctuation / operators.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kComma, kDot, kColon, kSemicolon,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kPlus, kDash, kStar, kSlash, kPercent,
};

/// Token name for diagnostics ("'select'", "identifier", ...).
const char* TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;      // identifier / string contents / raw number text;
                         // empty for keywords and punctuation
  int64_t int_value = 0;
  double double_value = 0.0;
  int line = 1;
  int column = 1;

  std::string Describe() const;
};

}  // namespace n2j

#endif  // N2J_OOSQL_TOKEN_H_
