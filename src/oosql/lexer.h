#ifndef N2J_OOSQL_LEXER_H_
#define N2J_OOSQL_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "oosql/token.h"

namespace n2j {

/// Tokenizes OOSQL source text. Comments run from "--" to end of line.
class Lexer {
 public:
  explicit Lexer(std::string source) : source_(std::move(source)) {}

  /// Tokenizes the whole input (the final token is kEof).
  Result<std::vector<Token>> Tokenize();

 private:
  /// Lexes the next token into `tok`, a fresh default Token.
  Status Next(Token* tok);
  char Peek(int ahead = 0) const;
  char Advance();
  bool AtEnd() const { return pos_ >= source_.size(); }
  void SkipWhitespaceAndComments();
  Status ErrorAt(int line, int col, const std::string& msg) const;

  std::string source_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace n2j

#endif  // N2J_OOSQL_LEXER_H_
