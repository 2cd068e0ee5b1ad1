#include "oosql/lexer.h"

#include <cstdlib>
#include <string_view>

#include "common/str_util.h"

namespace n2j {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "end of input";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kInt: return "integer literal";
    case TokenKind::kDouble: return "double literal";
    case TokenKind::kString: return "string literal";
    case TokenKind::kSelect: return "'select'";
    case TokenKind::kFrom: return "'from'";
    case TokenKind::kWhere: return "'where'";
    case TokenKind::kIn: return "'in'";
    case TokenKind::kAnd: return "'and'";
    case TokenKind::kOr: return "'or'";
    case TokenKind::kNot: return "'not'";
    case TokenKind::kExists: return "'exists'";
    case TokenKind::kForall: return "'forall'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kUnion: return "'union'";
    case TokenKind::kIntersect: return "'intersect'";
    case TokenKind::kMinus: return "'minus'";
    case TokenKind::kContains: return "'contains'";
    case TokenKind::kSubset: return "'subset'";
    case TokenKind::kSubsetEq: return "'subseteq'";
    case TokenKind::kSupset: return "'supset'";
    case TokenKind::kSupsetEq: return "'supseteq'";
    case TokenKind::kCount: return "'count'";
    case TokenKind::kSum: return "'sum'";
    case TokenKind::kAvg: return "'avg'";
    case TokenKind::kMin: return "'min'";
    case TokenKind::kMax: return "'max'";
    case TokenKind::kClass: return "'class'";
    case TokenKind::kWith: return "'with'";
    case TokenKind::kExtension: return "'extension'";
    case TokenKind::kAttributes: return "'attributes'";
    case TokenKind::kEnd: return "'end'";
    case TokenKind::kOid: return "'oid'";
    case TokenKind::kIsEmpty: return "'isempty'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNe: return "'<>'";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kDash: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
  }
  return "?";
}

std::string Token::Describe() const {
  if (kind == TokenKind::kIdent) return "identifier '" + text + "'";
  if (kind == TokenKind::kString) return "string \"" + text + "\"";
  if (kind == TokenKind::kInt || kind == TokenKind::kDouble) {
    return "number '" + text + "'";
  }
  return TokenKindName(kind);
}

namespace {

struct Keyword {
  std::string_view lower;
  TokenKind kind;
};

constexpr Keyword kKeywords[] = {
    {"select", TokenKind::kSelect},
    {"from", TokenKind::kFrom},
    {"where", TokenKind::kWhere},
    {"in", TokenKind::kIn},
    {"and", TokenKind::kAnd},
    {"or", TokenKind::kOr},
    {"not", TokenKind::kNot},
    {"exists", TokenKind::kExists},
    {"forall", TokenKind::kForall},
    {"true", TokenKind::kTrue},
    {"false", TokenKind::kFalse},
    {"union", TokenKind::kUnion},
    {"intersect", TokenKind::kIntersect},
    {"minus", TokenKind::kMinus},
    {"contains", TokenKind::kContains},
    {"subset", TokenKind::kSubset},
    {"subseteq", TokenKind::kSubsetEq},
    {"supset", TokenKind::kSupset},
    {"supseteq", TokenKind::kSupsetEq},
    {"count", TokenKind::kCount},
    {"sum", TokenKind::kSum},
    {"avg", TokenKind::kAvg},
    {"min", TokenKind::kMin},
    {"max", TokenKind::kMax},
    {"class", TokenKind::kClass},
    {"with", TokenKind::kWith},
    {"extension", TokenKind::kExtension},
    {"attributes", TokenKind::kAttributes},
    {"end", TokenKind::kEnd},
    {"oid", TokenKind::kOid},
    {"isempty", TokenKind::kIsEmpty},
};

// ASCII classes: identifiers, numbers and whitespace are ASCII-only
// (bytes >= 0x80 are unexpected characters), independent of the locale.
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// The keyword `word` spells in any letter case, or kIdent.
TokenKind KeywordKind(std::string_view word) {
  for (const Keyword& k : kKeywords) {
    if (k.lower.size() != word.size()) continue;
    bool equal = true;
    for (size_t i = 0; i < word.size() && equal; ++i) {
      char c = word[i];
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      equal = c == k.lower[i];
    }
    if (equal) return k.kind;
  }
  return TokenKind::kIdent;
}

}  // namespace

char Lexer::Peek(int ahead) const {
  size_t p = pos_ + static_cast<size_t>(ahead);
  return p < source_.size() ? source_[p] : '\0';
}

char Lexer::Advance() {
  char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = Peek();
    if (IsSpace(c)) {
      Advance();
    } else if (c == '-' && Peek(1) == '-') {
      while (!AtEnd() && Peek() != '\n') Advance();
    } else {
      break;
    }
  }
}

Status Lexer::ErrorAt(int line, int col, const std::string& msg) const {
  return Status::ParseError(
      StrFormat("%d:%d: %s", line, col, msg.c_str()));
}

Status Lexer::Next(Token* tok) {
  SkipWhitespaceAndComments();
  tok->line = line_;
  tok->column = column_;
  if (AtEnd()) {
    tok->kind = TokenKind::kEof;
    return Status::OK();
  }
  const size_t start = pos_;
  char c = Advance();

  // Identifiers and keywords: the word is matched in place, and only an
  // identifier copies its text.
  if (IsAlpha(c) || c == '_') {
    while (!AtEnd() && IsIdentChar(Peek())) Advance();
    std::string_view word(source_.data() + start, pos_ - start);
    tok->kind = KeywordKind(word);
    if (tok->kind == TokenKind::kIdent) tok->text = word;
    return Status::OK();
  }

  // Numbers.
  if (IsDigit(c)) {
    while (!AtEnd() && IsDigit(Peek())) Advance();
    bool is_double = false;
    if (Peek() == '.' && IsDigit(Peek(1))) {
      is_double = true;
      Advance();
      while (!AtEnd() && IsDigit(Peek())) Advance();
    }
    tok->text.assign(source_, start, pos_ - start);
    if (is_double) {
      tok->kind = TokenKind::kDouble;
      tok->double_value = std::strtod(tok->text.c_str(), nullptr);
    } else {
      tok->kind = TokenKind::kInt;
      tok->int_value = std::strtoll(tok->text.c_str(), nullptr, 10);
    }
    return Status::OK();
  }

  // Strings.
  if (c == '"') {
    std::string& text = tok->text;
    while (!AtEnd() && Peek() != '"') {
      char ch = Advance();
      if (ch == '\\' && !AtEnd()) {
        char esc = Advance();
        switch (esc) {
          case 'n': text.push_back('\n'); break;
          case 't': text.push_back('\t'); break;
          case '"': text.push_back('"'); break;
          case '\\': text.push_back('\\'); break;
          default:
            return ErrorAt(tok->line, tok->column,
                           StrFormat("bad escape '\\%c'", esc));
        }
      } else {
        text.push_back(ch);
      }
    }
    if (AtEnd()) {
      return ErrorAt(tok->line, tok->column, "unterminated string literal");
    }
    Advance();  // closing quote
    tok->kind = TokenKind::kString;
    return Status::OK();
  }

  switch (c) {
    case '(': tok->kind = TokenKind::kLParen; return Status::OK();
    case ')': tok->kind = TokenKind::kRParen; return Status::OK();
    case '{': tok->kind = TokenKind::kLBrace; return Status::OK();
    case '}': tok->kind = TokenKind::kRBrace; return Status::OK();
    case '[': tok->kind = TokenKind::kLBracket; return Status::OK();
    case ']': tok->kind = TokenKind::kRBracket; return Status::OK();
    case ',': tok->kind = TokenKind::kComma; return Status::OK();
    case '.': tok->kind = TokenKind::kDot; return Status::OK();
    case ':': tok->kind = TokenKind::kColon; return Status::OK();
    case ';': tok->kind = TokenKind::kSemicolon; return Status::OK();
    case '=': tok->kind = TokenKind::kEq; return Status::OK();
    case '+': tok->kind = TokenKind::kPlus; return Status::OK();
    case '-': tok->kind = TokenKind::kDash; return Status::OK();
    case '*': tok->kind = TokenKind::kStar; return Status::OK();
    case '/': tok->kind = TokenKind::kSlash; return Status::OK();
    case '%': tok->kind = TokenKind::kPercent; return Status::OK();
    case '<':
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kLe;
      } else if (Peek() == '>') {
        Advance();
        tok->kind = TokenKind::kNe;
      } else {
        tok->kind = TokenKind::kLt;
      }
      return Status::OK();
    case '>':
      if (Peek() == '=') {
        Advance();
        tok->kind = TokenKind::kGe;
      } else {
        tok->kind = TokenKind::kGt;
      }
      return Status::OK();
    default:
      return ErrorAt(tok->line, tok->column,
                     StrFormat("unexpected character '%c'", c));
  }
}

Result<std::vector<Token>> Lexer::Tokenize() {
  std::vector<Token> out;
  // About one token per three bytes of query text.
  out.reserve(source_.size() / 3 + 1);
  for (;;) {
    Token& tok = out.emplace_back();
    N2J_RETURN_IF_ERROR(Next(&tok));
    if (tok.kind == TokenKind::kEof) return out;
  }
}

}  // namespace n2j
