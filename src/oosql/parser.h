#ifndef N2J_OOSQL_PARSER_H_
#define N2J_OOSQL_PARSER_H_

#include <string>
#include <vector>

#include "adl/schema.h"
#include "common/result.h"
#include "oosql/ast.h"
#include "oosql/token.h"

namespace n2j {

/// Recursive-descent parser for OOSQL queries and the paper's class
/// definition language:
///
///   select <expr> from <v> in <expr> (, <v> in <expr>)*
///     [where <expr>] [with <name> = <expr> (, <name> = <expr>)*]
///
/// The `with` construct (the paper's local-definition notation) is
/// macro-expanded into the block at parse time.
///
///   class Part with extension PART [oid pid]
///     attributes pname : string, price : int, color : string
///   end [Part]
///
/// The expression grammar (loosest to tightest): or, and, not,
/// comparison (=, <>, <, <=, >, >=, in, contains, subset[eq],
/// supset[eq]), additive (+, -, union, minus), multiplicative
/// (*, /, %, intersect), unary minus, postfix (.field, [a, b]
/// tuple projection), primary (literals, tuple/set constructors,
/// quantifiers, aggregates, select blocks, parenthesized expressions).
class Parser {
 public:
  /// Deepest query nesting accepted. It bounds both the parser's own
  /// recursion (parentheses, sub-selects, quantifiers, `not`, unary
  /// minus) and the height of the AST, which left-deep operator chains
  /// such as `a + b + ...` grow without recursing. A deeper query fails
  /// with a ParseError instead of exhausting the stack here or in a
  /// later recursive pass (translate, typecheck, rewrite, evaluate).
  /// One level of sub-select nesting takes about ten parser frames,
  /// some 16 KB of stack in an AddressSanitizer debug build, where 500
  /// levels already overflow an 8 MB stack; 256 leaves the later passes
  /// the other half.
  static constexpr int kMaxQueryDepth = 256;

  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// Parses a single query expression; fails if trailing tokens remain
  /// (a trailing ';' is allowed).
  Result<QExprPtr> ParseQuery();

  /// Parses a sequence of class definitions into a Schema. The optional
  /// `oid <name>` clause names the implicit oid field (default "oid").
  /// Class-typed attributes become Ref types; `{ ClassName }` becomes a
  /// set of unary (ref) tuples only when written as a tuple type — a bare
  /// class name inside braces is a set of references.
  Result<Schema> ParseSchema();

  /// Convenience one-shot helpers (tokenize + parse).
  static Result<QExprPtr> ParseQueryString(const std::string& text);
  static Result<Schema> ParseSchemaString(const std::string& text);

 private:
  const Token& Peek(int ahead = 0) const;
  const Token& Advance();
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind);
  /// The current token if it is a `kind` (and steps past it), else a
  /// ParseError naming `context`. The pointer is into tokens_.
  Result<const Token*> Expect(TokenKind kind, const char* context);
  Status ErrorHere(const std::string& msg) const;
  Status TooDeep() const;
  /// Sets `node`'s height from its children; fails past kMaxQueryDepth.
  Result<QExprPtr> Finish(std::shared_ptr<QExpr> node) const;
  /// One level of parser recursion, counted in depth_ for the duration
  /// of a call; the recursive productions fail once it passes
  /// kMaxQueryDepth.
  class Level {
   public:
    explicit Level(int* depth) : depth_(depth) { ++*depth_; }
    ~Level() { --*depth_; }
    Level(const Level&) = delete;
    Level& operator=(const Level&) = delete;

   private:
    int* depth_;
  };

  Result<QExprPtr> ParseExpr();        // or-level
  Result<QExprPtr> ParseAnd();
  Result<QExprPtr> ParseNot();
  Result<QExprPtr> ParseComparison();
  Result<QExprPtr> ParseAdditive();
  Result<QExprPtr> ParseMultiplicative();
  Result<QExprPtr> ParseUnary();
  Result<QExprPtr> ParsePostfix();
  Result<QExprPtr> ParsePrimary();
  Result<QExprPtr> ParseSelect();
  Result<QExprPtr> ParseQuantifier();

  Result<TypePtr> ParseType();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // open recursion levels (see Level)
};

}  // namespace n2j

#endif  // N2J_OOSQL_PARSER_H_
