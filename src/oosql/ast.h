#ifndef N2J_OOSQL_AST_H_
#define N2J_OOSQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "adl/expr.h"  // reuses BinOp / UnOp / AggKind / QuantKind

namespace n2j {

struct QExpr;
using QExprPtr = std::shared_ptr<const QExpr>;

/// OOSQL surface-syntax AST. Deliberately close to the grammar; the
/// translator (translate.h) type-checks it against a Schema and lowers it
/// to the ADL algebra.
struct QExpr {
  enum class Kind : uint8_t {
    kIntLit,
    kDoubleLit,
    kStringLit,
    kBoolLit,
    kIdent,     // variable or base-table name (resolved by the translator)
    kField,     // kids[0].name
    kTupleProject,  // kids[0][names...]
    kTupleLit,  // (n1 = kids[0], ...)
    kSetLit,    // {kids...}
    kUnary,     // uop kids[0]
    kBinary,    // kids[0] bop kids[1]
    kQuant,     // exists/forall names[0] in kids[0] (: kids[1])
    kAgg,       // agg(kids[0])
    kIsEmptyCall,  // isempty(kids[0])
    kSelect,    // select kids[0] from names[i] in kids[1+i]
                //   (where kids.back() iff has_where)
  };

  Kind kind;
  int line = 0;
  int column = 0;

  int64_t int_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
  std::string str;                  // literal text / ident / field name
  std::vector<std::string> names;   // tuple fields / from-vars / projection
  BinOp bop = BinOp::kEq;
  UnOp uop = UnOp::kNot;
  AggKind agg = AggKind::kCount;
  QuantKind quant = QuantKind::kExists;
  bool has_where = false;
  std::vector<QExprPtr> kids;
  /// Nodes on the longest path from here to a leaf, kept by the parser
  /// and SubstituteIdent so the parser can bound query nesting
  /// (Parser::kMaxQueryDepth).
  int height = 1;

  /// For kSelect: number of from-clause (var, range) pairs.
  size_t NumRanges() const {
    return kids.size() - 1 - (has_where ? 1 : 0);
  }
  const QExprPtr& SelectBody() const { return kids[0]; }
  const QExprPtr& Range(size_t i) const { return kids[1 + i]; }
  const QExprPtr& Where() const { return kids.back(); }
};

/// Renders the AST back to (normalized) OOSQL text, mainly for error
/// messages and tests.
std::string QExprToString(const QExprPtr& e);

/// Capture-naive substitution of `replacement` for free occurrences of
/// the identifier `name` in `e`, respecting shadowing by from-clause and
/// quantifier variables. Used to expand the paper's `with` construct
/// ("select F(x) ... where P(x, Y') with Y' = select ...") before
/// translation — with-definitions are macro-like local names.
QExprPtr SubstituteIdent(const QExprPtr& e, const std::string& name,
                         const QExprPtr& replacement);

}  // namespace n2j

#endif  // N2J_OOSQL_AST_H_
