#ifndef N2J_OOSQL_TRANSLATE_H_
#define N2J_OOSQL_TRANSLATE_H_

#include <span>
#include <string>

#include "adl/expr.h"
#include "adl/schema.h"
#include "adl/type.h"
#include "adl/typecheck.h"
#include "common/result.h"
#include "oosql/ast.h"
#include "storage/database.h"

namespace n2j {

/// An ADL expression together with its inferred type.
struct TypedExpr {
  ExprPtr expr;
  TypePtr type;
};

/// Lowers an OOSQL AST to ADL and types it against a schema.
///
/// The lowering follows Section 3 of the paper and is deliberately naive
/// ("translation of OOSQL queries into the algebra is done in a simple,
/// almost one-to-one way"):
///
///   select e1 from x in e2 where e3  ≡  α[x : e1](σ[x : e3](e2))
///
/// Multiple range variables lower to nested map/select with a flatten per
/// extra variable. Optimization happens afterwards, in the rewriter.
///
/// Path expressions through Ref-typed attributes get explicit Deref
/// (materialize) nodes, so pointer traversals are visible to the
/// optimizer (Section 6.2, [BlMG93]).
///
/// The translator holds no typing rule of its own: it types each ADL node
/// it builds through TypeChecker::Rule, and reports a rule's error at the
/// OOSQL node's line:col.
class Translator {
 public:
  /// `db` is optional; when given, plain (class-less) tables are also
  /// resolvable as range expressions.
  explicit Translator(const Schema& schema, const Database* db = nullptr)
      : schema_(schema), db_(db) {}

  /// Translates a closed query.
  Result<TypedExpr> Translate(const QExprPtr& query);

  /// Parses and translates in one step.
  Result<TypedExpr> TranslateString(const std::string& query_text);

 private:
  Result<TypedExpr> Tr(const QExprPtr& q, TypeEnv& env);
  Result<TypedExpr> TrSelect(const QExpr& q, TypeEnv& env);

  /// Types `e`, lowered from `q`, by its rule given its children's types.
  Result<TypedExpr> Typed(const QExpr& q, ExprPtr e,
                          std::span<const TypePtr> kids,
                          const TypeEnv& env) const;

  Status ErrorAt(const QExpr& q, const std::string& msg) const;

  const Schema& schema_;
  const Database* db_;
};

}  // namespace n2j

#endif  // N2J_OOSQL_TRANSLATE_H_
