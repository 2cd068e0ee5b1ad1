#ifndef N2J_ADL_TYPECHECK_H_
#define N2J_ADL_TYPECHECK_H_

#include <span>
#include <string>
#include <vector>

#include "adl/expr.h"
#include "adl/schema.h"
#include "adl/type.h"
#include "common/result.h"
#include "storage/database.h"

namespace n2j {

/// Variable typing context for ADL type inference and OOSQL
/// translation: the binder variables in scope, innermost last.
class TypeEnv {
 public:
  void Push(const std::string& name, TypePtr type) {
    bindings_.emplace_back(name, std::move(type));
  }
  void Pop() { bindings_.pop_back(); }
  size_t size() const { return bindings_.size(); }
  /// Pops every binding pushed after the env had `size` bindings.
  void Truncate(size_t size) { bindings_.resize(size); }
  const TypePtr* Lookup(const std::string& name) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

 private:
  std::vector<std::pair<std::string, TypePtr>> bindings_;
};

/// The typing rules of ADL, a *typed* algebra (Section 3). They are the
/// only ones in the system: Infer types an ADL tree through them, and the
/// OOSQL translator types each node it lowers through them. The rewriter
/// uses inference to compute schemas (SCH) for the grouping/nestjoin
/// substitutions, and the tests use it to check that every rewrite is
/// type-preserving.
///
/// The rules are lenient on operands typed `any`, the element type of
/// `{}` (rewrites may fold a subplan to it).
///
/// `db` may be null; then only class extents (from `schema`) resolve as
/// tables.
class TypeChecker {
 public:
  explicit TypeChecker(const Schema& schema, const Database* db = nullptr)
      : schema_(schema), db_(db) {}

  Result<TypePtr> Infer(const ExprPtr& e) {
    TypeEnv env;
    return Infer(e, env);
  }
  /// Types the children of `e`, with its binder variables pushed on `env`
  /// for the children they scope over, then applies Rule.
  Result<TypePtr> Infer(const ExprPtr& e, TypeEnv& env);

  /// The typing rule of `e`'s node: its type given `kids[i]`, the type of
  /// `e.child(i)`. The caller types the children first, with the node's
  /// binder variables (see BinderType) pushed on `env` while it types the
  /// children they scope over. The rule reads `env` only at a variable.
  Result<TypePtr> Rule(const Expr& e, std::span<const TypePtr> kids,
                       const TypeEnv& env) const;

  /// The type an iterator, quantifier or join binds its variable to over
  /// an operand of type `range`: the element type, or `any` if `range` is
  /// not a set (the node's rule then rejects a non-`any` range).
  static TypePtr BinderType(const TypePtr& range) {
    return range->is_set() ? range->element() : Type::Any();
  }

  /// SCH of a set-of-tuples expression: its top-level attribute names.
  Result<std::vector<std::string>> SchemaOf(const ExprPtr& e, TypeEnv& env);

 private:
  Status TypeError(const std::string& msg) const {
    return Status::TypeError(msg);
  }

  const Schema& schema_;
  const Database* db_;
};

/// Derives the most specific type of a runtime value (oids type as plain
/// oid; empty sets as { any }).
TypePtr TypeOfValue(const Value& v);

}  // namespace n2j

#endif  // N2J_ADL_TYPECHECK_H_
