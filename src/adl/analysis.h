#ifndef N2J_ADL_ANALYSIS_H_
#define N2J_ADL_ANALYSIS_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "adl/expr.h"

namespace n2j {

/// A set of variable names: a sorted, duplicate-free vector. A query
/// tree has a handful of variables, where one flat vector beats a
/// node-per-name std::set.
using VarSet = std::vector<std::string>;

/// True if the VarSet `vars` holds `v`.
bool HasVar(const VarSet& vars, const std::string& v);

/// Returns the free variables of `e` (variables not bound by an enclosing
/// map/select/quantifier/join/let binder within `e` itself).
VarSet FreeVars(const ExprPtr& e);

/// True if `var` occurs free in `e`.
bool IsFreeIn(const std::string& var, const ExprPtr& e);

/// True if `e` contains a GetTable node anywhere (i.e., references a base
/// table). The paper's unnesting goal is to remove such references from
/// iterator parameter expressions.
bool ContainsBaseTable(const ExprPtr& e);

/// True if `e` is an *uncorrelated* expression w.r.t. the given variables
/// (in any order): none of them occur free in `e`.
bool IsUncorrelated(const ExprPtr& e, const std::vector<std::string>& vars);

/// Capture-avoiding substitution of `replacement` for free occurrences of
/// `var` in `e`. Binders shadow as usual; N2J_CHECKs against variable
/// capture (callers use FreshVar to avoid it).
ExprPtr Substitute(const ExprPtr& e, const std::string& var,
                   const ExprPtr& replacement);

/// Generates a variable name not free (or bound) anywhere in `e`,
/// derived from `hint` ("x" → "x1", "x2", ...).
std::string FreshVar(const std::string& hint, const ExprPtr& e);
std::string FreshVar(const std::string& hint,
                     const std::vector<ExprPtr>& exprs);

/// All variable names occurring in `e`, bound or free.
std::set<std::string> AllVars(const ExprPtr& e);

/// Splits a predicate into its top-level conjuncts (flattening nested
/// `and`s).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

/// True if `e` is nested more than `limit` levels deep (a leaf is one
/// level). Iterative, so it is safe on trees too deep for the recursive
/// passes it guards.
bool DeeperThan(const Expr& e, size_t limit);

/// Visits every node pre-order.
void VisitPreOrder(const ExprPtr& e,
                   const std::function<void(const ExprPtr&)>& fn);

/// True if `e` is "comprehension-shaped" at the root: a Map, Select,
/// Flatten or GetTable — the shapes the shredding translator (shred/)
/// can peel into its own flat DAG nodes instead of delegating to the
/// row-wise interpreter. Deliberately shallow: the *inside* of the
/// comprehension is classified recursively by the translator itself.
bool IsComprehensionShaped(const ExprPtr& e);

}  // namespace n2j

#endif  // N2J_ADL_ANALYSIS_H_
