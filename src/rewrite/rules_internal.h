#ifndef N2J_REWRITE_RULES_INTERNAL_H_
#define N2J_REWRITE_RULES_INTERNAL_H_

// Internal interfaces of the rewrite engine: one pass per translation
// unit, orchestrated by rewriter.cc. Not part of the public API.

#include <string>
#include <vector>

#include "adl/analysis.h"
#include "adl/expr.h"
#include "adl/printer.h"
#include "adl/schema.h"
#include "adl/typecheck.h"
#include "rewrite/rewriter.h"
#include "storage/database.h"

namespace n2j {
namespace rewrite_internal {

struct RewriteContext {
  const Schema& schema;
  const Database* db;
  const RewriteOptions& options;
  std::vector<RuleApplication>* trace;

  void Note(const std::string& rule, const std::string& detail) {
    trace->push_back({rule, detail});
  }

  TypeChecker MakeChecker() const { return TypeChecker(schema, db); }
};

// --- Passes (each returns the rewritten tree; input if unchanged) -------

/// Constant folding, σ[x:true] / α[x:x] elimination, select/select and
/// select-over-map fusion (from-clause composition removal), trivial-let
/// inlining.
ExprPtr PassSimplify(const ExprPtr& e, RewriteContext& ctx);

/// Tables 1 and 2: set comparison operations and emptiness predicates →
/// (negated) existential quantifier expressions, applied only where a
/// base table is involved.
ExprPtr PassSetCmp(const ExprPtr& e, RewriteContext& ctx);

/// Range-selection/map merging, universal-quantifier elimination (∀ →
/// ¬∃¬) with negation normal form, and the quantifier-exchange heuristic
/// (move base-table quantifiers leftmost).
ExprPtr PassQuantifierNormalize(const ExprPtr& e, RewriteContext& ctx);

/// Rule 1: σ[x : (¬)∃y∈Y·p](X) → semijoin/antijoin, per conjunct.
ExprPtr PassRule1(const ExprPtr& e, RewriteContext& ctx);

/// Rule 2, general form: ⋃(α[x : α[y : f](σ[y:p](Y))](X)) →
/// α[t : f[t]](X ⋈_p Y), over whole k-variable from-clause chains:
/// conjunct placement plus one join tree of the linked independent
/// ranges.
ExprPtr PassRule2(const ExprPtr& e, RewriteContext& ctx);

/// Option 1: unnesting of set-valued attributes under a projection that
/// drops them (Example Query 4).
ExprPtr PassUnnestAttr(const ExprPtr& e, RewriteContext& ctx);

/// Options 2/3 for grouping-requiring queries: the [GaWo87] grouping
/// plan guarded by the Complex-Object-bug analysis, or the nestjoin.
ExprPtr PassGrouping(const ExprPtr& e, RewriteContext& ctx);

/// Uncorrelated subqueries inside iterator bodies → let-bound constants.
ExprPtr PassHoist(const ExprPtr& e, RewriteContext& ctx);

/// Per-side conjuncts of a residual selection move below the join
/// (classical selection pushdown, enabled by the join rewrites).
ExprPtr PassPushdown(const ExprPtr& e, RewriteContext& ctx);

// --- Shared helpers ------------------------------------------------------

/// Replaces every occurrence of `target` (structural equality) in `e` by
/// `replacement`, skipping scopes where a binder rebinds one of the free
/// variables of `target`.
ExprPtr ReplaceSubexpr(const ExprPtr& e, const ExprPtr& target,
                       const ExprPtr& replacement);

/// True if every free occurrence of `var` in `e` is immediately below a
/// field access (x.a) — i.e., the tuple is never used wholesale. When
/// true, rebinding `var` to a wider tuple (nestjoin output) is safe.
bool OnlyFieldAccesses(const ExprPtr& e, const std::string& var);

/// True when evaluating predicate `e` cannot raise a runtime error:
/// comparisons (Value::Compare is total), ∈ / ∋ and isempty over
/// constants and attribute paths (x, x.a, x.a.b — a typed attribute
/// holds a value of its type), quantifiers over ranges that cannot raise,
/// and and/or/not of those. Arithmetic (null operands, division by
/// zero), derefs (dangling oids), set comparisons of subqueries and
/// aggregates may raise. The naive plan evaluates a where-conjunct only
/// where the conjuncts before it held, so only these may be moved to
/// where the naive plan would not have evaluated them.
bool CannotRaisePred(const ExprPtr& e);

/// True when evaluating set expression `e` eagerly cannot raise: base
/// tables, variables, constants, attribute paths, and σ/α/⋈/⋉/▷ over
/// such with predicates and bodies that cannot raise.
bool CannotRaiseRange(const ExprPtr& e);

/// The decomposed shape of a candidate subquery Y' (Section 5.1's
/// general format): Y' = α[v : G](σ[y : Q](Y)), where the map and/or the
/// select may be absent.
struct SubqueryShape {
  ExprPtr table;        // Y
  std::string sel_var;  // y (empty if no selection)
  ExprPtr sel_pred;     // Q (null if no selection)
  std::string map_var;  // v (empty if no map)
  ExprPtr map_body;     // G (null if no map)
  bool valid = false;
};

/// Decomposes `e` into SubqueryShape if it has one of the supported
/// shapes; shape.valid is false otherwise.
SubqueryShape DecomposeSubquery(const ExprPtr& e);

/// The complete Table 1 expansion of `lhs op subq` into quantifier form,
/// quantifying over `subq` (the subquery side, oriented to the right).
/// Returns null for non-set-comparison operators. The engine only applies
/// the unnestable subset (∈, ⊇); this full version exists for the Table 1
/// experiment and tests.
ExprPtr ExpandSetComparisonFull(BinOp op, const ExprPtr& lhs,
                                const ExprPtr& subq, const ExprPtr& whole);

}  // namespace rewrite_internal
}  // namespace n2j

#endif  // N2J_REWRITE_RULES_INTERNAL_H_
