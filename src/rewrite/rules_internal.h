#ifndef N2J_REWRITE_RULES_INTERNAL_H_
#define N2J_REWRITE_RULES_INTERNAL_H_

// Internal interfaces of the rewrite engine: one rule family per
// translation unit, driven by rewriter.cc. Not part of the public API.

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

  /// Records a fired rule. The site is printed only when the trace is
  /// rendered (RuleApplication::detail).
  void Note(const char* rule, ExprPtr site, std::string suffix = {}) {
    trace->push_back({rule, std::move(site), std::move(suffix)});
  }

  TypeChecker MakeChecker() const { return TypeChecker(schema, db); }
};

// --- Rules ---------------------------------------------------------------
//
// Each rule looks at one node and returns its replacement, or nullptr
// when it does not apply there. The driver (rewriter.cc) decides where
// and in which order they are tried.

/// Constant folding, σ[x:true] / α[x:x] elimination, select/select and
/// select-over-map fusion (from-clause composition removal), trivial-let
/// inlining.
ExprPtr SimplifyNode(const ExprPtr& e, RewriteContext& ctx);

/// Uncorrelated subqueries inside iterator bodies → let-bound constants.
ExprPtr ApplyHoist(const ExprPtr& e, RewriteContext& ctx);

/// Tables 1 and 2: set comparison operations and emptiness predicates →
/// (negated) existential quantifier expressions, applied only where a
/// base table is involved.
ExprPtr ApplySetCmp(const ExprPtr& e, RewriteContext& ctx);

/// Quantifier normalization: range-selection/map merging, extraction of
/// quantifier-independent conjuncts, the quantifier-exchange heuristic
/// (move base-table quantifiers leftmost), and universal-quantifier
/// elimination (∀ → ¬∃¬) with negation normal form.
ExprPtr MergeRange(const ExprPtr& e, RewriteContext& ctx);
ExprPtr ExtractIndependent(const ExprPtr& e, RewriteContext& ctx);
ExprPtr Exchange(const ExprPtr& e, RewriteContext& ctx);
ExprPtr PushNegation(const ExprPtr& e, RewriteContext& ctx);

/// Rule 1: σ[x : (¬)∃y∈Y·p](X) → semijoin/antijoin, per conjunct; and
/// its multi-level form inside join predicates.
ExprPtr ApplyRule1(const ExprPtr& e, RewriteContext& ctx);
ExprPtr ApplyRule1InJoinPred(const ExprPtr& e, RewriteContext& ctx);

/// Rule 2, general form: ⋃(α[x : α[y : f](σ[y:p](Y))](X)) →
/// α[t : f[t]](X ⋈_p Y), over a whole k-variable from-clause chain rooted
/// at `e`: conjunct placement plus one join tree of the linked
/// independent ranges. The driver tries it top-down, so a chain is
/// matched whole before any suffix of it.
ExprPtr ApplyRule2(const ExprPtr& e, RewriteContext& ctx);

/// Option 1: unnesting of set-valued attributes under a projection that
/// drops them (Example Query 4).
ExprPtr ApplyUnnestAttr(const ExprPtr& e, RewriteContext& ctx);

/// Options 2/3 for grouping-requiring queries: the [GaWo87] grouping
/// plan guarded by the Complex-Object-bug analysis, or the nestjoin.
ExprPtr ApplyGrouping(const ExprPtr& e, RewriteContext& ctx);

/// Per-side conjuncts of a residual selection move below the join
/// (classical selection pushdown, enabled by the join rewrites); and
/// one-sided conjuncts of a join predicate move into its operands.
ExprPtr ApplyPushdown(const ExprPtr& e, RewriteContext& ctx);
ExprPtr ApplyJoinPredPushdown(const ExprPtr& e, RewriteContext& ctx);

// --- The driver ----------------------------------------------------------

/// The driver's bound on rounds (one walk each) against rule cycles.
constexpr int kMaxRewriteRounds = 64;

/// Runs the enabled rules over `e` to their fixpoint (see rewriter.cc)
/// in at most `max_rounds` walks; Rewriter::Rewrite passes
/// kMaxRewriteRounds. Exposed so tests can hit the bound.
RewriteResult DriveRewrite(const ExprPtr& e, const Schema& schema,
                           const Database* db, const RewriteOptions& options,
                           int max_rounds);

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
