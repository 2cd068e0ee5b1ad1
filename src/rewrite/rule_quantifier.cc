// Quantifier normalization and Rule 1 of the paper.
//
// Normalization has three steps:
//  1. Range merging: ∃y∈σ[w:q](Y)·p ⇒ ∃y∈Y·q∧p (and the ∀/map duals) —
//     "the select operation is removed from the operand (the range
//     expression) of the existential quantifier" (Rewriting Example 1).
//  2. The quantifier-exchange heuristic (Rewriting Example 3): adjacent
//     same-kind quantifiers commute; move quantification over base
//     tables to the left so unnesting can reach it.
//  3. Universal-quantifier elimination: ∀v∈R·p ⇒ ¬∃v∈R·¬p for ranges
//     that involve base tables ("pushing through negation to enable
//     transformation into the antijoin operation"), plus negation normal
//     form.
//
// Rule 1 then converts per-conjunct:
//   σ[x :  ∃y∈Y·p](X) ⇒ X ⋉_{x,y:p} Y
//   σ[x : ¬∃y∈Y·p](X) ⇒ X ▷_{x,y:p} Y
// for uncorrelated base-table ranges Y.

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

// ---- Step 1: range merging ---------------------------------------------

ExprPtr MergeRange(const ExprPtr& e, RewriteContext& ctx) {
  if (e->kind() != ExprKind::kQuantifier) return nullptr;
  const ExprPtr& range = e->child(0);
  const ExprPtr& body = e->child(1);
  bool exists = e->quant_kind() == QuantKind::kExists;

  if (range->kind() == ExprKind::kSelect) {
    // Q v ∈ σ[w : q](R) · p
    // ∃: ∃v∈R · q[w→v] ∧ p        ∀: ∀v∈R · ¬q[w→v] ∨ p
    std::string v = FreshVar(e->var(), {range, body});
    ExprPtr q = Substitute(range->child(1), range->var(), Expr::Var(v));
    ExprPtr p = Substitute(body, e->var(), Expr::Var(v));
    ctx.Note("MergeRange-Select", e);
    ExprPtr merged = exists ? Expr::And(q, p) : Expr::Or(Expr::Not(q), p);
    return Expr::Quant(e->quant_kind(), v, range->child(0), merged);
  }
  if (range->kind() == ExprKind::kMap) {
    // Q v ∈ α[w : f](R) · p  ⇒  Q w' ∈ R · p[v → f[w→w']]
    std::string w = FreshVar(range->var(), {range, body});
    ExprPtr f = Substitute(range->child(1), range->var(), Expr::Var(w));
    ExprPtr p = Substitute(body, e->var(), f);
    ctx.Note("MergeRange-Map", e);
    return Expr::Quant(e->quant_kind(), w, range->child(0), p);
  }
  return nullptr;
}

// ---- Step 1b: extracting quantifier-independent conjuncts ----------------

namespace {

/// Appends the top-level ∨ spine of `e`, left to right.
void SplitDisjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kBinary && e->bin_op() == BinOp::kOr) {
    SplitDisjuncts(e->child(0), out);
    SplitDisjuncts(e->child(1), out);
  } else {
    out->push_back(e);
  }
}

}  // namespace

/// ∃v∈R·(p ∧ q(v)) ⇒ p ∧ ∃v∈R·q(v)   when v is not free in p
/// ∀v∈R·(p ∨ q(v)) ⇒ p ∨ ∀v∈R·q(v)   (dual)
///
/// Both hold for empty ranges too (∃ over ∅ is false, making the whole
/// conjunction false either way; ∀ over ∅ is true, making the
/// disjunction true either way). Extraction exposes the independent
/// part to Rule 1's per-conjunct treatment and to selection pushdown —
/// it is what turns Example Query 5 into the paper's exact
/// `SUPPLIER ⋉ σ[color="red"](PART)` plan.
ExprPtr ExtractIndependent(const ExprPtr& e, RewriteContext& ctx) {
  if (e->kind() != ExprKind::kQuantifier) return nullptr;
  bool exists = e->quant_kind() == QuantKind::kExists;
  const ExprPtr& body = e->child(1);
  // Split on ∧ for ∃ and on ∨ for ∀.
  std::vector<ExprPtr> pieces;
  if (exists) {
    pieces = SplitConjuncts(body);
  } else {
    SplitDisjuncts(body, &pieces);
  }
  if (pieces.size() < 2) return nullptr;
  std::vector<ExprPtr> independent;
  std::vector<ExprPtr> dependent;
  for (const ExprPtr& p : pieces) {
    (IsFreeIn(e->var(), p) ? dependent : independent).push_back(p);
  }
  if (independent.empty()) return nullptr;
  // Rebuild: keep the quantifier over the dependent part (true/false if
  // none — the simplifier folds it away).
  auto combine = [&](const std::vector<ExprPtr>& parts,
                     bool conj) -> ExprPtr {
    if (parts.empty()) {
      return conj ? Expr::True() : Expr::False();
    }
    ExprPtr acc = parts[0];
    for (size_t i = 1; i < parts.size(); ++i) {
      acc = conj ? Expr::And(acc, parts[i]) : Expr::Or(acc, parts[i]);
    }
    return acc;
  };
  ctx.Note("ExtractIndependentConjuncts", e);
  ExprPtr remaining = Expr::Quant(e->quant_kind(), e->var(), e->child(0),
                                  combine(dependent, exists));
  ExprPtr outside = combine(independent, exists);
  return exists ? Expr::And(outside, remaining)
                : Expr::Or(outside, remaining);
}

// ---- Step 2: quantifier exchange ----------------------------------------

ExprPtr Exchange(const ExprPtr& e, RewriteContext& ctx) {
  if (e->kind() != ExprKind::kQuantifier) return nullptr;
  const ExprPtr& inner = e->child(1);
  if (inner->kind() != ExprKind::kQuantifier) return nullptr;
  if (inner->quant_kind() != e->quant_kind()) return nullptr;
  const ExprPtr& r1 = e->child(0);
  const ExprPtr& r2 = inner->child(0);
  // Move base-table quantification outward; the inner range must not
  // depend on the outer variable.
  if (!ContainsBaseTable(r2) || ContainsBaseTable(r1)) return nullptr;
  if (IsFreeIn(e->var(), r2)) return nullptr;
  if (e->var() == inner->var()) return nullptr;  // shadowing; leave it
  // Moving the inner binder outward must not capture an outer use of its
  // name inside the other range.
  if (IsFreeIn(inner->var(), r1)) return nullptr;
  ctx.Note("ExchangeQuantifiers", e);
  return Expr::Quant(
      e->quant_kind(), inner->var(), r2,
      Expr::Quant(e->quant_kind(), e->var(), r1, inner->child(1)));
}

// ---- Step 3: ∀ elimination and negation normal form ---------------------

ExprPtr PushNegation(const ExprPtr& e, RewriteContext& ctx) {
  // ∀v∈R·p ⇒ ¬∃v∈R·¬p when R involves a base table (so Rule 1's antijoin
  // can fire). Universal quantification over set-valued attributes stays.
  if (e->kind() == ExprKind::kQuantifier &&
      e->quant_kind() == QuantKind::kForall &&
      ContainsBaseTable(e->child(0))) {
    ctx.Note("ForallToNegatedExists", e);
    return Expr::Not(Expr::Quant(QuantKind::kExists, e->var(), e->child(0),
                                 Expr::Not(e->child(1))));
  }
  if (e->kind() != ExprKind::kUnary || e->un_op() != UnOp::kNot) {
    return nullptr;
  }
  const ExprPtr& a = e->child(0);
  switch (a->kind()) {
    case ExprKind::kUnary:
      if (a->un_op() == UnOp::kNot) return a->child(0);  // ¬¬p
      return nullptr;
    case ExprKind::kBinary:
      switch (a->bin_op()) {
        case BinOp::kAnd:  // De Morgan
          return Expr::Or(Expr::Not(a->child(0)), Expr::Not(a->child(1)));
        case BinOp::kOr:
          return Expr::And(Expr::Not(a->child(0)), Expr::Not(a->child(1)));
        case BinOp::kEq:
          return Expr::Bin(BinOp::kNe, a->child(0), a->child(1));
        case BinOp::kNe:
          return Expr::Bin(BinOp::kEq, a->child(0), a->child(1));
        case BinOp::kLt:
          return Expr::Bin(BinOp::kGe, a->child(0), a->child(1));
        case BinOp::kLe:
          return Expr::Bin(BinOp::kGt, a->child(0), a->child(1));
        case BinOp::kGt:
          return Expr::Bin(BinOp::kLe, a->child(0), a->child(1));
        case BinOp::kGe:
          return Expr::Bin(BinOp::kLt, a->child(0), a->child(1));
        default:
          return nullptr;
      }
    case ExprKind::kQuantifier:
      // ¬∀v∈R·p ⇒ ∃v∈R·¬p (any range). ¬∃ stays — it is the antijoin
      // form.
      if (a->quant_kind() == QuantKind::kForall) {
        return Expr::Quant(QuantKind::kExists, a->var(), a->child(0),
                           Expr::Not(a->child(1)));
      }
      return nullptr;
    default:
      return nullptr;
  }
}

// ---- Rule 1 --------------------------------------------------------------

namespace {

struct QuantConjunct {
  bool negated = false;
  ExprPtr quant;  // the kQuantifier node (kExists after normalization)
};

/// Matches (¬)∃/∀ conjuncts; returns false if not quantifier-shaped.
bool MatchQuantConjunct(const ExprPtr& c, QuantConjunct* out) {
  ExprPtr cur = c;
  out->negated = false;
  while (cur->kind() == ExprKind::kUnary && cur->un_op() == UnOp::kNot) {
    out->negated = !out->negated;
    cur = cur->child(0);
  }
  if (cur->kind() != ExprKind::kQuantifier) return false;
  if (cur->quant_kind() == QuantKind::kForall) {
    // Treat ∀v∈R·p as ¬∃v∈R·¬p.
    out->negated = !out->negated;
    cur = Expr::Quant(QuantKind::kExists, cur->var(), cur->child(0),
                      Expr::Not(cur->child(1)));
  }
  out->quant = cur;
  return true;
}

}  // namespace

ExprPtr ApplyRule1(const ExprPtr& e, RewriteContext& ctx) {
  if (e->kind() != ExprKind::kSelect) return nullptr;
  const std::string& x = e->var();
  std::vector<ExprPtr> conjuncts = SplitConjuncts(e->child(1));

  ExprPtr input = e->child(0);
  std::vector<ExprPtr> residual;
  bool any = false;
  for (const ExprPtr& c : conjuncts) {
    QuantConjunct qc;
    if (MatchQuantConjunct(c, &qc)) {
      const ExprPtr& range = qc.quant->child(0);
      const ExprPtr& pred = qc.quant->child(1);
      // Rule 1 preconditions: x not free in Y, and Y involves a base
      // table (otherwise iteration over a clustered set-valued attribute
      // is left as is).
      if (!IsFreeIn(x, range) && ContainsBaseTable(range)) {
        if (qc.negated) {
          ctx.Note("Rule1-AntiJoin", c);
          input = Expr::AntiJoin(input, range, x, qc.quant->var(), pred);
        } else {
          ctx.Note("Rule1-SemiJoin", c);
          input = Expr::SemiJoin(input, range, x, qc.quant->var(), pred);
        }
        any = true;
        continue;
      }
    }
    residual.push_back(c);
  }
  if (!any) return nullptr;
  if (residual.empty()) return input;
  return Expr::Select(x, Expr::AndAll(residual), input);
}

/// Multi-level unnesting (the paper's "multiple nesting levels" future
/// work): a quantifier conjunct inside a join predicate that mentions
/// only the *right* join variable pushes into the right operand as a
/// nested semijoin/antijoin:
///
///   X ⋉_{x,y : p ∧ ∃w∈W·q(y,w)} Y   ⇒   X ⋉_{x,y : p} (Y ⋉_{y,w:q} W)
ExprPtr ApplyRule1InJoinPred(const ExprPtr& e, RewriteContext& ctx) {
  switch (e->kind()) {
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
      break;
    default:
      return nullptr;
  }
  const std::string& x = e->var();
  const std::string& y = e->var2();
  std::vector<ExprPtr> conjuncts = SplitConjuncts(e->pred());
  ExprPtr right = e->child(1);
  std::vector<ExprPtr> residual;
  bool any = false;
  for (const ExprPtr& c : conjuncts) {
    QuantConjunct qc;
    if (MatchQuantConjunct(c, &qc) && !IsFreeIn(x, c)) {
      const ExprPtr& range = qc.quant->child(0);
      const ExprPtr& pred = qc.quant->child(1);
      if (!IsFreeIn(y, range) && ContainsBaseTable(range)) {
        if (qc.negated) {
          ctx.Note("Rule1-AntiJoin(inner)", c);
          right = Expr::AntiJoin(right, range, y, qc.quant->var(), pred);
        } else {
          ctx.Note("Rule1-SemiJoin(inner)", c);
          right = Expr::SemiJoin(right, range, y, qc.quant->var(), pred);
        }
        any = true;
        continue;
      }
    }
    residual.push_back(c);
  }
  if (!any) return nullptr;
  ExprPtr new_pred = Expr::AndAll(residual);
  std::vector<ExprPtr> kids = e->children();
  kids[1] = right;
  kids[2] = new_pred;
  return e->WithChildren(std::move(kids));
}

}  // namespace rewrite_internal
}  // namespace n2j
