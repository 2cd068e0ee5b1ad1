// Tables 1 and 2 of the paper: rewriting set comparison operations and
// emptiness predicates into (negated) existential quantifier expressions,
// the form suitable for transformation into relational join expressions.
//
// The rewrite is applied only when the subquery side involves a base
// table: quantifier form is what enables unnesting, while set comparisons
// over clustered set-valued attributes are cheap to evaluate directly and
// are deliberately left alone (Section 3, "the unnesting of expressions
// with nested iterators having set-valued attributes as operands is not
// desirable").

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

bool IsEmptySetConst(const ExprPtr& e) {
  return e->kind() == ExprKind::kConst && e->const_value().is_set() &&
         e->const_value().set_size() == 0;
}

bool IsIntConst(const ExprPtr& e, int64_t v) {
  return e->kind() == ExprKind::kConst && e->const_value().is_int() &&
         e->const_value().int_value() == v;
}

/// Mirrors an operator so that `l op r` ≡ `r mirror(op) l`.
BinOp MirrorOp(BinOp op) {
  switch (op) {
    case BinOp::kIn: return BinOp::kContains;
    case BinOp::kContains: return BinOp::kIn;
    case BinOp::kSubset: return BinOp::kSupset;
    case BinOp::kSubsetEq: return BinOp::kSupsetEq;
    case BinOp::kSupset: return BinOp::kSubset;
    case BinOp::kSupsetEq: return BinOp::kSubsetEq;
    default: return op;
  }
}

/// ∃v ∈ range · pred
ExprPtr Ex(const std::string& v, ExprPtr range, ExprPtr pred) {
  return Expr::Quant(QuantKind::kExists, v, std::move(range),
                     std::move(pred));
}
/// ∀v ∈ range · pred
ExprPtr All(const std::string& v, ExprPtr range, ExprPtr pred) {
  return Expr::Quant(QuantKind::kForall, v, std::move(range),
                     std::move(pred));
}

}  // namespace

/// Expands `lhs op subq` per Table 1, quantifying over the subquery side
/// `subq` (assumed on the right). Fresh variable names are derived from
/// the surrounding expression to avoid capture. Exposed for the Table 1
/// benchmark and tests; the engine itself (ApplySetCmp) only applies the
/// expansions that lead to a single (negated) existential quantifier over
/// the subquery — ∈ and ⊇ — since the others block the grouping path.
ExprPtr ExpandSetComparisonFull(BinOp op, const ExprPtr& lhs,
                                const ExprPtr& subq, const ExprPtr& whole) {
  std::string y = FreshVar("y", whole);
  std::string z = FreshVar("z", whole);
  std::string y2 = FreshVar("w", whole);
  switch (op) {
    case BinOp::kIn:
      // x.c ∈ Y' ≡ ∃y∈Y' · y = x.c
      return Ex(y, subq, Expr::Eq(Expr::Var(y), lhs));
    case BinOp::kSubsetEq:
      // x.c ⊆ Y' ≡ ∀z∈x.c · ∃y∈Y' · z = y
      return All(z, lhs, Ex(y, subq, Expr::Eq(Expr::Var(z), Expr::Var(y))));
    case BinOp::kSubset:
      // x.c ⊂ Y' ≡ (∀z∈x.c·∃y∈Y'·z=y) ∧ (∃y∈Y'·y∉x.c)
      return Expr::And(
          All(z, lhs, Ex(y, subq, Expr::Eq(Expr::Var(z), Expr::Var(y)))),
          Ex(y2, subq,
             Expr::Not(Expr::Bin(BinOp::kIn, Expr::Var(y2), lhs))));
    case BinOp::kEq:
      // x.c = Y' ≡ (∀z∈x.c·∃y∈Y'·z=y) ∧ (∀y∈Y'·y∈x.c)
      return Expr::And(
          All(z, lhs, Ex(y, subq, Expr::Eq(Expr::Var(z), Expr::Var(y)))),
          All(y2, subq, Expr::Bin(BinOp::kIn, Expr::Var(y2), lhs)));
    case BinOp::kSupsetEq:
      // x.c ⊇ Y' ≡ ∀y∈Y' · y ∈ x.c
      return All(y, subq, Expr::Bin(BinOp::kIn, Expr::Var(y), lhs));
    case BinOp::kSupset:
      // x.c ⊃ Y' ≡ (∀y∈Y'·y∈x.c) ∧ (∃z∈x.c·¬∃y∈Y'·z=y)
      return Expr::And(
          All(y, subq, Expr::Bin(BinOp::kIn, Expr::Var(y), lhs)),
          Ex(z, lhs,
             Expr::Not(
                 Ex(y2, subq, Expr::Eq(Expr::Var(z), Expr::Var(y2))))));
    case BinOp::kContains:
      // x.c ∋ Y' ≡ ∃z∈x.c · z = Y'   (set-of-set membership)
      return Ex(z, lhs, Expr::Eq(Expr::Var(z), subq));
    default:
      return nullptr;
  }
}

namespace {

/// The engine applies only the unnestable expansions of Table 1: those
/// whose (oriented) operator is ∈ or ⊇, which reduce to a single
/// (negated) existential quantification over the subquery side. The
/// other operators are left as set comparisons so the grouping/nestjoin
/// path (Section 5.2.2 / 6.1) can still recognize the subquery.
bool UnnestableOp(BinOp op) {
  return op == BinOp::kIn || op == BinOp::kSupsetEq;
}

}  // namespace

ExprPtr ApplySetCmp(const ExprPtr& e, RewriteContext& ctx) {
  // Table 2, row 1/2: Y' = ∅ / count(Y') = 0 → ¬∃y∈Y'·true.
  // Also: isempty(Y').
  auto not_exists = [&](const ExprPtr& subq) {
    std::string v = FreshVar("y", e);
    return Expr::Not(Ex(v, subq, Expr::True()));
  };
  if (e->kind() == ExprKind::kUnary && e->un_op() == UnOp::kIsEmpty &&
      ContainsBaseTable(e->child(0))) {
    ctx.Note("Table2-IsEmpty", e);
    return not_exists(e->child(0));
  }
  if (e->kind() != ExprKind::kBinary) return nullptr;
  const ExprPtr& l = e->child(0);
  const ExprPtr& r = e->child(1);

  if (e->bin_op() == BinOp::kEq || e->bin_op() == BinOp::kNe) {
    // x.c ∩ Y' = ∅ → ¬∃y∈Y'·y∈x.c  (Table 2 row 3).
    const ExprPtr* inter = nullptr;
    if (l->kind() == ExprKind::kBinary &&
        l->bin_op() == BinOp::kIntersectOp && IsEmptySetConst(r)) {
      inter = &l;
    }
    if (r->kind() == ExprKind::kBinary &&
        r->bin_op() == BinOp::kIntersectOp && IsEmptySetConst(l)) {
      inter = &r;
    }
    if (inter != nullptr) {
      const ExprPtr& a = (*inter)->child(0);
      const ExprPtr& b = (*inter)->child(1);
      const ExprPtr* subq_side = nullptr;
      const ExprPtr* other = nullptr;
      if (ContainsBaseTable(b)) {
        subq_side = &b;
        other = &a;
      } else if (ContainsBaseTable(a)) {
        subq_side = &a;
        other = &b;
      }
      if (subq_side != nullptr) {
        ctx.Note("Table2-DisjointIntersect", e);
        std::string v = FreshVar("y", e);
        ExprPtr q = Expr::Not(
            Ex(v, *subq_side, Expr::Bin(BinOp::kIn, Expr::Var(v), *other)));
        return e->bin_op() == BinOp::kEq ? q : Expr::Not(q);
      }
    }
    const ExprPtr* subq = nullptr;
    // e = ∅   or   ∅ = e
    if (IsEmptySetConst(r) && ContainsBaseTable(l)) subq = &l;
    if (IsEmptySetConst(l) && ContainsBaseTable(r)) subq = &r;
    if (subq != nullptr) {
      ctx.Note("Table2-EmptySet", e);
      ExprPtr q = not_exists(*subq);
      return e->bin_op() == BinOp::kEq ? q : Expr::Not(q);
    }
    // count(e) = 0  or  0 = count(e)
    const ExprPtr* agg = nullptr;
    if (l->kind() == ExprKind::kAggregate &&
        l->agg_kind() == AggKind::kCount && IsIntConst(r, 0)) {
      agg = &l;
    }
    if (r->kind() == ExprKind::kAggregate &&
        r->agg_kind() == AggKind::kCount && IsIntConst(l, 0)) {
      agg = &r;
    }
    if (agg != nullptr && ContainsBaseTable((*agg)->child(0))) {
      ctx.Note("Table2-CountZero", e);
      ExprPtr q = not_exists((*agg)->child(0));
      return e->bin_op() == BinOp::kEq ? q : Expr::Not(q);
    }
  }

  if (!IsSetComparisonOp(e->bin_op())) return nullptr;

  // Table 1: quantify over the side containing a base table (the
  // subquery side Y').
  if (ContainsBaseTable(r) && UnnestableOp(e->bin_op())) {
    ExprPtr out = ExpandSetComparisonFull(e->bin_op(), l, r, e);
    if (out != nullptr) {
      ctx.Note("Table1-SetCmpToQuantifier", e);
      return out;
    }
  } else if (ContainsBaseTable(l) && UnnestableOp(MirrorOp(e->bin_op()))) {
    ExprPtr out = ExpandSetComparisonFull(MirrorOp(e->bin_op()), r, l, e);
    if (out != nullptr) {
      ctx.Note("Table1-SetCmpToQuantifier(mirrored)", e);
      return out;
    }
  }
  return nullptr;
}

}  // namespace rewrite_internal
}  // namespace n2j
