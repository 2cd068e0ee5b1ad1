#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

bool IsConstBool(const ExprPtr& e, bool value) {
  return e->kind() == ExprKind::kConst && e->const_value().is_bool() &&
         e->const_value().bool_value() == value;
}

bool IsConstTrue(const ExprPtr& e) { return IsConstBool(e, true); }
bool IsConstFalse(const ExprPtr& e) { return IsConstBool(e, false); }

bool IsEmptySetConst(const ExprPtr& e) {
  return e->kind() == ExprKind::kConst && e->const_value().is_set() &&
         e->const_value().set_size() == 0;
}

}  // namespace

/// One local simplification step; nullptr if none applies.
ExprPtr SimplifyNode(const ExprPtr& e, RewriteContext& ctx) {
  switch (e->kind()) {
    case ExprKind::kSelect: {
      // σ[x : true](e) = e
      if (IsConstTrue(e->child(1))) {
        ctx.Note("Simplify-TrueSelect", e);
        return e->child(0);
      }
      // σ[x : false](e) = ∅
      if (IsConstFalse(e->child(1))) {
        ctx.Note("Simplify-FalseSelect", e);
        return Expr::Const(Value::EmptySet());
      }
      // σ[x : p](σ[y : q](E)) = σ[y : q ∧ p[x→y]](E)
      // (select fusion; removes one nesting level of the from-clause.)
      const ExprPtr& in = e->child(0);
      if (in->kind() == ExprKind::kSelect) {
        std::string y = in->var();
        ExprPtr q = in->child(1);
        if (IsFreeIn(y, e->child(1)) && y != e->var()) {
          // y occurs free in p as an outer binding: α-rename first.
          std::string fresh = FreshVar(y, {e->child(1), q, in->child(0)});
          q = Substitute(q, y, Expr::Var(fresh));
          y = fresh;
        }
        ExprPtr p = Substitute(e->child(1), e->var(), Expr::Var(y));
        ctx.Note("Simplify-SelectFusion", e);
        return Expr::Select(y, Expr::And(q, p), in->child(0));
      }
      // σ[x : p](α[y : f](E)) = α[y : f](σ[y : p[x→f]](E))
      // (from-clause composition removal, Example Query 2.)
      if (in->kind() == ExprKind::kMap) {
        std::string y = in->var();
        ExprPtr f = in->child(1);
        ExprPtr p = e->child(1);
        if (IsFreeIn(y, p) && y != e->var()) {
          // The map variable occurs free in p (an outer binding):
          // α-rename the map first.
          std::string fresh = FreshVar(y, {p, f, in->child(0)});
          f = Substitute(f, y, Expr::Var(fresh));
          y = fresh;
        }
        ExprPtr pushed = Substitute(p, e->var(), f);
        ctx.Note("MergeFrom-SelectOverMap", e);
        return Expr::Map(y, f, Expr::Select(y, pushed, in->child(0)));
      }
      break;
    }

    case ExprKind::kMap: {
      // α[x : x](e) = e
      if (e->child(1)->kind() == ExprKind::kVar &&
          e->child(1)->name() == e->var()) {
        ctx.Note("Simplify-IdentityMap", e);
        return e->child(0);
      }
      // α[x : f](α[y : g](E)) = α[y : f[x→g]](E)
      const ExprPtr& in = e->child(0);
      if (in->kind() == ExprKind::kMap) {
        std::string y = in->var();
        ExprPtr g = in->child(1);
        ExprPtr f = e->child(1);
        if (IsFreeIn(y, f) && y != e->var()) {
          std::string fresh = FreshVar(y, {f, g, in->child(0)});
          g = Substitute(g, y, Expr::Var(fresh));
          y = fresh;
        }
        ctx.Note("MergeFrom-MapComposition", e);
        return Expr::Map(y, Substitute(f, e->var(), g), in->child(0));
      }
      // Mapping over the empty set is empty.
      if (IsEmptySetConst(in)) {
        ctx.Note("Simplify-MapEmpty", e);
        return Expr::Const(Value::EmptySet());
      }
      break;
    }

    case ExprKind::kUnary: {
      if (e->un_op() == UnOp::kNot) {
        const ExprPtr& a = e->child(0);
        if (IsConstTrue(a)) return Expr::False();
        if (IsConstFalse(a)) return Expr::True();
        if (a->kind() == ExprKind::kUnary && a->un_op() == UnOp::kNot) {
          return a->child(0);  // ¬¬p = p
        }
      }
      break;
    }

    case ExprKind::kBinary: {
      const ExprPtr& a = e->child(0);
      const ExprPtr& b = e->child(1);
      if (e->bin_op() == BinOp::kAnd) {
        if (IsConstTrue(a)) return b;
        if (IsConstTrue(b)) return a;
        if (IsConstFalse(a) || IsConstFalse(b)) return Expr::False();
      }
      if (e->bin_op() == BinOp::kOr) {
        if (IsConstFalse(a)) return b;
        if (IsConstFalse(b)) return a;
        if (IsConstTrue(a) || IsConstTrue(b)) return Expr::True();
      }
      // Constant-fold comparisons of literals.
      if (a->kind() == ExprKind::kConst && b->kind() == ExprKind::kConst &&
          IsComparisonOp(e->bin_op())) {
        int c = a->const_value().Compare(b->const_value());
        bool r = false;
        switch (e->bin_op()) {
          case BinOp::kEq: r = c == 0; break;
          case BinOp::kNe: r = c != 0; break;
          case BinOp::kLt: r = c < 0; break;
          case BinOp::kLe: r = c <= 0; break;
          case BinOp::kGt: r = c > 0; break;
          case BinOp::kGe: r = c >= 0; break;
          default: break;
        }
        return Expr::Const(Value::Bool(r));
      }
      break;
    }

    case ExprKind::kQuantifier: {
      // Quantification over a constant empty set.
      if (IsEmptySetConst(e->child(0))) {
        ctx.Note("Simplify-QuantEmptyRange", e);
        return e->quant_kind() == QuantKind::kExists ? Expr::False()
                                                     : Expr::True();
      }
      // ∃v∈R·false = false; ∀v∈R·true = true.
      if (e->quant_kind() == QuantKind::kExists &&
          IsConstFalse(e->child(1))) {
        return Expr::False();
      }
      if (e->quant_kind() == QuantKind::kForall &&
          IsConstTrue(e->child(1))) {
        return Expr::True();
      }
      break;
    }

    case ExprKind::kLet: {
      // let v = w in b  ⇒  b[v→w]; also inline constant defs.
      const ExprPtr& def = e->child(0);
      if (def->kind() == ExprKind::kVar ||
          (def->kind() == ExprKind::kConst &&
           !def->const_value().is_set())) {
        return Substitute(e->child(1), e->var(), def);
      }
      // Drop unused lets.
      if (!IsFreeIn(e->var(), e->child(1))) return e->child(1);
      break;
    }

    case ExprKind::kFlatten: {
      // ⋃({}) = {} ; ⋃({e}) with a one-element set constructor = e.
      const ExprPtr& in = e->child(0);
      if (in->kind() == ExprKind::kSetConstruct &&
          in->num_children() == 1) {
        return in->child(0);
      }
      if (IsEmptySetConst(in)) return Expr::Const(Value::EmptySet());
      break;
    }

    default:
      break;
  }
  return nullptr;
}

}  // namespace rewrite_internal
}  // namespace n2j
