// Selection pushdown through the join family — the classical logical
// optimization that the paper's join-producing rewrites enable in the
// first place ("so that instead of performing a naive nested-loop
// execution, the optimizer may choose from a number of different join
// processing strategies", Section 5.1): once nesting has become joins,
// per-side conjuncts of a residual selection can move below the join.
//
//   σ[z : p(z-left) ∧ q(z-right) ∧ r](X ⋈ Y)
//     ⇒ σ[z : r](σ[p'](X) ⋈ σ[q'](Y))
//
// For semijoin/antijoin/nestjoin (whose output is left-shaped) only the
// left push applies; for the nestjoin, conjuncts touching the group
// attribute stay put.
//
// A conjunct that may raise (CannotRaisePred) stays where it is, above
// the join or in its predicate: below the join it would run on rows the
// join drops, where the naive plan never evaluated it — Rule 2 relies on
// this to keep such a conjunct over its join tree.

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

/// Collects the set of attributes `var`.f referenced by `e`; returns
/// false if `var` is used other than through a direct field access.
bool CollectAttrRefs(const ExprPtr& e, const std::string& var,
                     std::set<std::string>* attrs) {
  if (!OnlyFieldAccesses(e, var)) return false;
  VisitPreOrder(e, [&](const ExprPtr& n) {
    if (n->kind() == ExprKind::kFieldAccess &&
        n->child(0)->kind() == ExprKind::kVar &&
        n->child(0)->name() == var) {
      attrs->insert(n->name());
    }
  });
  return true;
}

/// σ[v : preds[var→v]](operand) for a fresh v named after `hint`
/// (fresh w.r.t. `whole`), noting the pushed predicate; `operand` itself
/// when nothing is pushed.
ExprPtr PushBelow(const std::vector<ExprPtr>& pushed, const std::string& var,
                  const std::string& hint, const ExprPtr& whole,
                  const ExprPtr& operand, const char* rule,
                  RewriteContext& ctx) {
  if (pushed.empty()) return operand;
  std::string v = FreshVar(hint, whole);
  std::vector<ExprPtr> preds;
  for (const ExprPtr& c : pushed) {
    preds.push_back(Substitute(c, var, Expr::Var(v)));
  }
  ExprPtr pred = Expr::AndAll(preds);
  ctx.Note(rule, pred);
  return Expr::Select(v, std::move(pred), operand);
}

bool SubsetOf(const std::set<std::string>& attrs,
              const std::vector<std::string>& schema) {
  for (const std::string& a : attrs) {
    bool found = false;
    for (const std::string& s : schema) {
      if (a == s) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

ExprPtr ApplyPushdown(const ExprPtr& e, RewriteContext& ctx) {
  if (e->kind() != ExprKind::kSelect) return nullptr;
  const ExprPtr& join = e->child(0);
  bool is_join = join->kind() == ExprKind::kJoin;
  bool left_shaped = join->kind() == ExprKind::kSemiJoin ||
                     join->kind() == ExprKind::kAntiJoin ||
                     join->kind() == ExprKind::kNestJoin;
  if (!is_join && !left_shaped) return nullptr;

  const std::string& z = e->var();
  TypeChecker checker = ctx.MakeChecker();
  TypeEnv env;
  Result<std::vector<std::string>> left_sch =
      checker.SchemaOf(join->child(0), env);
  if (!left_sch.ok()) return nullptr;
  Result<std::vector<std::string>> right_sch =
      is_join ? checker.SchemaOf(join->child(1), env)
              : Result<std::vector<std::string>>(std::vector<std::string>{});
  if (!right_sch.ok()) return nullptr;

  std::vector<ExprPtr> left_push;
  std::vector<ExprPtr> right_push;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : SplitConjuncts(e->child(1))) {
    std::set<std::string> attrs;
    // Conjuncts mentioning other free variables still push fine (they
    // are outer bindings), but the selection variable must appear only
    // as field accesses.
    if (!CannotRaisePred(c) || !CollectAttrRefs(c, z, &attrs) ||
        attrs.empty()) {
      residual.push_back(c);
      continue;
    }
    if (SubsetOf(attrs, *left_sch)) {
      left_push.push_back(c);
    } else if (is_join && SubsetOf(attrs, *right_sch)) {
      right_push.push_back(c);
    } else {
      residual.push_back(c);
    }
  }
  if (left_push.empty() && right_push.empty()) return nullptr;

  std::vector<ExprPtr> kids = join->children();
  kids[0] = PushBelow(left_push, z, join->var(), e, kids[0],
                      "PushSelectionIntoJoin(left)", ctx);
  kids[1] = PushBelow(right_push, z, join->var2(), e, kids[1],
                      "PushSelectionIntoJoin(right)", ctx);
  ExprPtr new_join = join->WithChildren(std::move(kids));
  if (residual.empty()) return new_join;
  return Expr::Select(z, Expr::AndAll(residual), new_join);
}

/// One-sided conjuncts inside a *join predicate* move into the operands.
/// Validity is asymmetric:
///  - left-only conjuncts q(x): ⋈ and ⋉ only. For ▷ and ⊣, a failing
///    q(x) makes the pair set empty, which *keeps* x (▷) or keeps it
///    with an empty group (⊣) — filtering X would wrongly drop it.
///  - right-only conjuncts r(y): valid for all four (they only shrink
///    the matching set of y's).
/// Either way a conjunct that may raise stays in the residual: the join
/// evaluates it only on pairs its earlier conjuncts let through.
ExprPtr ApplyJoinPredPushdown(const ExprPtr& e, RewriteContext& ctx) {
  bool left_ok;
  switch (e->kind()) {
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
      left_ok = true;
      break;
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
      left_ok = false;
      break;
    default:
      return nullptr;
  }
  const std::string& x = e->var();
  const std::string& y = e->var2();
  std::vector<ExprPtr> left_push;
  std::vector<ExprPtr> right_push;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : SplitConjuncts(e->pred())) {
    bool uses_x = IsFreeIn(x, c);
    bool uses_y = IsFreeIn(y, c);
    if (!CannotRaisePred(c)) {
      residual.push_back(c);
    } else if (left_ok && uses_x && !uses_y) {
      left_push.push_back(c);
    } else if (uses_y && !uses_x) {
      right_push.push_back(c);
    } else {
      residual.push_back(c);
    }
  }
  if (left_push.empty() && right_push.empty()) return nullptr;
  // Keep at least the residual as the join predicate (true if none).
  std::vector<ExprPtr> kids = e->children();
  kids[0] = PushBelow(left_push, x, x, e, kids[0], "PushJoinPredicate(left)",
                      ctx);
  kids[1] = PushBelow(right_push, y, y, e, kids[1],
                      "PushJoinPredicate(right)", ctx);
  kids[2] = Expr::AndAll(residual);
  return e->WithChildren(std::move(kids));
}

}  // namespace rewrite_internal
}  // namespace n2j
