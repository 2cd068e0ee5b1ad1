// Hoisting of uncorrelated subqueries (Section 3: "uncorrelated
// subqueries simply are constants, and treated as such"). A subquery
// inside an iterator body that does not use the iteration variable is
// moved into a let-binding above the iterator, so the evaluator computes
// it once instead of once per tuple.

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

bool IsHoistableKind(ExprKind k) {
  switch (k) {
    case ExprKind::kSelect:
    case ExprKind::kMap:
    case ExprKind::kProject:
    case ExprKind::kFlatten:
    case ExprKind::kNest:
    case ExprKind::kUnnest:
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
    case ExprKind::kDivide:
    case ExprKind::kAggregate:
      return true;
    default:
      return false;
  }
}

/// Finds a maximal *closed* base-table subquery inside `body` (pre-order,
/// so outermost first). Only fully-uncorrelated subqueries are hoisted —
/// they are the "constants" of Section 3. Subqueries correlated with an
/// outer (but not the innermost) variable are deliberately left in place:
/// the join rewrites (Rule 1 after range merging, grouping/nestjoin)
/// produce better plans for those than per-outer-tuple caching would.
bool FindHoistable(const ExprPtr& body, ExprPtr* out) {
  if (IsHoistableKind(body->kind()) && ContainsBaseTable(body) &&
      FreeVars(body).empty()) {
    *out = body;
    return true;
  }
  for (const ExprPtr& c : body->children()) {
    if (FindHoistable(c, out)) return true;
  }
  return false;
}

}  // namespace

ExprPtr ApplyHoist(const ExprPtr& e, RewriteContext& ctx) {
  // Iterators whose parameter expression may contain subqueries.
  size_t body_index = 1;
  switch (e->kind()) {
    case ExprKind::kSelect:
    case ExprKind::kMap:
    case ExprKind::kQuantifier:
      body_index = 1;
      break;
    default:
      return nullptr;
  }
  const ExprPtr& body = e->child(body_index);
  // Do not hoist the whole body, only proper subexpressions.
  ExprPtr candidate;
  for (const ExprPtr& c : body->children()) {
    if (FindHoistable(c, &candidate)) break;
  }
  if (candidate == nullptr) return nullptr;

  std::string v = FreshVar("sub", e);
  ExprPtr new_body = ReplaceSubexpr(body, candidate, Expr::Var(v));
  std::vector<ExprPtr> kids = e->children();
  kids[body_index] = new_body;
  ctx.Note("HoistUncorrelated", candidate);
  return Expr::Let(v, candidate, e->WithChildren(std::move(kids)));
}

}  // namespace rewrite_internal
}  // namespace n2j
