#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

bool BindsAnyOf(const Expr& e, const VarSet& vars) {
  return (!e.var().empty() && HasVar(vars, e.var())) ||
         (!e.var2().empty() && HasVar(vars, e.var2()));
}

ExprPtr ReplaceRec(const ExprPtr& e, const ExprPtr& target,
                   const ExprPtr& replacement,
                   const VarSet& target_free) {
  if (e->Equals(*target)) return replacement;
  if (e->num_children() == 0) return e;
  // If this node rebinds a free variable of the target, occurrences in
  // the bound children refer to a different binding — do not replace
  // there. (Non-bound children are still fair game, but distinguishing
  // them per kind is not worth it here: skip the whole subtree.)
  if (BindsAnyOf(*e, target_free)) return e;
  std::vector<ExprPtr> kids;
  kids.reserve(e->num_children());
  bool changed = false;
  for (const ExprPtr& c : e->children()) {
    ExprPtr nc = ReplaceRec(c, target, replacement, target_free);
    if (nc != c) changed = true;
    kids.push_back(std::move(nc));
  }
  return changed ? e->WithChildren(std::move(kids)) : e;
}

/// x, x.a, x.a.b, ... — reading a bound tuple cannot fail.
bool IsVarPath(const ExprPtr& e) {
  const Expr* cur = e.get();
  while (cur->kind() == ExprKind::kFieldAccess) cur = cur->child(0).get();
  return cur->kind() == ExprKind::kVar;
}

bool CannotRaiseValue(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kConst:
    case ExprKind::kVar:
      return true;
    case ExprKind::kFieldAccess:
      return IsVarPath(e);
    case ExprKind::kTupleConstruct:
      for (const ExprPtr& c : e->children()) {
        if (!CannotRaiseValue(c)) return false;
      }
      return true;
    default:
      return false;
  }
}

}  // namespace

bool CannotRaisePred(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return e->const_value().is_bool();
    case ExprKind::kUnary:
      if (e->un_op() == UnOp::kIsEmpty) return CannotRaiseValue(e->child(0));
      return e->un_op() == UnOp::kNot && CannotRaisePred(e->child(0));
    case ExprKind::kBinary:
      switch (e->bin_op()) {
        case BinOp::kAnd:
        case BinOp::kOr:
          return CannotRaisePred(e->child(0)) && CannotRaisePred(e->child(1));
        case BinOp::kIn:
        case BinOp::kContains:
          return CannotRaiseValue(e->child(0)) &&
                 CannotRaiseValue(e->child(1));
        default:
          return IsComparisonOp(e->bin_op()) &&
                 CannotRaiseValue(e->child(0)) &&
                 CannotRaiseValue(e->child(1));
      }
    case ExprKind::kQuantifier:
      return CannotRaiseRange(e->range()) && CannotRaisePred(e->body());
    default:
      return false;
  }
}

bool CannotRaiseRange(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kGetTable:
    case ExprKind::kVar:
    case ExprKind::kConst:
      return true;
    case ExprKind::kFieldAccess:
      return IsVarPath(e);
    case ExprKind::kSelect:
      return CannotRaisePred(e->body()) && CannotRaiseRange(e->input());
    case ExprKind::kMap:
      return CannotRaiseValue(e->body()) && CannotRaiseRange(e->input());
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
      return CannotRaiseRange(e->left()) && CannotRaiseRange(e->right()) &&
             CannotRaisePred(e->pred());
    default:
      return false;
  }
}

ExprPtr ReplaceSubexpr(const ExprPtr& e, const ExprPtr& target,
                       const ExprPtr& replacement) {
  return ReplaceRec(e, target, replacement, FreeVars(target));
}

bool OnlyFieldAccesses(const ExprPtr& e, const std::string& var) {
  if (e->kind() == ExprKind::kVar) {
    return e->name() != var;  // a bare use found by the caller's parent
  }
  for (size_t i = 0; i < e->num_children(); ++i) {
    const ExprPtr& c = e->children()[i];
    // A Var(var) child is fine only when this node is a field access on it.
    if (c->kind() == ExprKind::kVar && c->name() == var) {
      if (!(e->kind() == ExprKind::kFieldAccess && i == 0)) return false;
      continue;
    }
    // Shadowing binder: occurrences below refer to another variable.
    if ((e->var() == var &&
         (e->kind() == ExprKind::kMap || e->kind() == ExprKind::kSelect ||
          e->kind() == ExprKind::kQuantifier ||
          e->kind() == ExprKind::kLet) &&
         i == 1)) {
      continue;
    }
    if (!OnlyFieldAccesses(c, var)) return false;
  }
  return true;
}

SubqueryShape DecomposeSubquery(const ExprPtr& e) {
  SubqueryShape shape;
  ExprPtr cur = e;
  if (cur->kind() == ExprKind::kMap) {
    shape.map_var = cur->var();
    shape.map_body = cur->child(1);
    cur = cur->child(0);
  }
  if (cur->kind() == ExprKind::kSelect) {
    shape.sel_var = cur->var();
    shape.sel_pred = cur->child(1);
    cur = cur->child(0);
  }
  // The remaining expression is the (base-table) operand.
  if (cur->kind() == ExprKind::kMap || cur->kind() == ExprKind::kSelect) {
    // Deeper stacks are handled after the simplify pass fuses them.
    return shape;
  }
  shape.table = cur;
  shape.valid = shape.map_body != nullptr || shape.sel_pred != nullptr;
  return shape;
}

}  // namespace rewrite_internal

const char* TriBoolName(TriBool t) {
  switch (t) {
    case TriBool::kFalse:
      return "false";
    case TriBool::kTrue:
      return "true";
    case TriBool::kUnknown:
      return "?";
  }
  return "?";
}

}  // namespace n2j
