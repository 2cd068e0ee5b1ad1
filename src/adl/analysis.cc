#include "adl/analysis.h"

#include <algorithm>

#include "common/status.h"

namespace n2j {

namespace {

/// True if child `i` of `e` sees `e`'s `var_` / `var2_` bound; the other
/// children see the enclosing scope.
bool IsBoundChild(const Expr& e, size_t i) {
  switch (e.kind()) {
    case ExprKind::kLet:
    case ExprKind::kMap:
    case ExprKind::kSelect:
    case ExprKind::kQuantifier:
      return i == 1;
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
      return i == 2;
    case ExprKind::kNestJoin:
      return i == 2 || i == 3;
    default:
      return false;
  }
}

/// Names borrowed from a tree's nodes, which outlive the walk.
using NameRefs = std::vector<const std::string*>;

/// Appends every free occurrence in `e` (duplicates included); `bound`
/// is the stack of binders in scope.
void CollectFree(const Expr& e, NameRefs& bound, NameRefs* out) {
  if (e.kind() == ExprKind::kVar) {
    for (const std::string* b : bound) {
      if (*b == e.name()) return;
    }
    out->push_back(&e.name());
    return;
  }
  for (size_t i = 0; i < e.num_children(); ++i) {
    const size_t depth = bound.size();
    if (IsBoundChild(e, i)) {
      if (!e.var().empty()) bound.push_back(&e.var());
      if (!e.var2().empty()) bound.push_back(&e.var2());
    }
    CollectFree(*e.child(i), bound, out);
    bound.resize(depth);
  }
}

bool NameLess(const std::string* a, const std::string* b) { return *a < *b; }

/// Sorts `names` by value and drops repeats.
void SortUnique(NameRefs* names) {
  std::sort(names->begin(), names->end(), NameLess);
  names->erase(std::unique(names->begin(), names->end(),
                           [](const std::string* a, const std::string* b) {
                             return *a == *b;
                           }),
               names->end());
}

}  // namespace

bool HasVar(const VarSet& vars, const std::string& v) {
  return std::binary_search(vars.begin(), vars.end(), v);
}

VarSet FreeVars(const ExprPtr& e) {
  NameRefs bound;
  NameRefs free;
  CollectFree(*e, bound, &free);
  SortUnique(&free);
  VarSet out;
  out.reserve(free.size());
  for (const std::string* v : free) out.push_back(*v);
  return out;
}

bool IsFreeIn(const std::string& var, const ExprPtr& e) {
  if (e->kind() == ExprKind::kVar) return e->name() == var;
  const bool binds = e->var() == var || e->var2() == var;
  for (size_t i = 0; i < e->num_children(); ++i) {
    if (binds && IsBoundChild(*e, i)) continue;
    if (IsFreeIn(var, e->child(i))) return true;
  }
  return false;
}

bool ContainsBaseTable(const ExprPtr& e) {
  if (e->kind() == ExprKind::kGetTable) return true;
  for (const ExprPtr& c : e->children()) {
    if (ContainsBaseTable(c)) return true;
  }
  return false;
}

bool IsUncorrelated(const ExprPtr& e,
                    const std::vector<std::string>& vars) {
  VarSet free = FreeVars(e);
  for (const std::string& v : vars) {
    if (HasVar(free, v)) return false;
  }
  return true;
}

namespace {

void CollectAllVars(const Expr& e, NameRefs* out) {
  if (e.kind() == ExprKind::kVar) out->push_back(&e.name());
  if (!e.var().empty()) out->push_back(&e.var());
  if (!e.var2().empty()) out->push_back(&e.var2());
  for (const ExprPtr& c : e.children()) CollectAllVars(*c, out);
}

/// Rebuilds a binder node with a renamed bound variable (var or var2).
ExprPtr RenameBinder(const ExprPtr& e, bool second, const std::string& fresh) {
  const std::string& old = second ? e->var2() : e->var();
  std::vector<ExprPtr> kids;
  kids.reserve(e->num_children());
  for (size_t i = 0; i < e->num_children(); ++i) {
    if (IsBoundChild(*e, i)) {
      kids.push_back(Substitute(e->child(i), old, Expr::Var(fresh)));
    } else {
      kids.push_back(e->child(i));
    }
  }
  ExprPtr rebuilt = e->WithChildren(std::move(kids));
  // WithChildren copies scalars; patch the variable by rebuilding through
  // the generic path: we need a mutable copy, so reconstruct via a second
  // WithChildren after swapping names is not possible. Instead rebuild the
  // node from scratch per kind.
  switch (e->kind()) {
    case ExprKind::kLet:
      return Expr::Let(fresh, rebuilt->child(0), rebuilt->child(1));
    case ExprKind::kMap:
      return Expr::Map(fresh, rebuilt->child(1), rebuilt->child(0));
    case ExprKind::kSelect:
      return Expr::Select(fresh, rebuilt->child(1), rebuilt->child(0));
    case ExprKind::kQuantifier:
      return Expr::Quant(e->quant_kind(), fresh, rebuilt->child(0),
                         rebuilt->child(1));
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin: {
      std::string lv = second ? e->var() : fresh;
      std::string rv = second ? fresh : e->var2();
      if (e->kind() == ExprKind::kJoin) {
        return Expr::Join(rebuilt->child(0), rebuilt->child(1), lv, rv,
                          rebuilt->child(2));
      }
      if (e->kind() == ExprKind::kSemiJoin) {
        return Expr::SemiJoin(rebuilt->child(0), rebuilt->child(1), lv, rv,
                              rebuilt->child(2));
      }
      return Expr::AntiJoin(rebuilt->child(0), rebuilt->child(1), lv, rv,
                            rebuilt->child(2));
    }
    case ExprKind::kNestJoin: {
      std::string lv = second ? e->var() : fresh;
      std::string rv = second ? fresh : e->var2();
      return Expr::NestJoin(rebuilt->child(0), rebuilt->child(1), lv, rv,
                            rebuilt->child(2), e->name(), rebuilt->child(3));
    }
    default:
      N2J_CHECK(false);
      return e;
  }
}

}  // namespace

std::set<std::string> AllVars(const ExprPtr& e) {
  NameRefs vars;
  CollectAllVars(*e, &vars);
  std::set<std::string> out;
  for (const std::string* v : vars) out.insert(*v);
  return out;
}

namespace {

/// Substitute with the replacement's free variables computed once.
ExprPtr SubstituteRec(const ExprPtr& e, const std::string& var,
                      const ExprPtr& replacement, const VarSet& repl_free) {
  if (e->kind() == ExprKind::kVar) {
    return e->name() == var ? replacement : e;
  }
  ExprPtr node = e;
  // Alpha-rename binders that would capture free variables of the
  // replacement, or that shadow `var` (in which case the bound children
  // must not be rewritten).
  for (int pass = 0; pass < 2; ++pass) {
    bool second = pass == 1;
    const std::string& bv = second ? node->var2() : node->var();
    if (bv.empty() || bv == var) continue;
    if (HasVar(repl_free, bv)) {
      // Would capture: rename the binder first.
      std::string fresh = FreshVar(bv, {node, replacement});
      node = RenameBinder(node, second, fresh);
    }
  }
  bool shadowed = node->var() == var || node->var2() == var;
  std::vector<ExprPtr> kids;
  kids.reserve(node->num_children());
  bool changed = false;
  for (size_t i = 0; i < node->num_children(); ++i) {
    if (shadowed && IsBoundChild(*node, i)) {
      kids.push_back(node->child(i));
      continue;
    }
    ExprPtr nc = SubstituteRec(node->child(i), var, replacement, repl_free);
    if (nc != node->child(i)) changed = true;
    kids.push_back(std::move(nc));
  }
  if (!changed && node == e) return e;
  return node->WithChildren(std::move(kids));
}

}  // namespace

ExprPtr Substitute(const ExprPtr& e, const std::string& var,
                   const ExprPtr& replacement) {
  // A variable leaf needs no free-variable set.
  if (e->kind() == ExprKind::kVar) {
    return e->name() == var ? replacement : e;
  }
  return SubstituteRec(e, var, replacement, FreeVars(replacement));
}

std::string FreshVar(const std::string& hint, const ExprPtr& e) {
  return FreshVar(hint, std::vector<ExprPtr>{e});
}

std::string FreshVar(const std::string& hint,
                     const std::vector<ExprPtr>& exprs) {
  NameRefs used;
  for (const ExprPtr& e : exprs) CollectAllVars(*e, &used);
  SortUnique(&used);
  auto taken = [&used](const std::string& name) {
    return std::binary_search(used.begin(), used.end(), &name, NameLess);
  };
  if (!taken(hint)) return hint;
  for (int i = 1;; ++i) {
    std::string cand = hint + std::to_string(i);
    if (!taken(cand)) return cand;
  }
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (pred->kind() == ExprKind::kBinary && pred->bin_op() == BinOp::kAnd) {
    for (const ExprPtr& side : {pred->child(0), pred->child(1)}) {
      std::vector<ExprPtr> sub = SplitConjuncts(side);
      out.insert(out.end(), sub.begin(), sub.end());
    }
  } else {
    out.push_back(pred);
  }
  return out;
}

bool DeeperThan(const Expr& e, size_t limit) {
  std::vector<std::pair<const Expr*, size_t>> stack = {{&e, 1}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    if (depth > limit) return true;
    for (const ExprPtr& c : node->children()) {
      stack.emplace_back(c.get(), depth + 1);
    }
  }
  return false;
}

void VisitPreOrder(const ExprPtr& e,
                   const std::function<void(const ExprPtr&)>& fn) {
  fn(e);
  for (const ExprPtr& c : e->children()) VisitPreOrder(c, fn);
}

bool IsComprehensionShaped(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kMap:
    case ExprKind::kSelect:
    case ExprKind::kFlatten:
    case ExprKind::kGetTable:
      return true;
    default:
      return false;
  }
}

}  // namespace n2j
