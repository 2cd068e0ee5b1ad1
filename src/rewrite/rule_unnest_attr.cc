// Optimization option 1 (Section 4): unnesting of set-valued attributes.
//
// When nesting is caused by iteration over a set-valued attribute c and
// the enclosing query drops c from its result (so the nest phase can be
// skipped) and the quantification is existential (so losing tuples with
// empty c is harmless), the iteration can be flattened with µ_c:
//
//   π_A(σ[x : ∃z∈x.c·φ ∧ rest](X))
//     ⇒ π_A(σ[x' : φ' ∧ rest'](µ_c(X)))
//
// (Example Query 4: suppliers violating referential integrity.) The same
// applies when the consumer is a map that does not touch c. A following
// Rule 1 round then turns φ' (which involves a base table) into a
// semijoin or antijoin.

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

/// True if `e` contains the subexpression `var`.`attr` anywhere.
bool UsesAttr(const ExprPtr& e, const std::string& var,
              const std::string& attr) {
  bool found = false;
  VisitPreOrder(e, [&](const ExprPtr& n) {
    if (n->kind() == ExprKind::kFieldAccess && n->name() == attr &&
        n->child(0)->kind() == ExprKind::kVar &&
        n->child(0)->name() == var) {
      found = true;
    }
  });
  return found;
}

struct UnnestPlan {
  ExprPtr new_select;  // σ[x' : ...](µ_c(X))
  std::string new_var;
};

/// Tries to build the unnested selection for σ[x : P](X) given that the
/// consumer drops attribute(s) not used; `used_attrs_ok` tells whether
/// attribute `c` is referenced by the consumer.
bool BuildUnnest(const ExprPtr& select_node, RewriteContext& ctx,
                 const std::function<bool(const std::string&)>& consumer_uses,
                 UnnestPlan* plan) {
  const std::string& x = select_node->var();
  const ExprPtr& X = select_node->child(0);
  std::vector<ExprPtr> conjuncts = SplitConjuncts(select_node->child(1));

  // Find a conjunct ∃z ∈ x.c · φ with a base table inside φ.
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const ExprPtr& c = conjuncts[i];
    if (c->kind() != ExprKind::kQuantifier ||
        c->quant_kind() != QuantKind::kExists) {
      continue;
    }
    const ExprPtr& range = c->child(0);
    if (!(range->kind() == ExprKind::kFieldAccess &&
          range->child(0)->kind() == ExprKind::kVar &&
          range->child(0)->name() == x)) {
      continue;
    }
    const std::string& attr = range->name();
    const ExprPtr& phi = c->child(1);
    if (!ContainsBaseTable(phi)) continue;
    if (consumer_uses(attr)) continue;  // nest phase would be required

    // The remaining conjuncts and φ must not touch x.`attr` (it is gone
    // after unnesting) and must use x only through field accesses.
    bool blocked = UsesAttr(phi, x, attr);
    for (size_t j = 0; j < conjuncts.size() && !blocked; ++j) {
      if (j == i) continue;
      blocked = UsesAttr(conjuncts[j], x, attr) ||
                !OnlyFieldAccesses(conjuncts[j], x);
    }
    if (blocked || !OnlyFieldAccesses(phi, x)) continue;

    // Types: µ requires the attribute to be a set of tuples whose fields
    // do not collide with the remaining fields of X's tuples.
    TypeChecker checker = ctx.MakeChecker();
    Result<TypePtr> xt = checker.Infer(X);
    if (!xt.ok() || !(*xt)->is_set() || !(*xt)->element()->is_tuple()) {
      continue;
    }
    TypePtr attr_type = (*xt)->element()->FindField(attr);
    if (attr_type == nullptr || !attr_type->is_set() ||
        !attr_type->element()->is_tuple()) {
      continue;
    }
    std::vector<std::string> elem_fields =
        attr_type->element()->FieldNames();
    bool collision = false;
    for (const std::string& f : elem_fields) {
      if (f != attr && (*xt)->element()->FindField(f) != nullptr) {
        collision = true;
        break;
      }
    }
    if (collision) continue;

    // Build σ[x' : φ' ∧ rest'](µ_attr(X)).
    std::string xp = FreshVar(x, select_node);
    ExprPtr z_repl = Expr::TupleProject(Expr::Var(xp), elem_fields);
    ExprPtr phi2 = Substitute(phi, c->var(), z_repl);
    phi2 = Substitute(phi2, x, Expr::Var(xp));
    std::vector<ExprPtr> new_conjuncts = {phi2};
    for (size_t j = 0; j < conjuncts.size(); ++j) {
      if (j == i) continue;
      new_conjuncts.push_back(Substitute(conjuncts[j], x, Expr::Var(xp)));
    }
    ctx.Note("UnnestAttribute", select_node);
    plan->new_select = Expr::Select(xp, Expr::AndAll(new_conjuncts),
                                    Expr::Unnest(X, attr));
    plan->new_var = xp;
    return true;
  }
  return false;
}

}  // namespace

ExprPtr ApplyUnnestAttr(const ExprPtr& e, RewriteContext& ctx) {
  // Shape 1: π_A(σ[x : P](X)) with the unnested attribute not in A.
  if (e->kind() == ExprKind::kProject &&
      e->child(0)->kind() == ExprKind::kSelect) {
    const ExprPtr& sel = e->child(0);
    UnnestPlan plan;
    auto consumer_uses = [&e](const std::string& attr) {
      for (const std::string& a : e->names()) {
        if (a == attr) return true;
      }
      return false;
    };
    if (BuildUnnest(sel, ctx, consumer_uses, &plan)) {
      return Expr::Project(plan.new_select, e->names());
    }
  }
  // Shape 2: α[v : F](σ[x : P](X)) with F not touching the attribute.
  if (e->kind() == ExprKind::kMap &&
      e->child(0)->kind() == ExprKind::kSelect) {
    const ExprPtr& sel = e->child(0);
    const std::string& v = e->var();
    const ExprPtr& F = e->child(1);
    if (!OnlyFieldAccesses(F, v)) return nullptr;
    UnnestPlan plan;
    auto consumer_uses = [&](const std::string& attr) {
      return UsesAttr(F, v, attr);
    };
    if (BuildUnnest(sel, ctx, consumer_uses, &plan)) {
      return Expr::Map(v, F, plan.new_select);
    }
  }
  return nullptr;
}

}  // namespace rewrite_internal
}  // namespace n2j
