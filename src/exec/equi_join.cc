#include "exec/equi_join.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>

#include "adl/analysis.h"
#include "common/str_util.h"
#include "storage/database.h"

namespace n2j {

std::string EquiJoinKeys::Describe() const {
  std::string out = StrFormat("keys=%zu", left_keys.size());
  if (!residual.empty()) {
    out += StrFormat(" residual=%zu", residual.size());
  }
  return out;
}

namespace {

/// Matches one conjunct against the three membership forms.
bool MatchMembership(const ExprPtr& c, const std::string& lvar,
                     const std::string& rvar, MembershipKey* out) {
  if (c->kind() == ExprKind::kBinary &&
      (c->bin_op() == BinOp::kIn || c->bin_op() == BinOp::kContains)) {
    bool in = c->bin_op() == BinOp::kIn;
    const ExprPtr& probe = c->child(in ? 0 : 1);
    const ExprPtr& container = c->child(in ? 1 : 0);
    if (PlainAttr(container, lvar) == nullptr || IsFreeIn(lvar, probe) ||
        !IsFreeIn(rvar, probe)) {
      return false;
    }
    out->right_key = probe;
    out->attr = container->name();
    return true;
  }
  // ∃v ∈ x.attr · k(v) = f(y)  (either orientation of the equality).
  if (c->kind() != ExprKind::kQuantifier ||
      c->quant_kind() != QuantKind::kExists ||
      PlainAttr(c->child(0), lvar) == nullptr ||
      c->child(1)->kind() != ExprKind::kBinary ||
      c->child(1)->bin_op() != BinOp::kEq) {
    return false;
  }
  const std::string& v = c->var();
  auto elem_side = [&](const ExprPtr& e) {
    return IsFreeIn(v, e) && !IsFreeIn(rvar, e) && !IsFreeIn(lvar, e);
  };
  auto right_side = [&](const ExprPtr& e) {
    return IsFreeIn(rvar, e) && !IsFreeIn(v, e) && !IsFreeIn(lvar, e);
  };
  ExprPtr a = c->child(1)->child(0);
  ExprPtr b = c->child(1)->child(1);
  if (!(elem_side(a) && right_side(b))) std::swap(a, b);
  if (!(elem_side(a) && right_side(b))) return false;
  out->elem_var = v;
  out->elem_key = a;
  out->right_key = b;
  out->attr = c->child(0)->name();
  return true;
}

}  // namespace

EquiJoinKeys ExtractEquiKeys(const ExprPtr& pred, const std::string& lvar,
                             const std::string& rvar) {
  EquiJoinKeys out;
  for (const ExprPtr& conjunct : SplitConjuncts(pred)) {
    if (conjunct->kind() == ExprKind::kBinary &&
        conjunct->bin_op() == BinOp::kEq) {
      const ExprPtr& a = conjunct->child(0);
      const ExprPtr& b = conjunct->child(1);
      bool a_has_l = IsFreeIn(lvar, a);
      bool a_has_r = IsFreeIn(rvar, a);
      bool b_has_l = IsFreeIn(lvar, b);
      bool b_has_r = IsFreeIn(rvar, b);
      if (a_has_l && !a_has_r && b_has_r && !b_has_l) {
        out.left_keys.push_back(a);
        out.right_keys.push_back(b);
        continue;
      }
      if (b_has_l && !b_has_r && a_has_r && !a_has_l) {
        out.left_keys.push_back(b);
        out.right_keys.push_back(a);
        continue;
      }
    }
    out.residual.push_back(conjunct);
  }
  return out;
}

const std::string* PlainAttr(const ExprPtr& e, const std::string& var) {
  if (e->kind() != ExprKind::kFieldAccess) return nullptr;
  const ExprPtr& base = e->child(0);
  if (base->kind() != ExprKind::kVar || base->name() != var) return nullptr;
  return &e->name();
}

const char* JoinMethodName(JoinMethod m) {
  switch (m) {
    case JoinMethod::kNestedLoop: return "nested-loop";
    case JoinMethod::kHash: return "hash";
    case JoinMethod::kIndex: return "index";
    case JoinMethod::kMembership: return "membership";
  }
  return "?";
}

JoinMethod JoinShape::Dispatch(JoinAlgorithm requested) const {
  if (requested == JoinAlgorithm::kNestedLoop) return JoinMethod::kNestedLoop;
  if (requested == JoinAlgorithm::kIndex && index != nullptr) {
    return JoinMethod::kIndex;
  }
  if (keys.usable()) return JoinMethod::kHash;
  return membership.found() ? JoinMethod::kMembership
                            : JoinMethod::kNestedLoop;
}

JoinShape MatchJoin(const Expr& join, const Database* db) {
  JoinShape shape;
  const std::string& lvar = join.var();
  const std::string& rvar = join.var2();
  shape.keys = ExtractEquiKeys(join.pred(), lvar, rvar);
  for (const ExprPtr& c : SplitConjuncts(join.pred())) {
    if (shape.membership.found() ||
        !MatchMembership(c, lvar, rvar, &shape.membership)) {
      shape.membership.residual.push_back(c);
    }
  }
  const ExprPtr& right = join.right();
  if (db != nullptr && right->kind() == ExprKind::kGetTable &&
      shape.keys.left_keys.size() == 1 &&
      PlainAttr(shape.keys.right_keys[0], rvar) != nullptr) {
    shape.index =
        db->FindIndex(right->name(), shape.keys.right_keys[0]->name());
  }
  return shape;
}

// Cached per arity so the per-row path never rebuilds name strings.
const TupleShape* JoinKeyShape(size_t n) {
  constexpr size_t kMaxCached = 16;
  static std::array<std::atomic<const TupleShape*>, kMaxCached> cache{};
  if (n < kMaxCached) {
    const TupleShape* s = cache[n].load(std::memory_order_acquire);
    if (s != nullptr) return s;
  }
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) names.push_back("k" + std::to_string(i));
  const TupleShape* s = TupleShape::Intern(std::move(names));
  if (n < kMaxCached) cache[n].store(s, std::memory_order_release);
  return s;
}

bool IsIdentityInner(const Expr& nestjoin) {
  if (nestjoin.kind() != ExprKind::kNestJoin) return false;
  const Expr& inner = *nestjoin.inner();
  // With var = var2 the right variable shadows the left one; leave that
  // rare form to the general path.
  return inner.kind() == ExprKind::kVar && inner.name() == nestjoin.var2() &&
         nestjoin.var() != nestjoin.var2();
}

Value JoinKeyFromParts(std::vector<Value> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  Value* slots = nullptr;
  Value key = Value::NewTuple(JoinKeyShape(parts.size()), &slots);
  std::move(parts.begin(), parts.end(), slots);
  return key;
}

}  // namespace n2j
