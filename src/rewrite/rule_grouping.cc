// Unnesting by grouping (Section 5.2.2) and the nestjoin (Section 6.1).
//
// Target shape — the paper's general two-block format:
//
//   σ[x : P(x, Y')](X)   or   α[x : F(x, Y')](X)
//   with  Y' = α[v : G](σ[y : Q(x, y)](Y))        (G optional)
//
// where Y' is a correlated subquery over a base table Y.
//
// The [GaWo87] grouping technique produces the flat plan
//
//   π_SCH(X)(σ[z : P'](ν_{SCH(Y)→ys}(X ⋈_{x,y:Q} Y)))
//
// which loses dangling X tuples in the join — the Complex Object bug
// (Figure 2). Whether that is a bug depends on the static value of
// P(x, ∅) (Table 3): the plan is guaranteed correct only when P(x, ∅)
// reduces to false. The nestjoin plan
//
//   π_SCH(X)(σ[z : P'](X ⊣_{x,y : Q ; G ; ys} Y))
//
// keeps dangling tuples (concatenating them with ys = ∅) and is always
// correct.

#include <optional>

#include "rewrite/rules_internal.h"

namespace n2j {
namespace rewrite_internal {

namespace {

// ---- Static partial evaluation of P(x, ∅)  (Table 3) --------------------

struct PartialValue {
  bool known = false;
  Value value;

  static PartialValue Unknown() { return PartialValue(); }
  static PartialValue Known(Value v) {
    PartialValue pv;
    pv.known = true;
    pv.value = std::move(v);
    return pv;
  }
  bool IsEmptySet() const {
    return known && value.is_set() && value.set_size() == 0;
  }
  bool IsBool(bool b) const {
    return known && value.is_bool() && value.bool_value() == b;
  }
};

PartialValue PEval(const ExprPtr& e);

TriBool PBool(const ExprPtr& e) {
  PartialValue pv = PEval(e);
  if (pv.known && pv.value.is_bool()) {
    return pv.value.bool_value() ? TriBool::kTrue : TriBool::kFalse;
  }
  return TriBool::kUnknown;
}

PartialValue PEval(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return PartialValue::Known(e->const_value());

    case ExprKind::kUnary: {
      PartialValue a = PEval(e->child(0));
      switch (e->un_op()) {
        case UnOp::kNot:
          if (a.known && a.value.is_bool()) {
            return PartialValue::Known(Value::Bool(!a.value.bool_value()));
          }
          return PartialValue::Unknown();
        case UnOp::kNeg:
          if (a.known && a.value.is_numeric()) {
            return PartialValue::Known(
                a.value.is_int() ? Value::Int(-a.value.int_value())
                                 : Value::Double(-a.value.double_value()));
          }
          return PartialValue::Unknown();
        case UnOp::kIsEmpty:
          if (a.known && a.value.is_set()) {
            return PartialValue::Known(Value::Bool(a.value.set_size() == 0));
          }
          return PartialValue::Unknown();
      }
      return PartialValue::Unknown();
    }

    case ExprKind::kAggregate: {
      PartialValue a = PEval(e->child(0));
      if (e->agg_kind() == AggKind::kCount && a.known && a.value.is_set()) {
        return PartialValue::Known(
            Value::Int(static_cast<int64_t>(a.value.set_size())));
      }
      return PartialValue::Unknown();
    }

    case ExprKind::kQuantifier: {
      PartialValue range = PEval(e->child(0));
      if (range.IsEmptySet()) {
        // Quantification over the empty set: ∃ → false, ∀ → true.
        return PartialValue::Known(
            Value::Bool(e->quant_kind() == QuantKind::kForall));
      }
      return PartialValue::Unknown();
    }

    case ExprKind::kBinary: {
      PartialValue a = PEval(e->child(0));
      PartialValue b = PEval(e->child(1));
      BinOp op = e->bin_op();

      // Three-valued boolean connectives.
      if (op == BinOp::kAnd) {
        if (a.IsBool(false) || b.IsBool(false)) {
          return PartialValue::Known(Value::Bool(false));
        }
        if (a.IsBool(true) && b.IsBool(true)) {
          return PartialValue::Known(Value::Bool(true));
        }
        return PartialValue::Unknown();
      }
      if (op == BinOp::kOr) {
        if (a.IsBool(true) || b.IsBool(true)) {
          return PartialValue::Known(Value::Bool(true));
        }
        if (a.IsBool(false) && b.IsBool(false)) {
          return PartialValue::Known(Value::Bool(false));
        }
        return PartialValue::Unknown();
      }

      // Fully known comparisons.
      if (a.known && b.known && IsComparisonOp(op)) {
        int c = a.value.Compare(b.value);
        bool r = false;
        switch (op) {
          case BinOp::kEq: r = c == 0; break;
          case BinOp::kNe: r = c != 0; break;
          case BinOp::kLt: r = c < 0; break;
          case BinOp::kLe: r = c <= 0; break;
          case BinOp::kGt: r = c > 0; break;
          case BinOp::kGe: r = c >= 0; break;
          default: break;
        }
        return PartialValue::Known(Value::Bool(r));
      }

      // Set comparisons against a known-empty side (the Table 3 rules).
      bool l_empty = a.IsEmptySet();
      bool r_empty = b.IsEmptySet();
      if (l_empty || r_empty) {
        switch (op) {
          case BinOp::kIn:  // v ∈ ∅ = false
            if (r_empty) return PartialValue::Known(Value::Bool(false));
            break;
          case BinOp::kContains:  // ∅ ∋ v = false
            if (l_empty) return PartialValue::Known(Value::Bool(false));
            break;
          case BinOp::kSubset:  // c ⊂ ∅ = false ; ∅ ⊂ r = ? (r nonempty?)
            if (r_empty) return PartialValue::Known(Value::Bool(false));
            break;
          case BinOp::kSubsetEq:  // ∅ ⊆ r = true ; c ⊆ ∅ = ?
            if (l_empty) return PartialValue::Known(Value::Bool(true));
            break;
          case BinOp::kSupset:  // ∅ ⊃ r = false ; c ⊃ ∅ = ?
            if (l_empty) return PartialValue::Known(Value::Bool(false));
            break;
          case BinOp::kSupsetEq:  // c ⊇ ∅ = true ; ∅ ⊇ r = ?
            if (r_empty) return PartialValue::Known(Value::Bool(true));
            break;
          case BinOp::kIntersectOp:  // ∅ ∩ e = e ∩ ∅ = ∅
            return PartialValue::Known(Value::EmptySet());
          case BinOp::kDifferenceOp:  // ∅ − e = ∅
            if (l_empty) return PartialValue::Known(Value::EmptySet());
            break;
          default:
            break;
        }
      }
      // Fully known set operations / comparisons.
      if (a.known && b.known && a.value.is_set() && b.value.is_set()) {
        switch (op) {
          case BinOp::kSubset:
            return PartialValue::Known(
                Value::Bool(a.value.IsSubsetOf(b.value, true)));
          case BinOp::kSubsetEq:
            return PartialValue::Known(
                Value::Bool(a.value.IsSubsetOf(b.value, false)));
          case BinOp::kSupset:
            return PartialValue::Known(
                Value::Bool(b.value.IsSubsetOf(a.value, true)));
          case BinOp::kSupsetEq:
            return PartialValue::Known(
                Value::Bool(b.value.IsSubsetOf(a.value, false)));
          case BinOp::kUnionOp:
            return PartialValue::Known(a.value.SetUnion(b.value));
          case BinOp::kIntersectOp:
            return PartialValue::Known(a.value.SetIntersect(b.value));
          case BinOp::kDifferenceOp:
            return PartialValue::Known(a.value.SetDifference(b.value));
          default:
            break;
        }
      }
      return PartialValue::Unknown();
    }

    default:
      return PartialValue::Unknown();
  }
}

// ---- Candidate search ----------------------------------------------------

struct Candidate {
  ExprPtr subquery;  // the S node inside P / F
  SubqueryShape shape;
};

/// Searches `e` for a candidate subquery over x. `allowed_free` holds
/// the free variables of the enclosing iterator; it is computed on the
/// first shape that needs it, most sites having none.
bool FindCandidateRec(const ExprPtr& e, const std::string& x,
                      const ExprPtr& iterator,
                      std::optional<VarSet>* allowed_free, Candidate* out) {
  if ((e->kind() == ExprKind::kSelect || e->kind() == ExprKind::kMap) &&
      IsFreeIn(x, e)) {
    SubqueryShape shape = DecomposeSubquery(e);
    if (shape.valid && shape.table != nullptr &&
        !IsFreeIn(x, shape.table) && ContainsBaseTable(shape.table)) {
      // All other free variables of the subquery must be visible at the
      // level of the enclosing iterator (not bound in between).
      if (!allowed_free->has_value()) *allowed_free = FreeVars(iterator);
      bool ok = true;
      for (const std::string& v : FreeVars(e)) {
        if (v != x && !HasVar(**allowed_free, v)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        out->subquery = e;
        out->shape = shape;
        return true;
      }
    }
  }
  for (const ExprPtr& c : e->children()) {
    if (FindCandidateRec(c, x, iterator, allowed_free, out)) return true;
  }
  return false;
}

// ---- The rewrite ---------------------------------------------------------

}  // namespace

ExprPtr ApplyGrouping(const ExprPtr& e, RewriteContext& ctx) {
  bool is_select = e->kind() == ExprKind::kSelect;
  bool is_map = e->kind() == ExprKind::kMap;
  if (!is_select && !is_map) return nullptr;
  if (ctx.options.grouping == GroupingMode::kNone) return nullptr;

  const std::string& x = e->var();
  const ExprPtr& X = e->child(0);
  const ExprPtr& P = e->child(1);  // predicate (σ) or result function (α)

  Candidate cand;
  std::optional<VarSet> allowed;
  if (!FindCandidateRec(P, x, e, &allowed, &cand)) return nullptr;

  // Normalize the shape: y is the join variable over Y, Q the join
  // predicate, G the optional inner function.
  std::string y;
  ExprPtr Q;
  ExprPtr G;
  if (!cand.shape.sel_var.empty()) {
    y = cand.shape.sel_var;
    Q = cand.shape.sel_pred;
    if (cand.shape.map_body != nullptr) {
      G = Substitute(cand.shape.map_body, cand.shape.map_var, Expr::Var(y));
    }
  } else {
    y = cand.shape.map_var;
    Q = Expr::True();
    G = cand.shape.map_body;
  }
  const ExprPtr& Y = cand.shape.table;
  if (y == x) return nullptr;  // degenerate shadowing; leave nested

  // Schemas (ADL is typed; SCH drives the substitutions).
  TypeChecker checker = ctx.MakeChecker();
  TypeEnv env;
  Result<std::vector<std::string>> xs = checker.SchemaOf(X, env);
  if (!xs.ok()) return nullptr;
  std::vector<std::string> sch_x = *xs;

  // Result attribute name, fresh w.r.t. SCH(X).
  std::string ys = "ys";
  for (int i = 1;; ++i) {
    bool clash = false;
    for (const std::string& a : sch_x) {
      if (a == ys) {
        clash = true;
        break;
      }
    }
    if (!clash) break;
    ys = "ys" + std::to_string(i);
  }

  std::string z = FreshVar("z", e);

  // Decide between the grouping plan and the nestjoin plan.
  bool want_grouping =
      ctx.options.grouping == GroupingMode::kGroupingWhenSafe ||
      ctx.options.grouping == GroupingMode::kForceGroupingUnsafe;
  TriBool p_empty = TriBool::kUnknown;
  if (want_grouping && is_select) {
    ExprPtr p_with_empty = ReplaceSubexpr(
        P, cand.subquery, Expr::Const(Value::EmptySet()));
    p_empty = PBool(p_with_empty);
  }
  bool grouping_safe = is_select && p_empty == TriBool::kFalse;
  bool use_grouping =
      want_grouping &&
      (grouping_safe ||
       (ctx.options.grouping == GroupingMode::kForceGroupingUnsafe &&
        is_select));

  ExprPtr joined;
  ExprPtr group_value;  // what Y' becomes in P'
  if (use_grouping) {
    // The relational plan concatenates X- and Y-tuples in the join, so
    // colliding attribute names of Y are renamed first (and mapped back
    // when the group is consumed).
    Result<std::vector<std::string>> ysch = checker.SchemaOf(Y, env);
    if (!ysch.ok() || !OnlyFieldAccesses(Q, y) ||
        (G != nullptr && !OnlyFieldAccesses(G, y))) {
      use_grouping = false;
    } else {
      std::vector<std::string> y_orig = *ysch;
      std::vector<std::string> y_ren = y_orig;
      bool collides = false;
      for (std::string& a : y_ren) {
        for (const std::string& b : sch_x) {
          if (a == b) {
            collides = true;
            // Pick a name clashing with neither schema.
            std::string cand_name = a + "_r";
            for (int i = 1;; ++i) {
              bool bad = false;
              for (const std::string& c : sch_x) bad |= c == cand_name;
              for (const std::string& c : y_orig) bad |= c == cand_name;
              if (!bad) break;
              cand_name = a + "_r" + std::to_string(i);
            }
            a = cand_name;
            break;
          }
        }
      }
      ExprPtr y_operand = Y;
      ExprPtr q_ren = Q;
      ExprPtr g_ren = G;
      if (collides) {
        // Y_r = α[y : (a_r = y.a, ...)](Y); rewrite y.a → y.a_r in Q/G.
        std::vector<ExprPtr> vals;
        for (const std::string& a : y_orig) {
          vals.push_back(Expr::Access(Expr::Var(y), a));
        }
        y_operand = Expr::Map(
            y, Expr::TupleConstruct(y_ren, std::move(vals)), Y);
        auto rename_refs = [&](const ExprPtr& expr) {
          ExprPtr out = expr;
          for (size_t i = 0; i < y_orig.size(); ++i) {
            if (y_orig[i] == y_ren[i]) continue;
            out = ReplaceSubexpr(out,
                                 Expr::Access(Expr::Var(y), y_orig[i]),
                                 Expr::Access(Expr::Var(y), y_ren[i]));
          }
          return out;
        };
        q_ren = rename_refs(Q);
        if (G != nullptr) {
          g_ren = rename_refs(G);
        } else {
          // Without an inner function the group must carry the original
          // attribute names; map them back.
          std::vector<ExprPtr> back;
          for (const std::string& a : y_ren) {
            back.push_back(Expr::Access(Expr::Var(y), a));
          }
          g_ren = Expr::TupleConstruct(y_orig, std::move(back));
        }
      }
      joined = Expr::Nest(Expr::Join(X, y_operand, x, y, q_ren), y_ren, ys);
      group_value = Expr::Access(Expr::Var(z), ys);
      if (g_ren != nullptr) {
        group_value = Expr::Map(y, g_ren, group_value);
      }
      ctx.Note(grouping_safe ? "GroupingUnnest(safe)"
                             : "GroupingUnnest(UNSAFE-forced)",
               cand.subquery,
               std::string(" ; P(x,∅) = ") + TriBoolName(p_empty));
    }
  }
  if (!use_grouping) {
    if (ctx.options.grouping == GroupingMode::kGroupingWhenSafe &&
        is_select) {
      // Fall through to the nestjoin; record why.
      ctx.Note("GroupingRejected", nullptr,
               "P(x,∅) = " + std::string(TriBoolName(p_empty)) +
                   " — using nestjoin instead");
    }
    joined = Expr::NestJoin(X, Y, x, y, Q, ys, G);
    group_value = Expr::Access(Expr::Var(z), ys);
    ctx.Note("NestJoinRewrite", cand.subquery);
  }

  // P' = P[Y'/z.ys][x/z or z[SCH(X)]].
  ExprPtr p2 = ReplaceSubexpr(P, cand.subquery, group_value);
  if (OnlyFieldAccesses(p2, x)) {
    p2 = Substitute(p2, x, Expr::Var(z));
  } else {
    p2 = Substitute(p2, x, Expr::TupleProject(Expr::Var(z), sch_x));
  }

  if (is_select) {
    return Expr::Project(Expr::Select(z, p2, joined), sch_x);
  }
  return Expr::Map(z, p2, joined);
}

}  // namespace rewrite_internal

TriBool StaticValueWithEmptySubquery(const ExprPtr& pred,
                                     const ExprPtr& subquery) {
  ExprPtr p = rewrite_internal::ReplaceSubexpr(
      pred, subquery, Expr::Const(Value::EmptySet()));
  return rewrite_internal::PBool(p);
}

}  // namespace n2j
