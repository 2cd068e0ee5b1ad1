#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "adl/analysis.h"
#include "common/str_util.h"
#include "exec/equi_join.h"
#include "opt/cost.h"
#include "stats/cardinality.h"
#include "stats/stats.h"

namespace n2j {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDefaultRows = 1000.0;
/// A reorder must beat the original order by this factor to be worth
/// the field-order-restoring map it needs.
constexpr double kReorderGain = 0.95;
constexpr size_t kMaxDpLeaves = 10;

/// Plan-line name of a non-join operator.
const char* OpName(ExprKind k) {
  switch (k) {
    case ExprKind::kMap: return "map";
    case ExprKind::kSelect: return "select";
    case ExprKind::kProject: return "project";
    case ExprKind::kFlatten: return "flatten";
    case ExprKind::kNest: return "nest";
    case ExprKind::kUnnest: return "unnest";
    case ExprKind::kProduct: return "product";
    case ExprKind::kDivide: return "divide";
    case ExprKind::kUnion: return "union";
    case ExprKind::kIntersect: return "intersect";
    case ExprKind::kDifference: return "difference";
    default: return "op";
  }
}

const char* JoinOpName(ExprKind k) {
  switch (k) {
    case ExprKind::kSemiJoin:
      return "semijoin";
    case ExprKind::kAntiJoin:
      return "antijoin";
    case ExprKind::kNestJoin:
      return "nestjoin";
    default:
      return "join";
  }
}

struct Choice {
  JoinAlgorithm algo = JoinAlgorithm::kNestedLoop;
  const char* label = "nested-loop";
  double cost = kInf;
};

/// Estimated rows of the set-valued operators inside `e` (table scans,
/// maps, selects, ...): the work of evaluating `e` once when it holds a
/// subquery. Operators without an estimate count nothing.
double SubqueryRows(CardinalityEstimator& est, const ExprPtr& e) {
  double rows = 0.0;
  VisitPreOrder(e, [&](const ExprPtr& x) {
    switch (x->kind()) {
      case ExprKind::kGetTable:
      case ExprKind::kMap:
      case ExprKind::kSelect:
      case ExprKind::kProject:
      case ExprKind::kFlatten:
      case ExprKind::kNest:
      case ExprKind::kUnnest:
      case ExprKind::kProduct:
      case ExprKind::kJoin:
      case ExprKind::kSemiJoin:
      case ExprKind::kAntiJoin:
      case ExprKind::kNestJoin:
      case ExprKind::kDivide:
      case ExprKind::kUnion:
      case ExprKind::kIntersect:
      case ExprKind::kDifference:
        rows += std::max(0.0, est.Estimate(x).rows);
        break;
      default:
        break;
    }
  });
  return rows;
}

double SubqueryRows(CardinalityEstimator& est,
                    const std::vector<ExprPtr>& keys) {
  double rows = 0.0;
  for (const ExprPtr& k : keys) rows += SubqueryRows(est, k);
  return rows;
}

/// Prices the operator each requestable algorithm dispatches to on this
/// node's shape — exactly what the evaluator would run — and returns
/// the cheapest request.
Choice ChooseJoin(const Database& db, CardinalityEstimator& est,
                  const Expr& e, const RelEstimate& l, const RelEstimate& r,
                  double out, double matches) {
  double lr = l.RowsOr(kDefaultRows);
  double rr = r.RowsOr(kDefaultRows);
  JoinShape shape = MatchJoin(e, &db);
  // Set elements per left row behind a membership conjunct (4 when the
  // container has no stats): the membership join's probes per row, and
  // what a nested loop's membership test costs per pair.
  double fanout = 4.0;
  // A nested-loop pair's work in predicate evaluations.
  double pair_work = 1.0;
  if (shape.membership.found()) {
    const AttrStats* cs = l.Find(shape.membership.attr);
    if (cs != nullptr && cs->set_valued) {
      fanout = std::max(1.0, cs->avg_fanout);
    }
    if (shape.membership.elem_key != nullptr) {
      // ∃v ∈ x.c · k(v) = f(y): the quantifier walks the set.
      pair_work = fanout;
    } else {
      // f(y) ∈ x.c: build the projection f(y), then binary-search the
      // canonical set x.c.
      pair_work = MembershipTestWork(fanout);
    }
  }
  // Subqueries in the predicate, one predicate evaluation per row they
  // produce: a nested loop runs them for every pair, while the hashed
  // joins run each side's keys once per row of that side.
  pair_work += SubqueryRows(est, e.pred());
  const double left_key_work =
      PredEvalCost(lr * SubqueryRows(est, shape.keys.left_keys));
  const double right_key_work =
      PredEvalCost(rr * SubqueryRows(est, shape.keys.right_keys));

  Choice best;
  for (JoinAlgorithm a : {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash,
                          JoinAlgorithm::kIndex}) {
    JoinMethod m = shape.Dispatch(a);
    double cost = kInf;
    switch (m) {
      case JoinMethod::kNestedLoop:
        cost = NestedLoopJoinCost(lr * pair_work, rr, out);
        break;
      case JoinMethod::kHash:
        cost = HashJoinCost(lr, rr, out) + left_key_work + right_key_work;
        break;
      case JoinMethod::kIndex:
        cost = IndexJoinCost(lr, matches, out) + left_key_work;
        break;
      case JoinMethod::kMembership:
        cost = MembershipJoinCost(lr * fanout, rr, out) +
               PredEvalCost(rr * SubqueryRows(est, shape.membership.right_key));
        break;
    }
    if (cost < best.cost) best = Choice{a, JoinMethodName(m), cost};
  }
  return best;
}

// ---- Join-order DP over equi-join chains -----------------------------

/// One chain input. A base table adds its attributes to the join output
/// and is keyed by attribute name; a from-variable Rule 2 wrapped as
/// α[v : (x = v)](E) adds the one field x and is keyed through paths
/// t.x.a — by variable, so ranges that share attribute names still
/// resolve.
struct ChainLeaf {
  ExprPtr expr;
  std::vector<std::string> fields;
  bool wrapped = false;
};

struct ChainPred {
  size_t lt = 0, rt = 0;  // leaf indexes (lt on the original left)
  std::string la, ra;     // their keys: "a", or "x.a" through a wrap
};

struct Chain {
  std::vector<ChainLeaf> leaves;
  std::vector<ChainPred> preds;
};

/// Index of the leaf in [from, to) that `key` reads, or SIZE_MAX.
size_t OwnerOf(const Chain& ch, size_t from, size_t to,
               const std::string& key) {
  size_t dot = key.find('.');
  std::string field = key.substr(0, dot);
  bool wrapped = dot != std::string::npos;
  for (size_t i = from; i < to; ++i) {
    const ChainLeaf& leaf = ch.leaves[i];
    if (leaf.wrapped == wrapped &&
        std::find(leaf.fields.begin(), leaf.fields.end(), field) !=
            leaf.fields.end()) {
      return i;
    }
  }
  return SIZE_MAX;
}

/// Flattens a pure equi-join tree over chain leaves into `ch`. Every
/// predicate must be a conjunction of key = key equalities between the
/// two sides; anything else (residuals, outer variables, computed keys)
/// disqualifies the chain.
bool CollectChain(const Database& db, const ExprPtr& e, Chain* ch) {
  if (e->kind() == ExprKind::kGetTable) {
    const Table* t = db.FindTable(e->name());
    if (t == nullptr || !t->row_type()->is_tuple()) return false;
    ch->leaves.push_back({e, t->row_type()->FieldNames(), false});
    return true;
  }
  if (e->kind() == ExprKind::kMap &&
      e->body()->kind() == ExprKind::kTupleConstruct &&
      e->body()->num_children() == 1 &&
      e->body()->child(0)->kind() == ExprKind::kVar &&
      e->body()->child(0)->name() == e->var()) {
    ch->leaves.push_back({e, e->body()->names(), true});
    return true;
  }
  if (e->kind() != ExprKind::kJoin) return false;
  size_t l0 = ch->leaves.size();
  if (!CollectChain(db, e->left(), ch)) return false;
  size_t r0 = ch->leaves.size();
  if (!CollectChain(db, e->right(), ch)) return false;
  for (const ExprPtr& c : SplitConjuncts(e->pred())) {
    if (c->kind() != ExprKind::kBinary || c->bin_op() != BinOp::kEq) {
      return false;
    }
    std::string a0 = AttrPathOf(c->child(0), e->var());
    std::string a1 = AttrPathOf(c->child(1), e->var2());
    if (a0.empty() || a1.empty()) {
      // Maybe written y.b = x.a.
      a0 = AttrPathOf(c->child(1), e->var());
      a1 = AttrPathOf(c->child(0), e->var2());
    }
    if (a0.empty() || a1.empty()) return false;
    size_t lt = OwnerOf(*ch, l0, r0, a0);
    size_t rt = OwnerOf(*ch, r0, ch->leaves.size(), a1);
    if (lt == SIZE_MAX || rt == SIZE_MAX) return false;
    ch->preds.push_back(ChainPred{lt, rt, a0, a1});
  }
  return true;
}

/// All output fields unique across the chain's leaves — required both
/// for unambiguous key resolution and for the original plan to have
/// evaluated at all (tuple concat rejects duplicates).
bool FieldsUnique(const Chain& ch) {
  std::set<std::string> seen;
  for (const ChainLeaf& leaf : ch.leaves) {
    for (const std::string& f : leaf.fields) {
      if (!seen.insert(f).second) return false;
    }
  }
  return true;
}

struct DpEntry {
  double cost = kInf;
  double rows = 0.0;
  std::vector<size_t> order;
};

class ChainPlanner {
 public:
  ChainPlanner(const Database& db, const Chain& ch)
      : db_(db), ch_(ch), est_(db) {
    for (const ChainLeaf& leaf : ch.leaves) {
      rows_.push_back(est_.Estimate(leaf.expr).RowsOr(kDefaultRows));
    }
  }

  /// Cheapest left-deep order, or an empty vector when the join graph
  /// is not stepwise connected.
  DpEntry Best() {
    size_t n = ch_.leaves.size();
    std::vector<DpEntry> best(size_t(1) << n);
    for (size_t i = 0; i < n; ++i) {
      DpEntry& e = best[size_t(1) << i];
      e.cost = 0.0;
      e.rows = rows_[i];
      e.order = {i};
    }
    for (size_t mask = 1; mask < best.size(); ++mask) {
      if ((mask & (mask - 1)) == 0) continue;  // single table
      for (size_t t = 0; t < n; ++t) {
        if ((mask & (size_t(1) << t)) == 0) continue;
        size_t prev = mask ^ (size_t(1) << t);
        const DpEntry& p = best[prev];
        if (p.cost == kInf) continue;
        double step_rows, step_cost;
        if (!Step(prev, t, p.rows, &step_rows, &step_cost)) continue;
        double cost = p.cost + step_cost;
        DpEntry& dst = best[mask];
        if (cost < dst.cost) {
          dst.cost = cost;
          dst.rows = step_rows;
          dst.order = p.order;
          dst.order.push_back(t);
        }
      }
    }
    return best[best.size() - 1];
  }

  /// Cost of a given left-deep order through the same step model
  /// (kInf when some step is disconnected).
  double OrderCost(const std::vector<size_t>& order) {
    double cost = 0.0;
    double rows = rows_[order[0]];
    size_t mask = size_t(1) << order[0];
    for (size_t k = 1; k < order.size(); ++k) {
      double step_rows, step_cost;
      if (!Step(mask, order[k], rows, &step_rows, &step_cost)) return kInf;
      cost += step_cost;
      rows = step_rows;
      mask |= size_t(1) << order[k];
    }
    return cost;
  }

 private:
  const AttrStats* AttrOf(size_t leaf, const std::string& key) {
    return est_.Estimate(ch_.leaves[leaf].expr).Find(key);
  }

  /// Prices joining table `t` onto the accumulated set `prev_mask`
  /// (estimated `prev_rows` rows). False when no predicate connects
  /// them (cross products are never enumerated).
  bool Step(size_t prev_mask, size_t t, double prev_rows, double* out_rows,
            double* out_cost) {
    double fan = kInf;
    size_t npreds = 0;
    bool index_ok = false;
    for (const ChainPred& p : ch_.preds) {
      size_t other;
      const std::string *oa, *ta;
      if (p.lt == t && (prev_mask & (size_t(1) << p.rt)) != 0) {
        other = p.rt;
        oa = &p.ra;
        ta = &p.la;
      } else if (p.rt == t && (prev_mask & (size_t(1) << p.lt)) != 0) {
        other = p.lt;
        oa = &p.la;
        ta = &p.ra;
      } else {
        continue;
      }
      ++npreds;
      const AttrStats* ps = AttrOf(other, *oa);
      const AttrStats* ts = AttrOf(t, *ta);
      double match = EstimateMatchRate(ps, ts, 0.5);
      double d_t = ts != nullptr && ts->scalar
                       ? static_cast<double>(std::max<uint64_t>(1, ts->distinct))
                       : std::max(1.0, rows_[t]);
      fan = std::min(fan, match * rows_[t] / d_t);
      const ExprPtr& leaf = ch_.leaves[t].expr;
      index_ok = npreds == 1 && leaf->kind() == ExprKind::kGetTable &&
                 db_.FindIndex(leaf->name(), *ta) != nullptr;
    }
    if (npreds == 0) return false;
    *out_rows = prev_rows * fan;
    double cost =
        std::min(HashJoinCost(prev_rows, rows_[t], *out_rows),
                 NestedLoopJoinCost(prev_rows, rows_[t], *out_rows));
    if (index_ok) {
      cost = std::min(cost, IndexJoinCost(prev_rows, *out_rows, *out_rows));
    }
    *out_cost = cost;
    return true;
  }

  const Database& db_;
  const Chain& ch_;
  /// Prices the leaves; it pins the extent snapshots it reads, so the
  /// borrowed AttrStats survive any concurrent catalog refresh for the
  /// planning pass's lifetime.
  CardinalityEstimator est_;
  std::vector<double> rows_;
};

/// `var` read through `key` ("a" → var.a, "x.a" → var.x.a).
ExprPtr KeyExpr(const std::string& var, const std::string& key) {
  ExprPtr e = Expr::Var(var);
  for (const std::string& part : Split(key, '.')) e = Expr::Access(e, part);
  return e;
}

/// Rebuilds the chain as a left-deep join tree in `order`, wrapped in a
/// map that restores the original field order so the result is
/// bit-identical to the original plan's.
ExprPtr RebuildChain(const Chain& ch, const std::vector<size_t>& order,
                     const ExprPtr& original) {
  std::set<std::string> used = AllVars(original);
  auto fresh = [&used](const std::string& hint) {
    std::string n = hint;
    int i = 0;
    while (used.count(n) > 0) n = hint + std::to_string(++i);
    used.insert(n);
    return n;
  };

  std::vector<bool> placed(ch.preds.size(), false);
  size_t in_acc_mask = size_t(1) << order[0];
  ExprPtr acc = ch.leaves[order[0]].expr;
  for (size_t k = 1; k < order.size(); ++k) {
    size_t t = order[k];
    std::string lv = fresh("jo_l");
    std::string rv = fresh("jo_r");
    std::vector<ExprPtr> conjuncts;
    for (size_t pi = 0; pi < ch.preds.size(); ++pi) {
      if (placed[pi]) continue;
      const ChainPred& p = ch.preds[pi];
      const std::string *acc_key, *t_key;
      if (p.lt == t && (in_acc_mask & (size_t(1) << p.rt)) != 0) {
        acc_key = &p.ra;
        t_key = &p.la;
      } else if (p.rt == t && (in_acc_mask & (size_t(1) << p.lt)) != 0) {
        acc_key = &p.la;
        t_key = &p.ra;
      } else {
        continue;
      }
      placed[pi] = true;
      conjuncts.push_back(Expr::Eq(KeyExpr(lv, *acc_key), KeyExpr(rv, *t_key)));
    }
    acc = Expr::Join(std::move(acc), ch.leaves[t].expr, lv, rv,
                     Expr::AndAll(conjuncts));
    in_acc_mask |= size_t(1) << t;
  }

  // Restore the original field order: the original tree's output tuple
  // is the left-to-right concatenation of the leaves' fields.
  std::string z = fresh("jo_z");
  std::vector<std::string> names;
  std::vector<ExprPtr> values;
  for (const ChainLeaf& leaf : ch.leaves) {
    for (const std::string& f : leaf.fields) {
      names.push_back(f);
      values.push_back(Expr::Access(Expr::Var(z), f));
    }
  }
  return Expr::Map(z, Expr::TupleConstruct(std::move(names),
                                           std::move(values)),
                   std::move(acc));
}

/// Runs the DP on one chain root. Returns nullptr to keep the original.
ExprPtr TryReorder(const Database& db, const ExprPtr& e) {
  Chain ch;
  if (!CollectChain(db, e, &ch)) return nullptr;
  if (ch.leaves.size() < 3 || ch.leaves.size() > kMaxDpLeaves) return nullptr;
  if (!FieldsUnique(ch)) return nullptr;

  ChainPlanner cp(db, ch);
  DpEntry best = cp.Best();
  if (best.cost == kInf) return nullptr;

  std::vector<size_t> identity(ch.leaves.size());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  if (best.order == identity) return nullptr;
  double orig = cp.OrderCost(identity);
  if (orig != kInf && best.cost >= orig * kReorderGain) return nullptr;
  return RebuildChain(ch, best.order, e);
}

ExprPtr ReorderTree(const Database& db, const ExprPtr& e, bool* changed) {
  if (e->kind() == ExprKind::kJoin) {
    ExprPtr nu = TryReorder(db, e);
    if (nu != nullptr) {
      *changed = true;
      return nu;
    }
  }
  std::vector<ExprPtr> kids;
  kids.reserve(e->num_children());
  bool any = false;
  for (const ExprPtr& c : e->children()) {
    ExprPtr nc = ReorderTree(db, c, changed);
    any |= nc != c;
    kids.push_back(std::move(nc));
  }
  return any ? e->WithChildren(std::move(kids)) : e;
}

// ---- Annotation walk -------------------------------------------------

class Annotator {
 public:
  Annotator(const Database& db, PhysicalPlan* plan)
      : db_(db), plan_(plan), est_(db) {}

  void Walk(const ExprPtr& e, int depth) {
    switch (e->kind()) {
      case ExprKind::kGetTable:
        Line(depth, e, nullptr, est_.Estimate(e).rows, -1.0);
        return;
      case ExprKind::kJoin:
      case ExprKind::kSemiJoin:
      case ExprKind::kAntiJoin:
      case ExprKind::kNestJoin: {
        const RelEstimate& l = est_.Estimate(e->left());
        const RelEstimate& r = est_.Estimate(e->right());
        const RelEstimate& self = est_.Estimate(e);
        double out = self.RowsOr(l.RowsOr(kDefaultRows));
        // A correlated operator (predicate references a variable bound
        // outside this node, so the evaluator rebuilds it per outer
        // row) invalidates the static estimates — the bound outer value
        // turns residual conjuncts into selective filters the runtime
        // dispatch can exploit. Never pin an algorithm there.
        bool correlated = false;
        for (const std::string& v : FreeVars(e->pred())) {
          if (v != e->var() && v != e->var2() && db_.FindTable(v) == nullptr) {
            correlated = true;
          }
        }
        if (correlated) {
          ++plan_->unpriced_correlated;
          PlanAnnotation pa;
          pa.est_rows = self.rows;
          plan_->annotations.nodes[e.get()] = pa;
          Line(depth, e, "auto: correlated", self.rows, -1.0);
        } else {
          // Matching rows the algorithm must touch: for join/nestjoin
          // the full match multiset (l × fanout); semijoin/antijoin
          // probes short-circuit at the first hit, so the output is the
          // bound.
          double matches = out;
          if (e->kind() == ExprKind::kJoin ||
              e->kind() == ExprKind::kNestJoin) {
            JoinSelectivity sel = est_.EstimateJoinSelectivity(*e, l, r);
            matches = l.RowsOr(kDefaultRows) * sel.fanout;
          }
          Choice c = ChooseJoin(db_, est_, *e, l, r, out, matches);
          PlanAnnotation pa;
          pa.algorithm = c.algo;
          pa.est_rows = self.rows;
          pa.est_cost = c.cost;
          pa.label = c.label;
          plan_->annotations.nodes[e.get()] = pa;
          plan_->est_cost += c.cost;
          Line(depth, e, c.label, self.rows, c.cost);
        }
        Walk(e->left(), depth + 1);
        Walk(e->right(), depth + 1);
        // Predicate / nestjoin-inner subtrees can hold whole subqueries.
        for (size_t i = 2; i < e->num_children(); ++i) {
          Walk(e->child(i), depth + 1);
        }
        return;
      }
      case ExprKind::kMap:
      case ExprKind::kSelect:
      case ExprKind::kProject:
      case ExprKind::kFlatten:
      case ExprKind::kNest:
      case ExprKind::kUnnest:
      case ExprKind::kProduct:
      case ExprKind::kDivide:
      case ExprKind::kUnion:
      case ExprKind::kIntersect:
      case ExprKind::kDifference: {
        const RelEstimate& self = est_.Estimate(e);
        if (self.known()) {
          PlanAnnotation pa;
          pa.est_rows = self.rows;
          plan_->annotations.nodes[e.get()] = pa;
        }
        Line(depth, e, nullptr, self.rows, -1.0);
        for (const ExprPtr& c : e->children()) Walk(c, depth + 1);
        return;
      }
      default:
        for (const ExprPtr& c : e->children()) Walk(c, depth);
        return;
    }
  }

 private:
  void Line(int depth, const ExprPtr& e, const char* algorithm,
            double est_rows, double est_cost) {
    plan_->lines.push_back({depth, e.get(), algorithm, est_rows, est_cost});
  }

  const Database& db_;
  PhysicalPlan* plan_;
  CardinalityEstimator est_;
};

}  // namespace

const char* PlanStrategyName(PlanStrategy s) {
  return s == PlanStrategy::kCost ? "cost" : "heuristic";
}

std::string PhysicalPlan::Describe() const {
  std::string out = StrFormat("est_cost=%.3fms", est_cost / 1e6);
  if (unpriced_correlated > 0) {
    out += StrFormat(" +%d unpriced correlated", unpriced_correlated);
  }
  if (reordered) out += " (join order changed)";
  out += "\n";
  for (const Line& l : lines) {
    out.append(static_cast<size_t>(l.depth) * 2 + 2, ' ');
    if (l.node->kind() == ExprKind::kGetTable) {
      out += "scan " + l.node->name();
    } else if (l.algorithm != nullptr) {
      out += StrFormat("%s[%s]", JoinOpName(l.node->kind()), l.algorithm);
    } else {
      out += OpName(l.node->kind());
    }
    if (l.est_rows >= 0.0) out += StrFormat(" est_rows=%.0f", l.est_rows);
    if (l.est_cost >= 0.0) {
      out += StrFormat(" est_cost=%.3fms", l.est_cost / 1e6);
    }
    out += "\n";
  }
  return out;
}

Result<PhysicalPlan> Planner::Plan(const ExprPtr& e) const {
  PhysicalPlan plan;
  bool changed = false;
  plan.root = ReorderTree(db_, e, &changed);
  plan.reordered = changed;
  Annotator a(db_, &plan);
  a.Walk(plan.root, 0);
  return plan;
}

}  // namespace n2j
