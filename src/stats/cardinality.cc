#include "stats/cardinality.h"

#include <algorithm>
#include <cmath>

#include "adl/analysis.h"
#include "exec/equi_join.h"

namespace n2j {

namespace {

constexpr double kUnknownConjunctSel = 0.5;

double Clamp01(double x) { return std::max(0.0, std::min(1.0, x)); }

bool NumericConst(const Value& v, double* out) {
  if (v.is_int()) {
    *out = static_cast<double>(v.int_value());
    return true;
  }
  if (v.is_double()) {
    *out = v.double_value();
    return true;
  }
  if (v.is_oid()) {
    *out = static_cast<double>(v.oid_value());
    return true;
  }
  return false;
}

/// Fraction of `a`'s value range that is < c (uniformity assumption).
double FractionBelow(const AttrStats& a, double c) {
  double lo, hi;
  if (!NumericConst(a.min, &lo) || !NumericConst(a.max, &hi) || hi <= lo) {
    return kUnknownConjunctSel;
  }
  return Clamp01((c - lo) / (hi - lo));
}

using AttrMap = RelEstimate::AttrMap;

/// `m` as an estimate's shared attribute map (null when empty).
std::shared_ptr<const AttrMap> Share(AttrMap m) {
  if (m.empty()) return nullptr;
  return std::make_shared<const AttrMap>(std::move(m));
}

/// The attributes of `l` and those of `r` it lacks, as a product or join
/// concatenates them.
std::shared_ptr<const AttrMap> Merged(const RelEstimate& l,
                                      const RelEstimate& r) {
  if (r.attrs == nullptr) return l.attrs;
  if (l.attrs == nullptr) return r.attrs;
  AttrMap m = *l.attrs;
  m.insert(r.attrs->begin(), r.attrs->end());
  return Share(std::move(m));
}

}  // namespace

std::string AttrPathOf(const ExprPtr& e, const std::string& var) {
  if (e->kind() != ExprKind::kFieldAccess) return "";
  const Expr* base = e->child(0).get();
  while (base->kind() == ExprKind::kTupleProject &&
         std::find(base->names().begin(), base->names().end(), e->name()) !=
             base->names().end()) {
    base = base->child(0).get();
  }
  if (base->kind() == ExprKind::kVar) {
    return base->name() == var ? e->name() : "";
  }
  std::string prefix = AttrPathOf(e->child(0), var);
  return prefix.empty() ? "" : prefix + "." + e->name();
}

const AttrStats* CardinalityEstimator::KeyAttrStats(
    const ExprPtr& key, const std::string& var, const RelEstimate& rel) const {
  std::string path = AttrPathOf(key, var);
  return path.empty() ? nullptr : rel.Find(path);
}

const AttrStats* CardinalityEstimator::Synthesize(AttrStats s) {
  synthesized_.push_back(std::move(s));
  return &synthesized_.back();
}

/// Scalar image of a set attribute's elements: the stats an unnested
/// element field carries (distinct count and range over the flattened
/// multiset).
static AttrStats ElementScalarStats(const AttrStats& set_attr,
                                    const std::string& name) {
  AttrStats s;
  s.name = name;
  s.scalar = true;
  s.distinct = set_attr.element_distinct;
  s.min = set_attr.element_min;
  s.max = set_attr.element_max;
  s.rows_seen = set_attr.element_count;
  return s;
}

const RelEstimate& CardinalityEstimator::Estimate(const ExprPtr& e) {
  auto it = memo_.find(e.get());
  if (it != memo_.end()) return it->second;
  RelEstimate est = EstimateNode(*e);
  return memo_.emplace(e.get(), std::move(est)).first->second;
}

RelEstimate CardinalityEstimator::EstimateNode(const Expr& e) {
  RelEstimate out;
  switch (e.kind()) {
    case ExprKind::kConst:
      if (e.const_value().is_set()) {
        out.rows = static_cast<double>(e.const_value().set_size());
      }
      return out;

    case ExprKind::kVar: {
      auto it = let_env_.find(e.name());
      if (it != let_env_.end()) return it->second;
      return out;
    }

    case ExprKind::kGetTable: {
      std::shared_ptr<const ExtentStats> s = db_.stats().Get(db_, e.name());
      if (s == nullptr) return out;
      pinned_.push_back(s);  // keep the borrowed AttrStats* alive
      out.rows = static_cast<double>(s->row_count);
      AttrMap attrs;
      for (const auto& [name, a] : s->attrs) {
        attrs.emplace_hint(attrs.end(), name, &a);
      }
      out.attrs = Share(std::move(attrs));
      return out;
    }

    case ExprKind::kLet: {
      RelEstimate def = Estimate(e.child(0));
      auto [it, inserted] = let_env_.emplace(e.var(), def);
      RelEstimate saved;
      if (!inserted) {
        saved = it->second;
        it->second = def;
      }
      RelEstimate body = Estimate(e.child(1));
      if (inserted) {
        let_env_.erase(e.var());
      } else {
        it->second = saved;
      }
      return body;
    }

    case ExprKind::kSelect: {
      const RelEstimate& in = Estimate(e.input());
      if (!in.known()) return in;
      double sel = EstimatePredicateSelectivity(e.body(), e.var(), in);
      out = in;
      out.rows = in.rows * sel;
      return out;
    }

    case ExprKind::kMap: {
      const RelEstimate& in = Estimate(e.input());
      if (!in.known()) return in;
      const Expr& body = *e.body();
      if (body.kind() == ExprKind::kVar && body.name() == e.var()) return in;
      if (body.kind() == ExprKind::kFieldAccess) {
        // α[x : x.a](X) — result is the *set* of attribute values, so
        // cardinality collapses to the distinct count.
        const AttrStats* a = KeyAttrStats(e.body(), e.var(), in);
        if (a != nullptr && a->scalar) {
          out.rows = std::min(in.rows, static_cast<double>(a->distinct));
          return out;
        }
        out.rows = in.rows;
        return out;
      }
      if (body.kind() == ExprKind::kTupleConstruct) {
        // Re-key attribute stats through the projection list. The map's
        // output is a set, so distinct combinations of the keyed fields
        // bound the cardinality; fields without attributable stats are
        // treated as functions of the keyed ones (every map-body field
        // is a function of the input row). A field holding the whole row
        // — Rule 2's (x = x) wrap — keeps every row distinct and exposes
        // the row's attributes as "x.a".
        out.rows = in.rows;
        AttrMap attrs;
        double combos = 1.0;
        bool keyed = false;
        bool whole_row = false;
        for (size_t i = 0; i < body.num_children(); ++i) {
          const ExprPtr& field = body.child(i);
          if (field->kind() == ExprKind::kVar && field->name() == e.var()) {
            whole_row = true;
            for (const auto& [name, a] : in.Attrs()) {
              attrs[body.names()[i] + "." + name] = a;
            }
            continue;
          }
          const AttrStats* a = KeyAttrStats(field, e.var(), in);
          if (a != nullptr) attrs[body.names()[i]] = a;
          if (a != nullptr && a->scalar) {
            combos *= static_cast<double>(std::max<uint64_t>(1, a->distinct));
            keyed = true;
          }
        }
        if (keyed && !whole_row) out.rows = std::min(out.rows, combos);
        out.attrs = Share(std::move(attrs));
        return out;
      }
      if (body.kind() == ExprKind::kExcept) {
        // z except (a = ...) keeps the input shape; the replaced
        // attributes lose their statistics.
        out.rows = in.rows;
        AttrMap attrs = in.Attrs();
        for (const std::string& n : body.names()) attrs.erase(n);
        out.attrs = Share(std::move(attrs));
        return out;
      }
      if (body.kind() == ExprKind::kTupleConcat) {
        out = in;
        return out;
      }
      out.rows = in.rows;
      return out;
    }

    case ExprKind::kProject: {
      const RelEstimate& in = Estimate(e.input());
      if (!in.known()) return in;
      out.rows = in.rows;
      AttrMap attrs;
      for (const std::string& n : e.names()) {
        const AttrStats* a = in.Find(n);
        if (a != nullptr) attrs[n] = a;
      }
      out.attrs = Share(std::move(attrs));
      // A projection to a single low-distinct attribute deduplicates.
      if (e.names().size() == 1) {
        const AttrStats* a = in.Find(e.names()[0]);
        if (a != nullptr && a->scalar) {
          out.rows = std::min(out.rows, static_cast<double>(a->distinct));
        }
      }
      return out;
    }

    case ExprKind::kFlatten: {
      // ⋃(α[x : x.a](X)) — rows × avg fanout elements flow in, but the
      // union de-duplicates (set semantics), so the result is capped at
      // the distinct element count the stats module measured.
      const ExprPtr& in_expr = e.input();
      if (in_expr->kind() == ExprKind::kMap &&
          in_expr->body()->kind() == ExprKind::kFieldAccess) {
        const RelEstimate& base = Estimate(in_expr->input());
        const AttrStats* a =
            KeyAttrStats(in_expr->body(), in_expr->var(), base);
        if (base.known() && a != nullptr && a->set_valued) {
          out.rows = base.rows * a->avg_fanout;
          if (a->element_distinct > 0) {
            out.rows = std::min(out.rows,
                                static_cast<double>(a->element_distinct));
          }
          if (!a->element_field.empty()) {
            out.attrs = Share(
                {{a->element_field,
                  Synthesize(ElementScalarStats(*a, a->element_field))}});
          }
          return out;
        }
      }
      return out;
    }

    case ExprKind::kNest: {
      const RelEstimate& in = Estimate(e.input());
      if (!in.known()) return in;
      // Groups = distinct combinations of the non-grouped attributes.
      double groups = 1.0;
      bool any = false;
      AttrMap attrs;
      for (const auto& [name, a] : in.Attrs()) {
        bool grouped = std::find(e.names().begin(), e.names().end(), name) !=
                       e.names().end();
        if (grouped || !a->scalar) continue;
        groups *= static_cast<double>(std::max<uint64_t>(1, a->distinct));
        any = true;
        attrs.emplace_hint(attrs.end(), name, a);
      }
      out.rows = any ? std::min(in.rows, groups) : in.rows;
      out.attrs = Share(std::move(attrs));
      return out;
    }

    case ExprKind::kUnnest: {
      const RelEstimate& in = Estimate(e.input());
      if (!in.known()) return in;
      const AttrStats* a = in.Find(e.name());
      if (a == nullptr || !a->set_valued) return out;
      out.rows = in.rows * a->avg_fanout;
      AttrMap attrs = in.Attrs();
      attrs.erase(e.name());
      // The unnested elements surface as a scalar attribute — re-expose
      // the element-level stats under the element field name so joins
      // over the unnested value (Q4's z.pid = p.pid) see the measured
      // match rate instead of the unknown-conjunct fallback.
      if (!a->element_field.empty()) {
        attrs[a->element_field] =
            Synthesize(ElementScalarStats(*a, a->element_field));
      }
      out.attrs = Share(std::move(attrs));
      return out;
    }

    case ExprKind::kProduct: {
      const RelEstimate& l = Estimate(e.left());
      const RelEstimate& r = Estimate(e.right());
      if (!l.known() || !r.known()) return out;
      out.rows = l.rows * r.rows;
      out.attrs = Merged(l, r);
      return out;
    }

    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
      return EstimateJoinLike(e);

    case ExprKind::kUnion: {
      const RelEstimate& l = Estimate(e.left());
      const RelEstimate& r = Estimate(e.right());
      if (!l.known() || !r.known()) return out;
      out.rows = l.rows + r.rows;
      out.attrs = l.attrs;
      return out;
    }
    case ExprKind::kIntersect: {
      const RelEstimate& l = Estimate(e.left());
      const RelEstimate& r = Estimate(e.right());
      if (!l.known() || !r.known()) return out;
      out.rows = std::min(l.rows, r.rows);
      out.attrs = l.attrs;
      return out;
    }
    case ExprKind::kDifference: {
      const RelEstimate& l = Estimate(e.left());
      const RelEstimate& r = Estimate(e.right());
      if (!l.known()) return out;
      // Between |L|−|R| and |L|; split the difference geometrically.
      double floor_rows =
          r.known() ? std::max(0.0, l.rows - r.rows) : l.rows * 0.25;
      out.rows = std::max(floor_rows, l.rows * 0.5);
      out.attrs = l.attrs;
      return out;
    }

    case ExprKind::kSetConstruct:
      out.rows = static_cast<double>(e.num_children());
      return out;

    default:
      return out;  // scalar or unsupported: unknown
  }
}

RelEstimate CardinalityEstimator::EstimateJoinLike(const Expr& e) {
  const RelEstimate& l = Estimate(e.left());
  const RelEstimate& r = Estimate(e.right());
  RelEstimate out;
  if (!l.known()) return out;

  JoinSelectivity sel = EstimateJoinSelectivity(e, l, r);
  switch (e.kind()) {
    case ExprKind::kJoin:
      if (!r.known()) return out;
      out.rows = l.rows * sel.fanout;
      out.attrs = Merged(l, r);
      return out;
    case ExprKind::kSemiJoin:
      out.rows = l.rows * sel.match_rate;
      out.attrs = l.attrs;
      return out;
    case ExprKind::kAntiJoin:
      out.rows = l.rows * (1.0 - sel.match_rate);
      out.attrs = l.attrs;
      return out;
    case ExprKind::kNestJoin:
      // One output tuple per left tuple, whatever matches.
      out.rows = l.rows;
      out.attrs = l.attrs;  // plus the new set attribute (no stats)
      return out;
    default:
      return out;
  }
}

JoinSelectivity CardinalityEstimator::EstimateJoinSelectivity(
    const Expr& join, const RelEstimate& left, const RelEstimate& right) {
  JoinSelectivity out;
  double r_rows = right.RowsOr(1000.0);
  out.match_rate = kUnknownConjunctSel;
  out.fanout = kUnknownConjunctSel * r_rows;

  JoinShape shape = MatchJoin(join, nullptr);
  const EquiJoinKeys& keys = shape.keys;
  bool priced = false;
  for (size_t i = 0; i < keys.left_keys.size(); ++i) {
    const AttrStats* ls = KeyAttrStats(keys.left_keys[i], join.var(), left);
    const AttrStats* rs = KeyAttrStats(keys.right_keys[i], join.var2(), right);
    if (ls == nullptr || rs == nullptr) continue;
    double match = EstimateMatchRate(ls, rs, kUnknownConjunctSel);
    double d_r = rs->scalar ? static_cast<double>(rs->distinct)
                            : static_cast<double>(rs->element_distinct);
    double fanout = match * (r_rows / std::max(1.0, d_r));
    if (!priced || match < out.match_rate) out.match_rate = match;
    if (!priced || fanout < out.fanout) out.fanout = fanout;
    priced = true;
    out.from_stats = true;
  }

  // The membership conjunct (f(y) ∈ x.c, x.c ∋ f(y) or ∃v ∈ x.c ·
  // k(v) = f(y)) — the pattern the membership join runs. A left row
  // matches when any of its ~avg_fanout set elements hits the right key
  // domain.
  const MembershipKey& m = shape.membership;
  const AttrStats* cs = m.found() ? left.Find(m.attr) : nullptr;
  if (cs != nullptr && cs->set_valued) {
    const AttrStats* ps = KeyAttrStats(m.right_key, join.var2(), right);
    // P(one element matches a right key value) per element, then scale
    // by the average number of elements, capped at certainty.
    double per_element = EstimateMatchRate(cs, ps, kUnknownConjunctSel);
    double match = std::min(1.0, per_element * std::max(1.0, cs->avg_fanout));
    double d_r = 1.0;
    if (ps != nullptr) {
      d_r = ps->scalar ? static_cast<double>(ps->distinct)
                       : static_cast<double>(ps->element_distinct);
    }
    double fanout =
        cs->avg_fanout * per_element * (r_rows / std::max(1.0, d_r));
    if (!priced || match < out.match_rate) out.match_rate = match;
    if (!priced || fanout < out.fanout) out.fanout = fanout;
    out.from_stats = ps != nullptr;
  }

  // Residual conjuncts thin both measures.
  size_t residual = keys.usable() ? keys.residual.size() : 0;
  for (size_t i = 0; i < residual; ++i) {
    out.match_rate *= kUnknownConjunctSel;
    out.fanout *= kUnknownConjunctSel;
  }
  out.match_rate = Clamp01(out.match_rate);
  out.fanout = std::max(0.0, out.fanout);
  return out;
}

double CardinalityEstimator::EstimatePredicateSelectivity(
    const ExprPtr& pred, const std::string& var, const RelEstimate& in) {
  double sel = 1.0;
  for (const ExprPtr& c : SplitConjuncts(pred)) {
    double s = kUnknownConjunctSel;
    if (c->kind() == ExprKind::kUnary && c->un_op() == UnOp::kNot) {
      s = 1.0 - EstimatePredicateSelectivity(c->child(0), var, in);
    } else if (c->kind() == ExprKind::kUnary &&
               c->un_op() == UnOp::kIsEmpty) {
      const AttrStats* a = KeyAttrStats(c->child(0), var, in);
      if (a != nullptr && a->set_valued) s = a->empty_fraction;
    } else if (c->kind() == ExprKind::kQuantifier) {
      // exists v in x.a : p — at least a non-empty set is required.
      const AttrStats* a = KeyAttrStats(c->range(), var, in);
      if (a != nullptr && a->set_valued &&
          c->quant_kind() == QuantKind::kExists) {
        s = 1.0 - a->empty_fraction;
      }
    } else if (c->kind() == ExprKind::kBinary) {
      BinOp op = c->bin_op();
      const ExprPtr& lhs = c->child(0);
      const ExprPtr& rhs = c->child(1);
      const AttrStats* a = KeyAttrStats(lhs, var, in);
      const ExprPtr* other = &rhs;
      bool flipped = false;
      if (a == nullptr) {
        a = KeyAttrStats(rhs, var, in);
        other = &lhs;
        flipped = true;
      }
      if (op == BinOp::kIn || op == BinOp::kContains) {
        // v ∈ x.a: fraction of rows whose set contains one fixed value.
        const ExprPtr& cont = op == BinOp::kIn ? rhs : lhs;
        const AttrStats* ca = KeyAttrStats(cont, var, in);
        if (ca != nullptr && ca->set_valued && ca->element_distinct > 0) {
          s = Clamp01(ca->avg_fanout /
                      static_cast<double>(ca->element_distinct));
        }
      } else if (IsSetComparisonOp(op)) {
        // x.a ⊆ S and friends: dominated by how often the set side is
        // trivially small; empty sets satisfy every ⊆.
        const AttrStats* ca = a;
        if (ca != nullptr && ca->set_valued) {
          s = std::max(0.1, ca->empty_fraction);
        }
      } else if (a != nullptr && a->scalar &&
                 (*other)->kind() == ExprKind::kConst) {
        double cval;
        if (op == BinOp::kEq) {
          s = 1.0 / static_cast<double>(std::max<uint64_t>(1, a->distinct));
        } else if (op == BinOp::kNe) {
          s = 1.0 -
              1.0 / static_cast<double>(std::max<uint64_t>(1, a->distinct));
        } else if (IsComparisonOp(op) &&
                   NumericConst((*other)->const_value(), &cval)) {
          double below = FractionBelow(*a, cval);
          bool wants_below = flipped ? (op == BinOp::kGt || op == BinOp::kGe)
                                     : (op == BinOp::kLt || op == BinOp::kLe);
          s = wants_below ? below : 1.0 - below;
        }
      }
    }
    sel *= Clamp01(s);
  }
  return std::max(sel, 1e-6);
}

}  // namespace n2j
