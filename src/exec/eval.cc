#include "exec/eval.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/str_util.h"
#include "exec/bytecode.h"
#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/morsel.h"
#include "exec/plan.h"
#include "obs/trace.h"

namespace n2j {

namespace {

// Index-gather tuple projection for per-shape cached index vectors.
Value GatherTuple(const TupleShape* target, const std::vector<int>& idx,
                  const Value& x) {
  std::span<const Value> src = x.tuple_values();
  Value* slots = nullptr;
  Value out = Value::NewTuple(target, &slots);
  for (int i : idx) *slots++ = src[static_cast<size_t>(i)];
  return out;
}

// One row per EvalStats counter, in declaration order. Merge, Subtract,
// ToString, Compact, and the query-log serializer (via EvalStatsFields)
// all iterate this table so a counter added here is automatically
// merged, diffed, printed, and logged.
using StatField = EvalStatsField;
constexpr StatField kStatFields[] = {
    {"tuples_scanned", "scanned", &EvalStats::tuples_scanned},
    {"predicate_evals", "preds", &EvalStats::predicate_evals},
    {"hash_inserts", "h_ins", &EvalStats::hash_inserts},
    {"hash_probes", "h_probe", &EvalStats::hash_probes},
    {"set_sorted_rows", "set_sorted", &EvalStats::set_sorted_rows},
    {"index_probes", "idx", &EvalStats::index_probes},
    {"pnhl_partitions", "pnhl", &EvalStats::pnhl_partitions},
    {"derefs", "derefs", &EvalStats::derefs},
    {"nodes_evaluated", "nodes", &EvalStats::nodes_evaluated},
    {"compiled_evals", "compiled", &EvalStats::compiled_evals},
    {"interp_fallback_evals", "fallback", &EvalStats::interp_fallback_evals},
    {"joins_nested_loop", "nl_joins", &EvalStats::joins_nested_loop},
    {"joins_hash", "hash_joins", &EvalStats::joins_hash},
    {"joins_index", "idx_joins", &EvalStats::joins_index},
    {"joins_membership", "mem_joins", &EvalStats::joins_membership},
    // Always 0; kept for the traced counters perfbench/run.py reads.
    {"vec_pipelines", "v_pipe", &EvalStats::vec_pipelines},
    {"vec_fallbacks", "v_fall", &EvalStats::vec_fallbacks},
};

}  // namespace

const EvalStatsField* EvalStatsFields(size_t* count) {
  *count = sizeof(kStatFields) / sizeof(kStatFields[0]);
  return kStatFields;
}

void EvalStats::Merge(const EvalStats& other) {
  for (const StatField& f : kStatFields) this->*f.member += other.*f.member;
}

void EvalStats::Subtract(const EvalStats& other) {
  for (const StatField& f : kStatFields) this->*f.member -= other.*f.member;
}

std::string EvalStats::ToString() const {
  size_t width = 0;
  for (const StatField& f : kStatFields) {
    if (this->*f.member != 0) width = std::max(width, std::strlen(f.name));
  }
  if (width == 0) return "(all counters zero)";
  std::string out;
  for (const StatField& f : kStatFields) {
    uint64_t v = this->*f.member;
    if (v == 0) continue;
    out += f.name;
    out.append(width + 2 - std::strlen(f.name), ' ');
    out += StrFormat("%llu\n", static_cast<unsigned long long>(v));
  }
  return out;
}

std::string EvalStats::Compact() const {
  std::string out;
  for (const StatField& f : kStatFields) {
    uint64_t v = this->*f.member;
    if (v == 0) continue;
    if (!out.empty()) out += ' ';
    out += StrFormat("%s=%llu", f.short_name,
                     static_cast<unsigned long long>(v));
  }
  return out;
}

Result<Value> Evaluator::Eval(const ExprPtr& e) {
  Environment env;
  return Eval(e, env);
}

Result<Value> Evaluator::Eval(const ExprPtr& e, Environment& env) {
  // The root span opens only at the outermost entry — physical join
  // operators re-enter Eval for key expressions, and those evaluations
  // belong to the already-open join span.
  if (opts_.trace != nullptr && !opts_.trace->InSpan()) {
    OpSpan span(opts_.trace, stats_, "query");
    Result<Value> r = EvalNode(*e, env);
    span.RowsOut(r);
    return r;
  }
  return EvalNode(*e, env);
}

Result<Value> Evaluator::ConcatTuples(const Value& l, const Value& r) {
  return ConcatTuplesChecked(l, r);
}

std::unique_ptr<Evaluator> Evaluator::ForkWorker() const {
  EvalOptions worker_opts = opts_;
  worker_opts.num_threads = 1;  // nested operators stay serial
  worker_opts.trace = nullptr;  // counters merge into the coordinator span
  auto w = std::make_unique<Evaluator>(db_, worker_opts);
  w->table_cache_ = table_cache_;
  return w;
}

Result<Value> Evaluator::TableValue(const std::string& name) {
  auto it = table_cache_.find(name);
  if (it != table_cache_.end()) return it->second;
  const Table* t = db_.FindTable(name);
  if (t == nullptr) return Status::NotFound("no such table: " + name);
  Value v = t->AsSetValue();
  table_cache_.emplace(name, v);
  return v;
}

namespace {

// Nodes whose body runs in EvalRows: their output can stay raw for an
// iterating consumer.
bool EmitsRows(ExprKind kind) {
  switch (kind) {
    case ExprKind::kMap:
    case ExprKind::kSelect:
    case ExprKind::kFlatten:
    case ExprKind::kProduct:
    case ExprKind::kUnnest:
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
      return true;
    default:
      return false;
  }
}

#ifndef NDEBUG
// RowOrder::kDistinct's promise: no two rows are equal. Like
// Value::SetFromCanonical's check it skips rows of mixed shapes or
// kinds, and sets: Compare is not a strict weak order across permuted
// shapes (ROADMAP item 8).
void CheckDuplicateFree(const std::vector<Value>& rows) {
  if (rows.size() < 2) return;
  const Value& first = rows[0];
  for (const Value& r : rows) {
    bool uniform = first.is_tuple()
                       ? r.is_tuple() && r.tuple_shape() == first.tuple_shape()
                       : r.kind() == first.kind() && !r.is_set();
    if (!uniform) return;
  }
  std::vector<Value> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  N2J_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}
#endif

}  // namespace

Value Evaluator::ToSet(std::vector<Value> rows) {
  const size_t n = rows.size();
  if (Value::Canonicalize(rows)) stats_.set_sorted_rows += n;
  return Value::SetFromCanonical(std::move(rows));
}

Rows Evaluator::EmitRows(std::vector<Value> rows, RowOrder order,
                         bool as_set, OpSpan& span) {
#ifndef NDEBUG
  if (order == RowOrder::kDistinct) CheckDuplicateFree(rows);
#endif
  Rows out;
  if (order == RowOrder::kCanonical) {
    out = Rows::Of(Value::SetFromCanonical(std::move(rows)));
  } else if (as_set || order == RowOrder::kBag) {
    out = Rows::Of(ToSet(std::move(rows)));
  } else {
    out = Rows::Raw(std::move(rows));
  }
  span.RowsOut(static_cast<uint64_t>(out.set_size()));
  return out;
}

Result<Rows> Evaluator::EvalRows(const Expr& e, Environment& env,
                                 bool as_set) {
  if (!EmitsRows(e.kind())) {
    N2J_ASSIGN_OR_RETURN(Value v, EvalNode(e, env));
    return Rows::Of(std::move(v));
  }
  ++stats_.nodes_evaluated;
  switch (e.kind()) {
    case ExprKind::kMap:
    case ExprKind::kSelect:
      return EvalMapSelect(e, env, as_set);
    case ExprKind::kFlatten:
      return EvalFlatten(e, env, as_set);
    case ExprKind::kProduct:
      return EvalProduct(e, env, as_set);
    case ExprKind::kUnnest:
      return EvalUnnest(e, env, as_set);
    default:
      return EvalJoinLike(e, env, as_set);
  }
}

Result<Value> Evaluator::EvalNode(const Expr& e, Environment& env) {
  if (EmitsRows(e.kind())) {
    N2J_ASSIGN_OR_RETURN(Rows rows, EvalRows(e, env, /*as_set=*/true));
    return std::move(rows.value);
  }
  ++stats_.nodes_evaluated;
  switch (e.kind()) {
    case ExprKind::kConst:
      return e.const_value();

    case ExprKind::kVar: {
      const Value* v = env.Lookup(e.name());
      if (v == nullptr) {
        return Status::RuntimeError("unbound variable: " + e.name());
      }
      return *v;
    }

    case ExprKind::kGetTable:
      return TableValue(e.name());

    case ExprKind::kLet: {
      N2J_ASSIGN_OR_RETURN(Value def, EvalNode(*e.child(0), env));
      env.Push(e.var(), std::move(def));
      Result<Value> body = EvalNode(*e.child(1), env);
      env.Pop();
      return body;
    }

    case ExprKind::kFieldAccess: {
      N2J_ASSIGN_OR_RETURN(Value v, EvalNode(*e.child(0), env));
      // Implicit pointer traversal: accessing a field through a reference
      // reads it off the stored object (path expressions, Section 6.2).
      const Value* in = &v;
      if (v.is_oid()) {
        ++stats_.derefs;
        in = db_.FindObject(v.oid_value());
        if (in == nullptr) return ObjectStore::DanglingOid(v.oid_value());
      }
      if (!in->is_tuple()) {
        return Status::RuntimeError("field access '" + e.name() +
                                    "' on non-tuple value");
      }
      const Value* f = in->FindField(e.name());
      if (f == nullptr) {
        return Status::RuntimeError("no field '" + e.name() + "' in " +
                                    in->ToString());
      }
      return *f;
    }

    case ExprKind::kTupleProject: {
      N2J_ASSIGN_OR_RETURN(Value in, EvalNode(*e.child(0), env));
      if (!in.is_tuple()) {
        return Status::RuntimeError("tuple projection on non-tuple");
      }
      for (const std::string& n : e.names()) {
        if (in.FindField(n) == nullptr) {
          return Status::RuntimeError("no field '" + n + "' in tuple");
        }
      }
      return in.ProjectTuple(e.names());
    }

    case ExprKind::kTupleConstruct: {
      std::vector<Field> fields;
      fields.reserve(e.names().size());
      for (size_t i = 0; i < e.names().size(); ++i) {
        N2J_ASSIGN_OR_RETURN(Value v, EvalNode(*e.child(i), env));
        fields.emplace_back(e.names()[i], std::move(v));
      }
      return Value::Tuple(std::move(fields));
    }

    case ExprKind::kTupleConcat: {
      N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
      N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
      return ConcatTuples(l, r);
    }

    case ExprKind::kExcept: {
      N2J_ASSIGN_OR_RETURN(Value in, EvalNode(*e.child(0), env));
      if (!in.is_tuple()) {
        return Status::RuntimeError("except on non-tuple");
      }
      std::vector<Field> updates;
      updates.reserve(e.names().size());
      for (size_t i = 0; i < e.names().size(); ++i) {
        N2J_ASSIGN_OR_RETURN(Value v, EvalNode(*e.child(i + 1), env));
        updates.emplace_back(e.names()[i], std::move(v));
      }
      return in.ExceptUpdate(updates);
    }

    case ExprKind::kSetConstruct: {
      std::vector<Value> elems;
      elems.reserve(e.num_children());
      for (const ExprPtr& c : e.children()) {
        N2J_ASSIGN_OR_RETURN(Value v, EvalNode(*c, env));
        elems.push_back(std::move(v));
      }
      return ToSet(std::move(elems));
    }

    case ExprKind::kDeref: {
      N2J_ASSIGN_OR_RETURN(Value in, EvalNode(*e.child(0), env));
      if (!in.is_oid()) {
        return Status::RuntimeError("deref on non-oid value");
      }
      ++stats_.derefs;
      const Value* obj = db_.FindObject(in.oid_value());
      if (obj == nullptr) return ObjectStore::DanglingOid(in.oid_value());
      return *obj;
    }

    case ExprKind::kUnary: {
      N2J_ASSIGN_OR_RETURN(Value in, EvalNode(*e.child(0), env));
      return ApplyUnOp(e.un_op(), in);
    }

    case ExprKind::kBinary:
      return EvalBinary(e, env);

    case ExprKind::kQuantifier:
      return EvalQuantifier(e, env);

    case ExprKind::kAggregate:
      return EvalAggregate(e, env);

    case ExprKind::kProject: {
      OpSpan span(opts_.trace, stats_, "project");
      AnnotateEstRows(opts_.plan, e, &span);
      N2J_ASSIGN_OR_RETURN(Value in, EvalNode(*e.child(0), env));
      if (!in.is_set()) return Status::RuntimeError("project over non-set");
      span.RowsIn(in.set_size());
      std::vector<Value> out;
      out.reserve(in.set_size());
      // Per-shape projection cache: the name list resolves to source
      // indices once per observed input shape, not per row. Semantics
      // (including the identity fast path and the first-missing-field
      // error) mirror the per-row FindField + ProjectTuple loop.
      const TupleShape* target = nullptr;
      const TupleShape* last_shape = nullptr;
      std::vector<int> idx;
      for (const Value& x : in.elements()) {
        ++stats_.tuples_scanned;
        if (!x.is_tuple()) {
          return Status::RuntimeError("projection element not a tuple");
        }
        if (x.tuple_shape() != last_shape) {
          last_shape = x.tuple_shape();
          if (target == nullptr) target = TupleShape::Intern(e.names());
          idx.clear();
          for (const std::string& n : e.names()) {
            int i = last_shape->IndexOf(n);
            if (i < 0) {
              return Status::RuntimeError("no field '" + n +
                                          "' in projection input");
            }
            idx.push_back(i);
          }
        }
        if (last_shape == target) {
          out.push_back(x);
        } else {
          out.push_back(GatherTuple(target, idx, x));
        }
      }
      span.RowsOut(static_cast<uint64_t>(out.size()));
      return ToSet(std::move(out));
    }

    case ExprKind::kNest:
      return EvalNest(e, env);

    case ExprKind::kDivide:
      return EvalDivide(e, env);

    case ExprKind::kUnion: {
      N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
      N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
      if (!l.is_set() || !r.is_set()) {
        return Status::RuntimeError("union over non-sets");
      }
      return l.SetUnion(r);
    }
    case ExprKind::kIntersect: {
      N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
      N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
      if (!l.is_set() || !r.is_set()) {
        return Status::RuntimeError("intersect over non-sets");
      }
      return l.SetIntersect(r);
    }
    case ExprKind::kDifference: {
      N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
      N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
      if (!l.is_set() || !r.is_set()) {
        return Status::RuntimeError("difference over non-sets");
      }
      return l.SetDifference(r);
    }

    default:  // the EmitsRows kinds, run above
      break;
  }
  return Status::Internal("unhandled expression kind");
}

Result<Rows> Evaluator::EvalMapSelect(const Expr& e, Environment& env,
                                      bool as_set) {
  const bool is_select = e.kind() == ExprKind::kSelect;
  if (!is_select && opts_.enable_pnhl) {
    Result<Value> fast = TryPnhlMap(e, env);
    if (fast.ok()) return Rows::Of(std::move(fast).value());
    if (fast.status().code() != StatusCode::kUnsupported) {
      return fast.status();
    }
  }
  OpSpan span(opts_.trace, stats_, is_select ? "select" : "map");
  AnnotateEstRows(opts_.plan, e, &span);
  N2J_ASSIGN_OR_RETURN(Rows in, EvalRows(*e.child(0), env, false));
  if (!in.is_set()) {
    return Status::RuntimeError(is_select ? "select over non-set"
                                          : "map over non-set");
  }
  span.RowsIn(in.set_size());
  std::span<const Value> xs = in.elements();
  std::vector<Value> out;
  if (!is_select) out.reserve(xs.size());
  auto bind = [&](Evaluator& ev, Environment& wenv) {
    return Lambda(ev, wenv, *e.child(1), e.var());
  };
  auto rows = [&](Evaluator& ev, Lambda& body, size_t begin, size_t end,
                  std::vector<Value>* kept) -> Status {
    for (const Value& x : xs.subspan(begin, end - begin)) {
      ++ev.stats_.tuples_scanned;
      if (is_select) ++ev.stats_.predicate_evals;
      // The lambda's result: the mapped row, or whether the row passes.
      Value* r = body.Run(x);
      if (r == nullptr) return body.status();
      if (!is_select) {
        kept->push_back(std::move(*r));
        continue;
      }
      if (!r->is_bool()) {
        return Status::RuntimeError("selection predicate not boolean");
      }
      if (r->bool_value()) kept->push_back(x);
    }
    return Status::OK();
  };
  N2J_RETURN_IF_ERROR(ForEachMorsel(*this, env, xs.size(),
                                    is_select ? "select" : "map", bind,
                                    rows, &out));
  // Selection keeps a subsequence of its input in input order; a map
  // can send two rows to one.
  RowOrder order = !is_select       ? RowOrder::kBag
                   : in.canonical() ? RowOrder::kCanonical
                                    : RowOrder::kDistinct;
  return EmitRows(std::move(out), order, as_set, span);
}

Result<Rows> Evaluator::EvalFlatten(const Expr& e, Environment& env,
                                    bool as_set) {
  OpSpan span(opts_.trace, stats_, "flatten");
  AnnotateEstRows(opts_.plan, e, &span);
  N2J_ASSIGN_OR_RETURN(Rows in, EvalRows(*e.child(0), env, false));
  if (!in.is_set()) return Status::RuntimeError("flatten over non-set");
  span.RowsIn(in.set_size());
  std::vector<Value> out;
  for (const Value& x : in.elements()) {
    ++stats_.tuples_scanned;
    if (!x.is_set()) {
      return Status::RuntimeError("flatten element not a set");
    }
    for (const Value& y : x.elements()) out.push_back(y);
  }
  return EmitRows(std::move(out), RowOrder::kBag, as_set, span);
}

Result<Rows> Evaluator::EvalProduct(const Expr& e, Environment& env,
                                    bool as_set) {
  OpSpan span(opts_.trace, stats_, "product");
  AnnotateEstRows(opts_.plan, e, &span);
  N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
  N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
  if (!l.is_set() || !r.is_set()) {
    return Status::RuntimeError("product over non-sets");
  }
  span.RowsIn(l.set_size());
  span.RowsBuild(r.set_size());
  std::vector<Value> out;
  out.reserve(l.set_size() * r.set_size());
  for (const Value& x : l.elements()) {
    for (const Value& y : r.elements()) {
      ++stats_.tuples_scanned;
      N2J_ASSIGN_OR_RETURN(Value combined, ConcatTuples(x, y));
      out.push_back(std::move(combined));
    }
  }
  return EmitRows(std::move(out), RowOrder::kDistinct, as_set, span);
}

Result<Value> Evaluator::EvalBinary(const Expr& e, Environment& env) {
  BinOp op = e.bin_op();
  // Short-circuit boolean connectives.
  if (op == BinOp::kAnd || op == BinOp::kOr) {
    N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
    if (!l.is_bool()) return Status::RuntimeError("and/or on non-bool");
    if (op == BinOp::kAnd && !l.bool_value()) return Value::Bool(false);
    if (op == BinOp::kOr && l.bool_value()) return Value::Bool(true);
    N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
    if (!r.is_bool()) return Status::RuntimeError("and/or on non-bool");
    return r;
  }

  N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
  N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
  // Shared with the bytecode VM (bytecode.cc) so both engines agree
  // bit-for-bit on results and error strings.
  return ApplyBinOp(op, l, r);
}

Result<Value> Evaluator::EvalQuantifier(const Expr& e, Environment& env) {
  bool exists = e.quant_kind() == QuantKind::kExists;
  OpSpan span(opts_.trace, stats_, exists ? "exists" : "forall");
  N2J_ASSIGN_OR_RETURN(Value range, EvalNode(*e.child(0), env));
  if (!range.is_set()) {
    return Status::RuntimeError("quantifier range not a set");
  }
  span.RowsIn(range.set_size());
  Lambda pred(*this, env, *e.child(1), e.var());
  for (const Value& x : range.elements()) {
    ++stats_.tuples_scanned;
    ++stats_.predicate_evals;
    Value* r = pred.Run(x);
    if (r == nullptr) return pred.status();
    if (!r->is_bool()) {
      return Status::RuntimeError("quantifier predicate not boolean");
    }
    if (exists && r->bool_value()) return Value::Bool(true);
    if (!exists && !r->bool_value()) return Value::Bool(false);
  }
  // Existential quantification over the empty set delivers false;
  // universal delivers true (Section 4, Example Query 4).
  return Value::Bool(!exists);
}

Result<Value> Evaluator::EvalAggregate(const Expr& e, Environment& env) {
  N2J_ASSIGN_OR_RETURN(Value in, EvalNode(*e.child(0), env));
  // Shared with the bytecode VM (bytecode.cc), including the
  // "aggregate over non-set" check.
  return ApplyAggregate(e.agg_kind(), in);
}

Result<Value> Evaluator::EvalNest(const Expr& e, Environment& env) {
  OpSpan span(opts_.trace, stats_, "nest");
  AnnotateEstRows(opts_.plan, e, &span);
  N2J_ASSIGN_OR_RETURN(Value in, EvalNode(*e.child(0), env));
  if (!in.is_set()) return Status::RuntimeError("nest over non-set");
  span.RowsIn(in.set_size());
  // ν_{A→a}: group on B = SCH − A; collect A-projections into `a`.
  const std::vector<std::string>& grouped = e.names();
  std::unordered_map<Value, std::vector<Value>, ValueHash> groups;
  groups.reserve(in.set_size());
  std::vector<Value> group_order;  // deterministic output
  // Rows of one input almost always share one interned shape, so the
  // "rest" attribute split — and the source index gathers for both
  // projections — are computed once per shape, not per row.
  const TupleShape* last_shape = nullptr;
  const TupleShape* grouped_target = TupleShape::Intern(grouped);
  const TupleShape* rest_target = nullptr;
  std::vector<std::string> rest;
  std::vector<int> rest_idx;
  std::vector<int> grouped_idx;
  for (const Value& x : in.elements()) {
    ++stats_.tuples_scanned;
    if (!x.is_tuple()) return Status::RuntimeError("nest element not tuple");
    if (x.tuple_shape() != last_shape) {
      last_shape = x.tuple_shape();
      rest.clear();
      for (const std::string& n : last_shape->names()) {
        bool is_grouped = false;
        for (const std::string& g : grouped) {
          if (n == g) {
            is_grouped = true;
            break;
          }
        }
        if (!is_grouped) rest.push_back(n);
      }
      for (const std::string& g : grouped) {
        if (last_shape->IndexOf(g) < 0) {
          return Status::RuntimeError("nest: no attribute '" + g + "'");
        }
      }
      rest_target = TupleShape::Intern(rest);
      rest_idx.clear();
      for (const std::string& n : rest) {
        rest_idx.push_back(last_shape->IndexOf(n));
      }
      grouped_idx.clear();
      for (const std::string& g : grouped) {
        grouped_idx.push_back(last_shape->IndexOf(g));
      }
    }
    Value key = (rest_target == last_shape)
                    ? x
                    : GatherTuple(rest_target, rest_idx, x);
    Value proj = (grouped_target == last_shape)
                     ? x
                     : GatherTuple(grouped_target, grouped_idx, x);
    ++stats_.hash_inserts;
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) group_order.push_back(key);
    it->second.push_back(std::move(proj));
  }
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(groups.size());
  span.RowsOut(static_cast<uint64_t>(group_order.size()));
  std::vector<Value> out;
  out.reserve(group_order.size());
  for (const Value& key : group_order) {
    const TupleShape* shape = key.tuple_shape()->ExtendedWith(e.name());
    out.push_back(key.AppendField(shape, ToSet(std::move(groups[key]))));
  }
  return ToSet(std::move(out));
}

Result<Rows> Evaluator::EvalUnnest(const Expr& e, Environment& env,
                                   bool as_set) {
  OpSpan span(opts_.trace, stats_, "unnest");
  AnnotateEstRows(opts_.plan, e, &span);
  N2J_ASSIGN_OR_RETURN(Rows in, EvalRows(*e.child(0), env, false));
  if (!in.is_set()) return Status::RuntimeError("unnest over non-set");
  span.RowsIn(in.set_size());
  // Rows (and set elements) of one input almost always share one
  // interned shape, so the attribute index, the rest shape and the
  // output shape are resolved once per shape, not once per row.
  const TupleShape* x_shape = nullptr;
  int attr_at = -1;
  const TupleShape* rest_shape = nullptr;
  const TupleShape* elem_shape = nullptr;
  const TupleShape* out_shape = nullptr;
  // μ repeats a row only when two input tuples agree on every attribute
  // but a and share an element. A canonical input of one shape is
  // sorted on the attributes before a first, so if any two tuples agree
  // there, two adjacent ones do: with a not first, comparing adjacent
  // tuples on that prefix proves the output duplicate-free.
  bool distinct = in.canonical();
  const Value* prev = nullptr;
  std::vector<Value> out;
  size_t expected = 0;
  for (const Value& x : in.elements()) {
    const Value* attr = x.is_tuple() ? x.FindField(e.name()) : nullptr;
    if (attr != nullptr && attr->is_set()) expected += attr->set_size();
  }
  out.reserve(expected);
  for (const Value& x : in.elements()) {
    ++stats_.tuples_scanned;
    if (!x.is_tuple()) {
      return Status::RuntimeError("unnest element not tuple");
    }
    if (x.tuple_shape() != x_shape) {
      if (x_shape != nullptr) distinct = false;
      x_shape = x.tuple_shape();
      attr_at = x_shape->IndexOf(e.name());
      rest_shape = x_shape->WithoutField(e.name());
      elem_shape = nullptr;
    }
    if (attr_at < 0) {
      return Status::RuntimeError("unnest: no attribute '" + e.name() + "'");
    }
    if (attr_at == 0) distinct = false;
    if (distinct && prev != nullptr) {
      std::span<const Value> a = prev->tuple_values();
      std::span<const Value> b = x.tuple_values();
      bool same_prefix = true;
      for (int i = 0; i < attr_at && same_prefix; ++i) {
        same_prefix = a[static_cast<size_t>(i)] == b[static_cast<size_t>(i)];
      }
      distinct = !same_prefix;
    }
    prev = &x;
    const Value& attr = x.field_value(static_cast<size_t>(attr_at));
    if (!attr.is_set()) {
      return Status::RuntimeError("unnest: attribute '" + e.name() +
                                  "' not a set");
    }
    Value rest_tuple = x.WithoutFieldAs(rest_shape, attr_at);
    for (const Value& elem : attr.elements()) {
      if (!elem.is_tuple()) {
        return Status::RuntimeError(
            "unnest: set elements must be tuples (NF2)");
      }
      if (elem.tuple_shape() != elem_shape) {
        // Mixed element shapes: leave deduplication to the sort.
        if (elem_shape != nullptr) distinct = false;
        elem_shape = elem.tuple_shape();
        out_shape = elem_shape->ConcatWith(rest_shape);
        N2J_CHECK(out_shape != nullptr);  // field names must not collide
      }
      // µ_a(e) = { x' o x[b1..bm] | x ∈ e ∧ x' ∈ x.a }
      out.push_back(elem.ConcatTupleAs(out_shape, rest_tuple));
    }
  }
  return EmitRows(std::move(out),
                  distinct ? RowOrder::kDistinct : RowOrder::kBag, as_set,
                  span);
}

Result<Value> Evaluator::EvalDivide(const Expr& e, Environment& env) {
  OpSpan span(opts_.trace, stats_, "divide");
  AnnotateEstRows(opts_.plan, e, &span);
  N2J_ASSIGN_OR_RETURN(Value l, EvalNode(*e.child(0), env));
  N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
  if (!l.is_set() || !r.is_set()) {
    return Status::RuntimeError("division over non-sets");
  }
  span.RowsIn(l.set_size());
  span.RowsBuild(r.set_size());
  if (l.set_size() == 0) return Value::EmptySet();
  if (r.set_size() == 0) {
    // The divisor schema is unknowable from an empty set at runtime;
    // classical division by the empty relation yields π_A(l) with A all
    // attributes of l (every tuple trivially satisfies ∀).
    return l;
  }
  const Value& first_r = r.elements()[0];
  if (!first_r.is_tuple() || !l.elements()[0].is_tuple()) {
    return Status::RuntimeError("division elements must be tuples");
  }
  std::vector<std::string> b_attrs = first_r.FieldNames();
  std::vector<std::string> a_attrs;
  for (const std::string& n : l.elements()[0].tuple_shape()->names()) {
    bool in_b = false;
    for (const std::string& b : b_attrs) {
      if (n == b) {
        in_b = true;
        break;
      }
    }
    if (!in_b) a_attrs.push_back(n);
  }
  // Index l by its A-projection.
  std::unordered_map<Value, std::vector<Value>, ValueHash> by_a;
  by_a.reserve(l.set_size());
  for (const Value& x : l.elements()) {
    ++stats_.tuples_scanned;
    ++stats_.hash_inserts;
    by_a[x.ProjectTuple(a_attrs)].push_back(x.ProjectTuple(b_attrs));
  }
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(by_a.size());
  std::vector<Value> out;
  for (auto& [a, bs] : by_a) {
    Value b_set = ToSet(bs);
    ++stats_.hash_probes;
    if (r.IsSubsetOf(b_set, false)) out.push_back(a);
  }
  span.RowsOut(static_cast<uint64_t>(out.size()));
  return ToSet(std::move(out));
}

Result<Rows> Evaluator::EvalJoinLike(const Expr& e, Environment& env,
                                     bool as_set) {
  const char* op = "join";
  switch (e.kind()) {
    case ExprKind::kSemiJoin:
      op = "semijoin";
      break;
    case ExprKind::kAntiJoin:
      op = "antijoin";
      break;
    case ExprKind::kNestJoin:
      op = "nestjoin";
      break;
    default:
      break;
  }
  OpSpan span(opts_.trace, stats_, op);
  AnnotateEstRows(opts_.plan, e, &span);
  // The cost-based planner (opt/optimizer.h) can pin a physical
  // algorithm on this specific node; unpinned nodes and heuristic runs
  // keep the engine-wide setting.
  JoinAlgorithm algorithm = opts_.join_algorithm;
  if (opts_.plan != nullptr) {
    const PlanAnnotation* pa = opts_.plan->Find(&e);
    if (pa != nullptr && pa->algorithm.has_value()) algorithm = *pa->algorithm;
  }
  N2J_ASSIGN_OR_RETURN(Rows l, EvalRows(*e.child(0), env, false));
  N2J_ASSIGN_OR_RETURN(Value r, EvalNode(*e.child(1), env));
  if (!l.is_set() || !r.is_set()) {
    return Status::RuntimeError("join over non-sets");
  }
  span.RowsIn(l.set_size());
  span.RowsBuild(r.set_size());
  JoinShape shape;
  JoinMethod method = JoinMethod::kNestedLoop;
  if (opts_.use_hash_joins && algorithm != JoinAlgorithm::kNestedLoop) {
    // Only an index request can use an index: skip the lookup otherwise.
    shape = MatchJoin(e, algorithm == JoinAlgorithm::kIndex ? &db_ : nullptr);
    method = shape.Dispatch(algorithm);
  }
  span.Label(JoinMethodName(method));
  std::vector<Value> out;
  Status s = [&]() -> Status {
    switch (method) {
      case JoinMethod::kIndex:
        ++stats_.joins_index;
        return IndexJoin(e, shape, l, env, &out);
      case JoinMethod::kHash:
        ++stats_.joins_hash;
        return HashJoin(e, shape, l, r, env, &out);
      case JoinMethod::kMembership:
        ++stats_.joins_membership;
        return MembershipJoin(e, shape, l, r, env, &out);
      case JoinMethod::kNestedLoop:
        break;
    }
    ++stats_.joins_nested_loop;
    return NestedLoopJoin(e, l, r, env, &out);
  }();
  N2J_RETURN_IF_ERROR(s);
  // A semijoin or antijoin keeps a subsequence of the probe side, in
  // probe order. Distinct probe rows give distinct output rows, except
  // that the index join pairs with the table's stored rows, which may
  // repeat.
  RowOrder order = RowOrder::kDistinct;
  if (l.canonical() &&
      (e.kind() == ExprKind::kSemiJoin || e.kind() == ExprKind::kAntiJoin)) {
    order = RowOrder::kCanonical;
  } else if (method == JoinMethod::kIndex && e.kind() == ExprKind::kJoin) {
    order = RowOrder::kBag;
  }
  return EmitRows(std::move(out), order, as_set, span);
}

Status Evaluator::NestedLoopJoin(const Expr& e, const Rows& l, const Value& r,
                                 Environment& env, std::vector<Value>* out) {
  const bool identity = IsIdentityInner(e);
  Lambda pred(*this, env, *e.pred(), e.var(), e.var2());
  Lambda inner;
  if (e.kind() == ExprKind::kNestJoin && !identity) {
    inner = Lambda(*this, env, *e.inner(), e.var(), e.var2());
  }
  ShapeCursor nest_shape;
  for (const Value& x : l.elements()) {
    ++stats_.tuples_scanned;
    bool matched = false;
    std::vector<Value> group;  // nestjoin inner results
    for (const Value& y : r.elements()) {
      ++stats_.predicate_evals;
      Value* p = pred.Run(x, y);
      if (p == nullptr) return pred.status();
      if (!p->is_bool()) {
        return Status::RuntimeError("join predicate not boolean");
      }
      if (!p->bool_value()) continue;
      if (e.kind() == ExprKind::kJoin) {
        N2J_ASSIGN_OR_RETURN(Value combined, ConcatTuples(x, y));
        out->push_back(std::move(combined));
      } else if (e.kind() != ExprKind::kNestJoin) {
        matched = true;
        if (e.kind() == ExprKind::kSemiJoin) break;
      } else if (identity) {
        group.push_back(y);
      } else {
        Value* iv = inner.Run(x, y);
        if (iv == nullptr) return inner.status();
        group.push_back(std::move(*iv));
      }
    }
    switch (e.kind()) {
      case ExprKind::kSemiJoin:
        if (matched) out->push_back(x);
        break;
      case ExprKind::kAntiJoin:
        if (!matched) out->push_back(x);
        break;
      case ExprKind::kNestJoin:
        if (!x.is_tuple()) {
          return Status::RuntimeError("nestjoin element not a tuple");
        }
        if (x.FindField(e.name()) != nullptr) {
          return Status::RuntimeError("nestjoin result attribute '" +
                                      e.name() + "' collides");
        }
        // An identity group holds right rows in the canonical right
        // set's order.
        out->push_back(x.AppendField(
            nest_shape.Extended(x, e.name()),
            identity ? Value::SetFromCanonical(std::move(group))
                     : ToSet(std::move(group))));
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

Value EvalOrDie(const Database& db, const ExprPtr& e) {
  Evaluator ev(db);
  Result<Value> r = ev.Eval(e);
  if (!r.ok()) {
    std::fprintf(stderr, "EvalOrDie failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

}  // namespace n2j
