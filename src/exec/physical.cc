// Hash-based and index-based physical implementations of the join
// family, including the nestjoin (Section 6.1: common join
// implementation methods such as the hash join can be adapted to
// implement the nestjoin). The evaluator dispatches here
// when the node's JoinShape (exec/equi_join.h) has equi keys. The
// membership join lives in physical_membership.cc.

#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "exec/join_table.h"
#include "exec/morsel.h"
#include "obs/trace.h"
#include "storage/index.h"

namespace n2j {

Status Evaluator::EmitJoinResult(const Expr& e, const Value& x,
                                 const std::vector<const Value*>& matches,
                                 bool canonical_build,
                                 std::vector<Value>* out, JoinLambdas& jl) {
  switch (e.kind()) {
    case ExprKind::kJoin:
      for (const Value* y : matches) {
        N2J_ASSIGN_OR_RETURN(Value combined, ConcatTuples(x, *y));
        out->push_back(std::move(combined));
      }
      return Status::OK();
    case ExprKind::kSemiJoin:
      if (!matches.empty()) out->push_back(x);
      return Status::OK();
    case ExprKind::kAntiJoin:
      if (matches.empty()) out->push_back(x);
      return Status::OK();
    case ExprKind::kNestJoin: {
      if (!x.is_tuple()) {
        return Status::RuntimeError("nestjoin element not a tuple");
      }
      if (x.FindField(e.name()) != nullptr) {
        return Status::RuntimeError("nestjoin result attribute '" +
                                    e.name() + "' collides");
      }
      std::vector<Value> group;
      group.reserve(matches.size());
      // An identity group is the matches themselves: canonical as they
      // stand when they sit at increasing positions of a canonical build.
      bool canonical = false;
      if (jl.identity_inner) {
        canonical = canonical_build;
        for (size_t i = 0; i < matches.size(); ++i) {
          if (i > 0 && matches[i] <= matches[i - 1]) canonical = false;
          group.push_back(*matches[i]);
        }
      } else {
        for (const Value* y : matches) {
          Value* iv = jl.inner.Run(x, *y);
          if (iv == nullptr) return jl.inner.status();
          group.push_back(std::move(*iv));
        }
      }
      out->push_back(x.AppendField(
          jl.nest_shape.Extended(x, e.name()),
          canonical ? Value::SetFromCanonical(std::move(group))
                    : ToSet(std::move(group))));
      return Status::OK();
    }
    default:
      return Status::Internal("EmitJoinResult on non-join node");
  }
}

Status Evaluator::ResidualHolds(Lambda& residual, const Value& x,
                                const Value& y, bool* holds) {
  ++stats_.predicate_evals;
  const Value* p = residual.Run(x, y);
  if (p == nullptr) return residual.status();
  if (!p->is_bool()) return Status::RuntimeError("join residual not boolean");
  *holds = p->bool_value();
  return Status::OK();
}

Status Evaluator::HashJoin(const Expr& e, const JoinShape& shape,
                           const Rows& l, const Value& r, Environment& env,
                           std::vector<Value>* out) {
  const EquiJoinKeys& keys = shape.keys;
  if (opts_.trace != nullptr) opts_.trace->AnnotateOpen(keys.Describe());
  ExprPtr residual = Expr::AndAll(keys.residual);

  // Build phase over the right operand, on this evaluator.
  Lambda right_key = Lambda::Key(*this, env, keys.right_keys, e.var2());
  const std::vector<Value>& build = r.elements();
  JoinTable table(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    ++stats_.tuples_scanned;
    Value* key = right_key.Run(build[i]);
    if (key == nullptr) return right_key.status();
    ++stats_.hash_inserts;
    table.Insert(std::move(*key), static_cast<uint32_t>(i));
  }
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(table.num_keys());

  // Probe phase over the left operand; morsels share the read-only table.
  std::span<const Value> probe = l.elements();
  auto bind = [&](Evaluator& ev, Environment& wenv) {
    JoinLambdas jl(ev, wenv, e, *residual);
    jl.key = Lambda::Key(ev, wenv, keys.left_keys, e.var());
    return jl;
  };
  auto rows = [&](Evaluator& ev, JoinLambdas& jl, size_t begin, size_t end,
                  std::vector<Value>* rows_out) -> Status {
    for (const Value& x : probe.subspan(begin, end - begin)) {
      ++ev.stats_.tuples_scanned;
      Value* key = jl.key.Run(x);
      if (key == nullptr) return jl.key.status();
      ++ev.stats_.hash_probes;
      N2J_RETURN_IF_ERROR(
          ev.CollectMatches(keys, build, table.Find(*key), x, jl));
      N2J_RETURN_IF_ERROR(ev.EmitJoinResult(e, x, jl.matches,
                                            /*canonical_build=*/true,
                                            rows_out, jl));
    }
    return Status::OK();
  };
  return ForEachMorsel(*this, env, probe.size(), "join/probe", bind, rows,
                       out);
}

Status Evaluator::CollectMatches(const EquiJoinKeys& keys,
                                 const std::vector<Value>& build,
                                 const JoinTable::Chain& chain,
                                 const Value& x, JoinLambdas& jl) {
  jl.matches.clear();
  for (uint32_t row : chain) {
    const Value& y = build[row];
    bool holds = true;
    if (!keys.residual.empty()) {
      N2J_RETURN_IF_ERROR(ResidualHolds(jl.residual, x, y, &holds));
    }
    if (holds) jl.matches.push_back(&y);
  }
  return Status::OK();
}

Status Evaluator::IndexJoin(const Expr& e, const JoinShape& shape,
                            const Rows& l, Environment& env,
                            std::vector<Value>* out) {
  // The shape guarantees a base-table right side probed through a
  // prebuilt index on the single right key attribute y.<field>.
  const EquiJoinKeys& keys = shape.keys;
  const HashIndex* index = shape.index;
  const std::string& table_name = e.child(1)->name();
  const Table* table = db_.FindTable(table_name);
  N2J_CHECK(table != nullptr);
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen("index=" + table_name + "." +
                              keys.right_keys[0]->name());
  }

  ExprPtr residual = Expr::AndAll(keys.residual);
  JoinLambdas jl(*this, env, e, *residual);
  jl.key = Lambda::Key(*this, env, keys.left_keys, e.var());
  for (const Value& x : l.elements()) {
    ++stats_.tuples_scanned;
    Value* key = jl.key.Run(x);
    if (key == nullptr) return jl.key.status();
    ++stats_.index_probes;
    const std::vector<size_t>* rows = index->Lookup(*key);
    jl.matches.clear();
    if (rows != nullptr) {
      for (size_t row : *rows) {
        const Value& y = table->rows()[row];
        bool holds = true;
        if (!keys.residual.empty()) {
          N2J_RETURN_IF_ERROR(ResidualHolds(jl.residual, x, y, &holds));
        }
        if (holds) jl.matches.push_back(&y);
      }
    }
    // The matches point into the table's insertion-ordered rows.
    N2J_RETURN_IF_ERROR(EmitJoinResult(e, x, jl.matches,
                                       /*canonical_build=*/false, out, jl));
  }
  return Status::OK();
}

}  // namespace n2j
