// Hash implementation for membership join predicates:
//
//   X ⊗_{x,y : f(y) ∈ x.c ∧ residual} Y            (⊗ any of ⋈, ⋉, ▷, ⊣)
//   X ⊗_{x,y : x.c ∋ f(y) ∧ residual} Y
//   X ⊗_{x,y : (∃v ∈ x.c · k(v) = f(y)) ∧ residual} Y
//
// Builds a hash table on f(y) over the right operand, then probes it
// once per *element* of each left tuple's set attribute — |X|·fanout
// probes instead of |X|·|Y| predicate evaluations. This is the access
// pattern of the paper's Example Query 6 (σ[p : p[pid] ∈ s.parts](PART)
// under the nestjoin) and of Example Query 5's semijoin
// (∃x ∈ s.parts · x.pid = p.pid). The conjunct is matched once per node
// by MatchJoin (exec/equi_join.h).

#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "exec/join_table.h"
#include "exec/morsel.h"
#include "obs/trace.h"

namespace n2j {

Status Evaluator::MembershipJoin(const Expr& e, const JoinShape& shape,
                                 const Rows& l, const Value& r,
                                 Environment& env, std::vector<Value>* out) {
  const MembershipKey& key = shape.membership;
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen("attr=" + key.attr);
  }

  // Build: f(y) → matching right tuples, on this evaluator.
  Lambda build_key(*this, env, *key.right_key, e.var2());
  const std::vector<Value>& build = r.elements();
  JoinTable table(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    ++stats_.tuples_scanned;
    Value* kv = build_key.Run(build[i]);
    if (kv == nullptr) return build_key.status();
    ++stats_.hash_inserts;
    table.Insert(std::move(*kv), static_cast<uint32_t>(i));
  }
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(table.num_keys());

  ExprPtr residual = Expr::AndAll(key.residual);
  bool trivial_residual = key.residual.empty();
  // Binds one evaluator's probe-side lambdas and sizes its key stamps.
  auto bind = [&](Evaluator& ev, Environment& wenv) {
    JoinLambdas jl(ev, wenv, e, *residual);
    if (key.elem_key != nullptr) {
      jl.key = Lambda(ev, wenv, *key.elem_key, key.elem_var);
      jl.key_seen.assign(table.num_keys(), 0);
    }
    return jl;
  };

  // Probes the (shared, read-only) table once per set element of each
  // left tuple in [begin, end). With an element key k(v), two distinct
  // elements can share a key, so right tuples are deduplicated: a right
  // tuple is reachable only through its own key's chain, so skipping
  // every key this tuple already reached tests each right tuple once,
  // whatever the residual said the first time. key_seen stamps a key
  // with pos + 1 of the left tuple that reached it last, so the stamps
  // never need clearing.
  std::span<const Value> probe = l.elements();
  auto rows = [&](Evaluator& ev, JoinLambdas& jl, size_t begin, size_t end,
                  std::vector<Value>* rows_out) -> Status {
    for (size_t pos = begin; pos < end; ++pos) {
      const Value& x = probe[pos];
      ++ev.stats_.tuples_scanned;
      if (!x.is_tuple()) {
        return Status::RuntimeError("join element not a tuple");
      }
      const Value* attr = x.FindField(key.attr);
      if (attr == nullptr || !attr->is_set()) {
        return Status::RuntimeError("membership attribute '" + key.attr +
                                    "' is not a set");
      }
      const uint32_t stamp = static_cast<uint32_t>(pos) + 1;
      jl.matches.clear();
      for (const Value& elem : attr->elements()) {
        ++ev.stats_.hash_probes;
        const Value* probe_key = &elem;
        if (key.elem_key != nullptr) {
          probe_key = jl.key.Run(elem);
          if (probe_key == nullptr) return jl.key.status();
        }
        JoinTable::Chain chain = table.Find(*probe_key);
        if (key.elem_key != nullptr) {
          if (chain.empty() || jl.key_seen[chain.key_id()] == stamp) continue;
          jl.key_seen[chain.key_id()] = stamp;
        }
        for (uint32_t row : chain) {
          const Value& y = build[row];
          bool holds = true;
          if (!trivial_residual) {
            N2J_RETURN_IF_ERROR(ev.ResidualHolds(jl.residual, x, y, &holds));
          }
          if (holds) jl.matches.push_back(&y);
        }
      }
      N2J_RETURN_IF_ERROR(ev.EmitJoinResult(e, x, jl.matches,
                                            /*canonical_build=*/true,
                                            rows_out, jl));
    }
    return Status::OK();
  };
  return ForEachMorsel(*this, env, probe.size(), "membership/probe", bind,
                       rows, out);
}

}  // namespace n2j
