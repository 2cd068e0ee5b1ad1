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

#include <iterator>

#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "exec/join_table.h"
#include "obs/trace.h"

namespace n2j {

Status Evaluator::MembershipJoin(const Expr& e, const JoinShape& shape,
                                 const Rows& l, const Value& r,
                                 Environment& env, std::vector<Value>* out) {
  const MembershipKey& key = shape.membership;
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen("attr=" + key.attr);
  }

  // Build: f(y) → matching right tuples. The build side runs on this
  // evaluator (serial even under morsel parallelism).
  CompiledLambda build_key;
  if (opts_.compiled && r.set_size() > 0) {
    build_key.Compile(*this, *key.right_key, {e.var2()}, env,
                      FirstElemShape(r));
  }
  const std::vector<ExprPtr> right_keys = {key.right_key};
  const std::vector<Value>& build = r.elements();
  JoinTable table(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    ++stats_.tuples_scanned;
    N2J_ASSIGN_OR_RETURN(Value kv, JoinKey(build_key, right_keys, e.var2(),
                                           build[i], env));
    ++stats_.hash_inserts;
    table.Insert(std::move(kv), static_cast<uint32_t>(i));
  }
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(table.num_keys());

  ExprPtr residual = Expr::AndAll(key.residual);
  bool trivial_residual = key.residual.empty();
  const std::vector<ExprPtr> elem_keys = {key.elem_key};

  // Probe-side element shape: the elements of the first left tuple's
  // set attribute seed the element-key program's inline caches.
  const TupleShape* elem_shape = nullptr;
  if (l.set_size() > 0) {
    const Value& x0 = l.elements()[0];
    if (x0.is_tuple()) {
      const Value* a = x0.FindField(key.attr);
      if (a != nullptr && a->is_set()) elem_shape = FirstElemShape(*a);
    }
  }
  // Sizes one worker frame's key stamps and compiles its probe-side
  // lambdas; also invoked for the serial path (with this evaluator as
  // the single "worker").
  const TupleShape* l_shape = FirstElemShape(l.elements());
  const bool identity = IsIdentityInner(e);
  auto compile_probe = [&](Evaluator& ev, Environment& wenv,
                           JoinLambdas* jl) {
    if (key.elem_key != nullptr) jl->key_seen.assign(table.num_keys(), 0);
    jl->identity_inner = identity;
    if (!opts_.compiled || l.set_size() == 0) return;
    if (key.elem_key != nullptr) {
      jl->elem_key.Compile(ev, *key.elem_key, {key.elem_var}, wenv,
                           elem_shape);
    }
    if (!trivial_residual) {
      jl->residual.Compile(ev, *residual, {e.var(), e.var2()}, wenv, l_shape);
    }
    if (e.kind() == ExprKind::kNestJoin && !identity) {
      jl->inner.Compile(ev, *e.inner(), {e.var(), e.var2()}, wenv, l_shape);
    }
  };

  // Matches for one left tuple: probe the (shared, read-only) table once
  // per set element under the given worker evaluator. With an element
  // key k(v), two distinct elements can share a key, so right tuples are
  // deduplicated: a right tuple is reachable only through its own key's
  // chain, so skipping every key this tuple already reached tests each
  // right tuple once, whatever the residual said the first time. The
  // worker's key_seen stamps a key with pos + 1 of the left tuple that
  // reached it last, so the stamps never need clearing.
  auto probe_one = [&](Evaluator& ev, Environment& wenv, const Value& x,
                       size_t pos, JoinLambdas& jl) -> Status {
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
      const Value* probe = &elem;
      Value elem_key;
      if (key.elem_key != nullptr) {
        N2J_ASSIGN_OR_RETURN(elem_key, ev.JoinKey(jl.elem_key, elem_keys,
                                                  key.elem_var, elem, wenv));
        probe = &elem_key;
      }
      JoinTable::Chain chain = table.Find(*probe);
      if (key.elem_key != nullptr) {
        if (chain.empty() || jl.key_seen[chain.key_id()] == stamp) continue;
        jl.key_seen[chain.key_id()] = stamp;
      }
      for (uint32_t row : chain) {
        const Value& y = build[row];
        bool holds = true;
        if (!trivial_residual) {
          N2J_RETURN_IF_ERROR(ev.ResidualHolds(e, *residual, jl.residual, x,
                                               y, wenv, &holds));
        }
        if (holds) jl.matches.push_back(&y);
      }
    }
    return Status::OK();
  };

  if (opts_.num_threads > 1 && l.set_size() > 1) {
    return ParallelMembershipProbe(e, l, env, out, compile_probe, probe_one);
  }

  JoinLambdas jl;
  compile_probe(*this, env, &jl);
  std::span<const Value> probe = l.elements();
  for (size_t i = 0; i < probe.size(); ++i) {
    ++stats_.tuples_scanned;
    N2J_RETURN_IF_ERROR(probe_one(*this, env, probe[i], i, jl));
    N2J_RETURN_IF_ERROR(EmitJoinResult(e, probe[i], jl.matches,
                                       /*canonical_build=*/true, env, out,
                                       jl));
  }
  return Status::OK();
}

// Probe-side morsel parallelism: the build table is shared read-only;
// each morsel probes its left-tuple range with a per-worker evaluator
// and emits into its own output slot, concatenated in morsel order.
Status Evaluator::ParallelMembershipProbe(
    const Expr& e, const Rows& l, Environment& env, std::vector<Value>* out,
    const std::function<void(Evaluator& worker, Environment& wenv,
                             JoinLambdas* jl)>& compile_worker,
    const std::function<Status(Evaluator& worker, Environment& wenv,
                               const Value& x, size_t pos,
                               JoinLambdas& jl)>& probe_one) {
  std::span<const Value> probe = l.elements();
  ThreadPool& tp = pool();
  tp.set_morsel_phase("membership/probe");
  const int num_workers = tp.num_workers();
  std::vector<std::unique_ptr<Evaluator>> workers = ForkWorkers(num_workers);
  std::vector<Environment> envs(static_cast<size_t>(num_workers), env);
  // Per-worker compiled frames (register frames and inline caches are
  // single-consumer), built on the coordinating thread.
  std::vector<JoinLambdas> jls(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    compile_worker(*workers[static_cast<size_t>(w)],
                   envs[static_cast<size_t>(w)],
                   &jls[static_cast<size_t>(w)]);
  }

  size_t morsel_size = PickMorselSize(probe.size(), num_workers);
  size_t num_morsels = NumMorsels(probe.size(), morsel_size);
  std::vector<std::vector<Value>> outs(num_morsels);
  Status s = tp.RunMorsels(num_morsels, [&](int w, size_t m) -> Status {
    Evaluator& ev = *workers[static_cast<size_t>(w)];
    Environment& wenv = envs[static_cast<size_t>(w)];
    JoinLambdas& jl = jls[static_cast<size_t>(w)];
    MorselRange range = MorselAt(probe.size(), morsel_size, m);
    for (size_t i = range.begin; i < range.end; ++i) {
      const Value& x = probe[i];
      ++ev.stats_.tuples_scanned;
      N2J_RETURN_IF_ERROR(probe_one(ev, wenv, x, i, jl));
      N2J_RETURN_IF_ERROR(ev.EmitJoinResult(e, x, jl.matches,
                                            /*canonical_build=*/true, wenv,
                                            &outs[m], jl));
    }
    return Status::OK();
  });
  MergeWorkerStats(workers);
  N2J_RETURN_IF_ERROR(s);
  for (std::vector<Value>& o : outs) {
    out->insert(out->end(), std::make_move_iterator(o.begin()),
                std::make_move_iterator(o.end()));
  }
  return Status::OK();
}

}  // namespace n2j
