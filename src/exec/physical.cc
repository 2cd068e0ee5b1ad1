// Hash-based and index-based physical implementations of the join
// family, including the nestjoin (Section 6.1: "To implement the
// nestjoin, common join implementation methods like the sort-merge
// join, or the hash join can be adapted"). The evaluator dispatches here
// when the node's JoinShape (exec/equi_join.h) has equi keys. The
// sort-merge variant lives in physical_sortmerge.cc, the membership
// join in physical_membership.cc.

#include <iterator>

#include "exec/compile.h"
#include "exec/equi_join.h"
#include "exec/eval.h"
#include "exec/join_table.h"
#include "obs/trace.h"
#include "storage/index.h"

namespace n2j {

Status Evaluator::EmitJoinResult(const Expr& e, const Value& x,
                                 const std::vector<const Value*>& matches,
                                 bool canonical_build, Environment& env,
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
      CompiledLambda& inner = jl.inner;
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
      } else if (inner.ok()) {
        for (const Value* y : matches) {
          Value* iv = inner.Run(x, *y);
          if (iv == nullptr) return inner.status();
          group.push_back(std::move(*iv));
        }
      } else {
        bool count_fallback = inner.fallback();
        env.Push(e.var(), x);
        for (const Value* y : matches) {
          if (count_fallback) ++stats_.interp_fallback_evals;
          env.Push(e.var2(), *y);
          Result<Value> iv = EvalNode(*e.inner(), env);
          env.Pop();
          if (!iv.ok()) {
            env.Pop();
            return iv.status();
          }
          group.push_back(std::move(iv).value());
        }
        env.Pop();
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

void Evaluator::CompileJoinLambdas(const Expr& e, const EquiJoinKeys& keys,
                                   const Expr& residual, const Rows& l,
                                   const Value* r, Environment& env,
                                   JoinLambdas* jl) {
  jl->identity_inner = IsIdentityInner(e);
  if (!opts_.compiled) return;
  if (r != nullptr && r->set_size() > 0) {
    jl->right_key.CompileKey(*this, keys.right_keys, e.var2(), env,
                             FirstElemShape(*r));
  }
  if (l.set_size() == 0) return;
  const TupleShape* l_shape = FirstElemShape(l.elements());
  jl->left_key.CompileKey(*this, keys.left_keys, e.var(), env, l_shape);
  if (!keys.residual.empty()) {
    jl->residual.Compile(*this, residual, {e.var(), e.var2()}, env, l_shape);
  }
  if (e.kind() == ExprKind::kNestJoin && !jl->identity_inner) {
    jl->inner.Compile(*this, *e.inner(), {e.var(), e.var2()}, env, l_shape);
  }
}

Result<Value> Evaluator::JoinKey(CompiledLambda& cl,
                                 const std::vector<ExprPtr>& keys,
                                 const std::string& var, const Value& row,
                                 Environment& env) {
  if (cl.ok()) {
    Value* k = cl.Run(row);
    if (k == nullptr) return cl.status();
    return std::move(*k);
  }
  if (cl.fallback()) ++stats_.interp_fallback_evals;
  env.Push(var, row);
  std::vector<Value> parts;
  parts.reserve(keys.size());
  for (const ExprPtr& k : keys) {
    Result<Value> kv = EvalNode(*k, env);
    if (!kv.ok()) {
      env.Pop();
      return kv.status();
    }
    parts.push_back(std::move(kv).value());
  }
  env.Pop();
  return JoinKeyFromParts(std::move(parts));
}

Status Evaluator::ResidualHolds(const Expr& e, const Expr& residual,
                                CompiledLambda& cl, const Value& x,
                                const Value& y, Environment& env,
                                bool* holds) {
  ++stats_.predicate_evals;
  Result<Value> interp = Value();
  const Value* p = nullptr;
  if (cl.ok()) {
    p = cl.Run(x, y);
    if (p == nullptr) return cl.status();
  } else {
    if (cl.fallback()) ++stats_.interp_fallback_evals;
    env.Push(e.var(), x);
    env.Push(e.var2(), y);
    interp = EvalNode(residual, env);
    env.Pop();
    env.Pop();
    if (!interp.ok()) return interp.status();
    p = &*interp;
  }
  if (!p->is_bool()) return Status::RuntimeError("join residual not boolean");
  *holds = p->bool_value();
  return Status::OK();
}

Status Evaluator::HashJoin(const Expr& e, const JoinShape& shape,
                           const Rows& l, const Value& r, Environment& env,
                           std::vector<Value>* out) {
  const EquiJoinKeys& keys = shape.keys;
  if (opts_.trace != nullptr) opts_.trace->AnnotateOpen(keys.Describe());
  if (opts_.num_threads > 1 && (l.set_size() > 1 || r.set_size() > 1)) {
    return ParallelHashJoin(e, l, r, env, keys, out);
  }

  ExprPtr residual = Expr::AndAll(keys.residual);
  JoinLambdas jl;
  CompileJoinLambdas(e, keys, *residual, l, &r, env, &jl);

  // Build phase over the right operand.
  const std::vector<Value>& build = r.elements();
  JoinTable table(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    ++stats_.tuples_scanned;
    N2J_ASSIGN_OR_RETURN(Value key, JoinKey(jl.right_key, keys.right_keys,
                                            e.var2(), build[i], env));
    ++stats_.hash_inserts;
    table.Insert(std::move(key), static_cast<uint32_t>(i));
  }
  if (opts_.trace != nullptr) opts_.trace->NotePeakHash(table.num_keys());

  // Probe phase over the left operand.
  for (const Value& x : l.elements()) {
    ++stats_.tuples_scanned;
    N2J_ASSIGN_OR_RETURN(
        Value key, JoinKey(jl.left_key, keys.left_keys, e.var(), x, env));
    ++stats_.hash_probes;
    N2J_RETURN_IF_ERROR(CollectMatches(e, *residual, keys, build,
                                       table.Find(key), x, env, jl));
    N2J_RETURN_IF_ERROR(EmitJoinResult(e, x, jl.matches,
                                       /*canonical_build=*/true, env, out,
                                       jl));
  }
  return Status::OK();
}

Status Evaluator::CollectMatches(const Expr& e, const Expr& residual,
                                 const EquiJoinKeys& keys,
                                 const std::vector<Value>& build,
                                 const JoinTable::Chain& chain,
                                 const Value& x, Environment& env,
                                 JoinLambdas& jl) {
  jl.matches.clear();
  for (uint32_t row : chain) {
    const Value& y = build[row];
    bool holds = true;
    if (!keys.residual.empty()) {
      N2J_RETURN_IF_ERROR(
          ResidualHolds(e, residual, jl.residual, x, y, env, &holds));
    }
    if (holds) jl.matches.push_back(&y);
  }
  return Status::OK();
}

// Morsel-driven parallel hash join (num_threads > 1). Three passes:
//
//   1. build-key evaluation — parallel morsels over the right operand,
//      each key written to its input-index slot;
//   2. hash-partitioned build — partition p owns keys with
//      hash(key) % P == p; each partition task scans the key vector in
//      input order, so bucket contents keep the serial insertion order;
//   3. probe — parallel morsels over the left operand, each morsel
//      emitting into its own output slot; slots are concatenated in
//      morsel order.
//
// Every intermediate is indexed by input position, so the result (and,
// after the per-worker merge, every EvalStats counter) is independent
// of thread scheduling.
Status Evaluator::ParallelHashJoin(const Expr& e, const Rows& l,
                                   const Value& r, Environment& env,
                                   const EquiJoinKeys& keys,
                                   std::vector<Value>* out) {
  const std::vector<Value>& build = r.elements();
  std::span<const Value> probe = l.elements();
  ThreadPool& tp = pool();
  const int num_workers = tp.num_workers();
  std::vector<std::unique_ptr<Evaluator>> workers = ForkWorkers(num_workers);
  std::vector<Environment> envs(static_cast<size_t>(num_workers), env);

  // One JoinLambdas per worker frame: programs own mutable register
  // frames and inline caches, so they are never shared across threads.
  // Compilation happens on the coordinating thread before any morsel
  // runs (compile touches the worker's table cache).
  ExprPtr residual = Expr::AndAll(keys.residual);
  std::vector<JoinLambdas> jls(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    workers[static_cast<size_t>(w)]->CompileJoinLambdas(
        e, keys, *residual, l, &r, envs[static_cast<size_t>(w)],
        &jls[static_cast<size_t>(w)]);
  }

  // Pass 1: evaluate build keys (and their hashes) slot-per-element.
  const size_t num_partitions = static_cast<size_t>(num_workers);
  std::vector<Value> build_keys(build.size());
  std::vector<uint64_t> build_hashes(build.size());
  size_t build_morsel = PickMorselSize(build.size(), num_workers);
  tp.set_morsel_phase("join/build-keys");
  Status s = tp.RunMorsels(
      NumMorsels(build.size(), build_morsel), [&](int w, size_t m) -> Status {
        Evaluator& ev = *workers[static_cast<size_t>(w)];
        Environment& wenv = envs[static_cast<size_t>(w)];
        JoinLambdas& jl = jls[static_cast<size_t>(w)];
        MorselRange range = MorselAt(build.size(), build_morsel, m);
        for (size_t i = range.begin; i < range.end; ++i) {
          ++ev.stats_.tuples_scanned;
          N2J_ASSIGN_OR_RETURN(Value key,
                               ev.JoinKey(jl.right_key, keys.right_keys,
                                          e.var2(), build[i], wenv));
          build_hashes[i] = key.Hash();
          build_keys[i] = std::move(key);
        }
        return Status::OK();
      });
  if (!s.ok()) {
    MergeWorkerStats(workers);
    return s;
  }

  // Pass 2: one build task per partition; chain order = input order.
  std::vector<JoinTable> tables;
  tables.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    tables.emplace_back(build.size() / num_partitions + 1);
  }
  tp.set_morsel_phase("join/partition");
  s = tp.RunMorsels(num_partitions, [&](int, size_t p) -> Status {
    JoinTable& table = tables[p];
    for (size_t i = 0; i < build.size(); ++i) {
      if (build_hashes[i] % num_partitions != p) continue;
      table.Insert(std::move(build_keys[i]), build_hashes[i],
                   static_cast<uint32_t>(i));
    }
    return Status::OK();
  });
  stats_.hash_inserts += build.size();
  if (!s.ok()) {
    MergeWorkerStats(workers);
    return s;
  }
  if (opts_.trace != nullptr) {
    // The partitions are resident simultaneously; their combined entry
    // count is what the serial build would have held.
    uint64_t entries = 0;
    for (const JoinTable& t : tables) entries += t.num_keys();
    opts_.trace->NotePeakHash(entries);
  }

  // Pass 3: probe morsels, each with its own output slot.
  size_t probe_morsel = PickMorselSize(probe.size(), num_workers);
  size_t num_morsels = NumMorsels(probe.size(), probe_morsel);
  std::vector<std::vector<Value>> outs(num_morsels);
  tp.set_morsel_phase("join/probe");
  s = tp.RunMorsels(num_morsels, [&](int w, size_t m) -> Status {
    Evaluator& ev = *workers[static_cast<size_t>(w)];
    Environment& wenv = envs[static_cast<size_t>(w)];
    JoinLambdas& jl = jls[static_cast<size_t>(w)];
    MorselRange range = MorselAt(probe.size(), probe_morsel, m);
    for (size_t i = range.begin; i < range.end; ++i) {
      const Value& x = probe[i];
      ++ev.stats_.tuples_scanned;
      N2J_ASSIGN_OR_RETURN(
          Value key, ev.JoinKey(jl.left_key, keys.left_keys, e.var(), x, wenv));
      ++ev.stats_.hash_probes;
      const uint64_t hash = key.Hash();
      N2J_RETURN_IF_ERROR(ev.CollectMatches(
          e, *residual, keys, build,
          tables[hash % num_partitions].Find(key, hash), x, wenv, jl));
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
  JoinLambdas jl;
  CompileJoinLambdas(e, keys, *residual, l, nullptr, env, &jl);
  for (const Value& x : l.elements()) {
    ++stats_.tuples_scanned;
    N2J_ASSIGN_OR_RETURN(
        Value key, JoinKey(jl.left_key, keys.left_keys, e.var(), x, env));
    ++stats_.index_probes;
    const std::vector<size_t>* rows = index->Lookup(key);
    jl.matches.clear();
    if (rows != nullptr) {
      for (size_t row : *rows) {
        const Value& y = table->rows()[row];
        bool holds = true;
        if (!keys.residual.empty()) {
          N2J_RETURN_IF_ERROR(
              ResidualHolds(e, *residual, jl.residual, x, y, env, &holds));
        }
        if (holds) jl.matches.push_back(&y);
      }
    }
    // The matches point into the table's insertion-ordered rows.
    N2J_RETURN_IF_ERROR(EmitJoinResult(e, x, jl.matches,
                                       /*canonical_build=*/false, env, out,
                                       jl));
  }
  return Status::OK();
}

}  // namespace n2j
