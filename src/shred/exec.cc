#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adl/analysis.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "exec/equi_join.h"
#include "exec/join_table.h"
#include "obs/trace.h"
#include "shred/shred.h"
#include "storage/columnar.h"

namespace n2j {
namespace shred {
namespace {

// One column of the working relation. `extent`/`row_ids` are provenance:
// set when the column's values are rows of a columnar extent, so a later
// kChildAttr range can slice the CSR child relation instead of
// re-evaluating the field access per row.
struct Col {
  std::string var;
  std::vector<Value> vals;
  std::shared_ptr<const ColumnarExtent> extent;
  std::vector<uint32_t> row_ids;
};

// The working relation of one DAG node: context columns plus one column
// per expanded range. `ctx[i]` is row i's synthetic parent id — the
// index of the context row it descends from. Rows stay sorted by ctx,
// which makes stitching a single linear pass.
struct Rel {
  std::vector<Col> cols;
  std::vector<uint32_t> ctx;
  size_t size() const { return ctx.size(); }
};

void PushRow(Environment* env, const Rel& rel, size_t row) {
  for (const Col& c : rel.cols) env->Push(c.var, c.vals[row]);
}

void PopRow(Environment* env, const Rel& rel) {
  for (size_t i = 0; i < rel.cols.size(); ++i) env->Pop();
}

// Concatenates `src`'s rows after `dst`'s (same skeleton). The morsel
// merge: per-morsel slots appended in morsel order reproduce the serial
// engine's row order exactly.
void AppendRel(Rel* dst, Rel&& src) {
  for (size_t i = 0; i < dst->cols.size(); ++i) {
    Col& d = dst->cols[i];
    Col& s = src.cols[i];
    std::move(s.vals.begin(), s.vals.end(), std::back_inserter(d.vals));
    d.row_ids.insert(d.row_ids.end(), s.row_ids.begin(), s.row_ids.end());
  }
  dst->ctx.insert(dst->ctx.end(), src.ctx.begin(), src.ctx.end());
}

// A range predicate split into equi-join keys and residual conjuncts:
// scan_keys[i] is a function of the range variable alone, probe_keys[i]
// of the outer bindings alone. scan_keys empty = not a join.
struct EquiSplit {
  std::vector<ExprPtr> scan_keys;
  std::vector<ExprPtr> probe_keys;
  std::vector<ExprPtr> residual;
};

/// Splits r.pred (non-null) by r.var.
EquiSplit SplitEquiPred(const RangeSpec& r) {
  // Split p into equi-key pairs (one side a function of the range var
  // alone, the other side free of it) and residual conjuncts.
  EquiSplit s;
  std::vector<ExprPtr> conjs = SplitConjuncts(r.pred);
  for (const ExprPtr& c : conjs) {
    if (c->kind() == ExprKind::kBinary && c->bin_op() == BinOp::kEq) {
      std::set<std::string> fl = FreeVars(c->child(0));
      std::set<std::string> fr = FreeVars(c->child(1));
      if (fl.size() == 1 && fl.count(r.var) > 0 && fr.count(r.var) == 0) {
        s.scan_keys.push_back(c->child(0));
        s.probe_keys.push_back(c->child(1));
        continue;
      }
      if (fr.size() == 1 && fr.count(r.var) > 0 && fl.count(r.var) == 0) {
        s.scan_keys.push_back(c->child(1));
        s.probe_keys.push_back(c->child(0));
        continue;
      }
    }
    s.residual.push_back(c);
  }
  return s;
}

// The build side of one range join: the scan elements' keys either in a
// JoinTable (hash) or sorted with their element index (sort-merge).
struct JoinBuild {
  bool sort_merge = false;
  JoinTable table;
  std::vector<std::pair<Value, uint32_t>> sorted;
};

// Executes a ShredPlan. Every counter goes through the row-wise
// delegate's stats (inner_), so all trace spans — the per-node spans
// here and the operator spans the delegate opens — measure deltas of ONE
// stats struct and their exclusive sums match the global counters by
// construction.
class ShredExecutor {
 public:
  ShredExecutor(const Database& db, const ShredPlan& plan,
                const EvalOptions& opts)
      : db_(db), plan_(plan), opts_(opts), inner_(db, InnerOpts(opts)) {}

  Result<Value> Run();
  EvalStats& stats() { return inner_.stats(); }

 private:
  // The row-wise delegate shares opts (threads, compiled, tracing) but
  // never re-dispatches to the shredded backend.
  static EvalOptions InnerOpts(EvalOptions o) {
    o.backend = Backend::kNested;
    o.plan = nullptr;
    return o;
  }

  // ---- Morsel parallelism --------------------------------------------
  // The coordinator partitions row ranges into morsels, each worker runs
  // its morsels with a private row-wise delegate and a private output
  // slot, and the coordinator concatenates the slots in morsel order —
  // so output row order, and with it stitching and set semantics, is
  // bit-identical to the serial engine.

  /// True when EvalOptions asks for intra-query parallelism.
  bool parallel() const { return opts_.num_threads > 1; }
  /// The executor's pool (lazy; sink wired to the trace collector's
  /// thread-safe worker-span timeline, like Evaluator::pool()).
  ThreadPool& pool();
  /// Per-worker row-wise delegates, forked lazily from inner_ and
  /// reused across parallel sections. Invariant: their stats are zero
  /// outside a parallel section — every section ends in
  /// MergeWorkerStats() or ResetWorkerStats().
  std::vector<std::unique_ptr<Evaluator>>& workers();
  /// Folds every worker's counters into inner_.stats() — before the
  /// enclosing span closes, so span exclusive deltas keep summing to
  /// the globals — then zeroes the workers for the next section.
  void MergeWorkerStats();
  /// Zeroes worker stats without merging (the join-abandon ledger merges
  /// a per-morsel prefix itself and discards the rest).
  void ResetWorkerStats();

  /// Executes one DAG node over its context rows. Returns one stitched
  /// set per context row.
  Result<std::vector<Value>> ExecNode(const FlatNode& node, Rel ctx);

  /// Folds per-work-row outputs into one set per context row. `ctx` must
  /// be non-decreasing (work rows stay sorted by context id).
  static std::vector<Value> StitchByCtx(std::vector<Value> outs,
                                        const std::vector<uint32_t>& ctx,
                                        size_t nctx);

  Result<Rel> ExpandRange(const RangeSpec& r, Rel work);
  Result<std::optional<Rel>> TryJoinExpand(
      const RangeSpec& r, const Rel& work, const std::vector<Value>& elems,
      const std::shared_ptr<const ColumnarExtent>& columnar);
  Result<std::vector<Value>> EvalOutputs(const OutputSpec& out,
                                         const Rel& work);

  // Row-range loop bodies, shared verbatim by the serial whole-range
  // calls (delegate = inner_) and the parallel per-morsel calls
  // (delegate = one worker, emitting into a private slot).
  Status NlScanRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                    const std::vector<Value>& elems, size_t row_begin,
                    size_t row_end, Rel* out);
  Status PerRowExpandRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                          const ColumnarChild* csr, const Col* parent,
                          size_t row_begin, size_t row_end, Rel* out);
  /// The probe half of the hash / sort-merge join. Sets *abandoned (with
  /// an OK status) when a probe-key evaluation fails: the caller falls
  /// back to the nested-loop scan, which reproduces the interpreter's
  /// behavior exactly. Residual errors propagate.
  Status ProbeRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                   const std::vector<Value>& elems, const EquiSplit& split,
                   const JoinBuild& build, size_t row_begin, size_t row_end,
                   Rel* out, bool* abandoned);
  /// Runs `body(worker_delegate, row_begin, row_end, slot)` over morsels
  /// of [0, nrows), each slot a copy of the (empty) skeleton `*out`,
  /// merges worker stats, and appends the slots to `out` in morsel
  /// order. Returns the lowest-numbered failing morsel's error.
  Status ParallelRows(
      size_t nrows, const char* phase,
      const std::function<Status(Evaluator&, size_t, size_t, Rel*)>& body,
      Rel* out);

  Rel Skeleton(const Rel& work, const RangeSpec& r,
               const std::shared_ptr<const ColumnarExtent>& columnar);
  static void Emit(const Rel& work, size_t row, const Value& elem,
                   uint32_t elem_row_id, Rel* out);

  const Database& db_;
  const ShredPlan& plan_;
  EvalOptions opts_;
  Evaluator inner_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Evaluator>> workers_;
};

Rel ShredExecutor::Skeleton(
    const Rel& work, const RangeSpec& r,
    const std::shared_ptr<const ColumnarExtent>& columnar) {
  Rel out;
  out.cols.reserve(work.cols.size() + 1);
  for (const Col& c : work.cols) {
    Col nc;
    nc.var = c.var;
    nc.extent = c.extent;
    out.cols.push_back(std::move(nc));
  }
  Col nc;
  nc.var = r.var;
  if (r.kind == RangeKind::kExtent) nc.extent = columnar;
  out.cols.push_back(std::move(nc));
  return out;
}

void ShredExecutor::Emit(const Rel& work, size_t row, const Value& elem,
                         uint32_t elem_row_id, Rel* out) {
  for (size_t i = 0; i < work.cols.size(); ++i) {
    out->cols[i].vals.push_back(work.cols[i].vals[row]);
    if (work.cols[i].extent != nullptr) {
      out->cols[i].row_ids.push_back(work.cols[i].row_ids[row]);
    }
  }
  Col& ncol = out->cols.back();
  ncol.vals.push_back(elem);
  if (ncol.extent != nullptr) ncol.row_ids.push_back(elem_row_id);
  out->ctx.push_back(work.ctx[row]);
}

ThreadPool& ShredExecutor::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
    if (opts_.trace != nullptr) {
      TraceCollector* tc = opts_.trace;
      pool_->set_morsel_sink([tc](int w, size_t m, const char* phase,
                                  int64_t t0, int64_t t1) {
        tc->AddWorkerSpan(w, m, phase, t0, t1);
      });
    }
  }
  return *pool_;
}

std::vector<std::unique_ptr<Evaluator>>& ShredExecutor::workers() {
  if (workers_.empty()) {
    const int count = pool().num_workers();
    workers_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) workers_.push_back(inner_.ForkWorker());
  }
  return workers_;
}

void ShredExecutor::MergeWorkerStats() {
  for (const auto& w : workers_) {
    inner_.stats().Merge(w->stats());
    w->ResetStats();
  }
}

void ShredExecutor::ResetWorkerStats() {
  for (const auto& w : workers_) w->ResetStats();
}

Status ShredExecutor::ParallelRows(
    size_t nrows, const char* phase,
    const std::function<Status(Evaluator&, size_t, size_t, Rel*)>& body,
    Rel* out) {
  ThreadPool& tp = pool();
  tp.set_morsel_phase(phase);
  std::vector<std::unique_ptr<Evaluator>>& ws = workers();
  const size_t morsel = PickMorselSize(nrows, tp.num_workers());
  const size_t nm = NumMorsels(nrows, morsel);
  std::vector<Rel> slots(nm, *out);
  Status s = tp.RunMorsels(nm, [&](int w, size_t m) -> Status {
    MorselRange rg = MorselAt(nrows, morsel, m);
    return body(*ws[static_cast<size_t>(w)], rg.begin, rg.end, &slots[m]);
  });
  // Merge before the enclosing shred-node span closes so its exclusive
  // delta — and the span-sum invariant — includes the workers' counters
  // whether or not a morsel failed.
  MergeWorkerStats();
  N2J_RETURN_IF_ERROR(s);
  for (Rel& slot : slots) AppendRel(out, std::move(slot));
  return Status::OK();
}

std::vector<Value> ShredExecutor::StitchByCtx(std::vector<Value> outs,
                                              const std::vector<uint32_t>& ctx,
                                              size_t nctx) {
  // Stitch: work rows are contiguous and ascending by ctx, so one pass
  // folds each context row's outputs into its set. A context row with no
  // surviving work rows gets the empty set — exactly Map/Select over an
  // empty or fully filtered input.
  std::vector<Value> result;
  result.reserve(nctx);
  size_t j = 0;
  for (uint32_t c = 0; c < nctx; ++c) {
    std::vector<Value> elems;
    while (j < outs.size() && ctx[j] == c) {
      elems.push_back(std::move(outs[j]));
      ++j;
    }
    result.push_back(Value::Set(std::move(elems)));
  }
  return result;
}

Result<Value> ShredExecutor::Run() {
  OpSpan span(opts_.trace, inner_.stats(), "shredded");
  Environment env;
  std::vector<std::pair<std::string, Value>> lets;
  for (const auto& [var, def] : plan_.lets) {
    Result<Value> v = inner_.Eval(def, env);
    if (!v.ok()) return v.status();
    env.Push(var, *v);
    lets.emplace_back(var, *v);
  }
  if (plan_.scalar_root) {
    // Non-comprehension root: the flat DAG degenerates to one row-wise
    // evaluation under the let bindings.
    span.Annotate("scalar root");
    Result<Value> r = inner_.Eval(plan_.scalar_root_expr, env);
    span.RowsOut(r);
    return r;
  }
  const FlatNode& root = plan_.nodes[0];
  Rel ctx;
  ctx.ctx = {0};
  for (const std::string& v : root.ctx_vars) {
    for (auto it = lets.rbegin(); it != lets.rend(); ++it) {
      if (it->first == v) {
        Col c;
        c.var = v;
        c.vals = {it->second};
        ctx.cols.push_back(std::move(c));
        break;
      }
    }
  }
  N2J_ASSIGN_OR_RETURN(std::vector<Value> sets,
                       ExecNode(root, std::move(ctx)));
  span.RowsOut(sets[0].set_size());
  return std::move(sets[0]);
}

Result<std::vector<Value>> ShredExecutor::ExecNode(const FlatNode& node,
                                                   Rel ctx) {
  OpSpan span(opts_.trace, inner_.stats(), "shred-node");
  span.Label(node.label);
  const size_t nctx = ctx.size();
  span.RowsIn(nctx);
  if (nctx == 0) return std::vector<Value>{};

  Rel work;
  work.cols = std::move(ctx.cols);
  work.ctx.resize(nctx);
  for (size_t i = 0; i < nctx; ++i) work.ctx[i] = static_cast<uint32_t>(i);

  for (const RangeSpec& r : node.ranges) {
    N2J_ASSIGN_OR_RETURN(work, ExpandRange(r, std::move(work)));
  }
  N2J_ASSIGN_OR_RETURN(std::vector<Value> outs, EvalOutputs(node.out, work));

  span.RowsOut(work.size());
  return StitchByCtx(std::move(outs), work.ctx, nctx);
}

Result<Rel> ShredExecutor::ExpandRange(const RangeSpec& r, Rel work) {
  const size_t nrows = work.size();
  RangeKind kind = r.kind;

  std::shared_ptr<const ColumnarExtent> columnar;
  if (kind == RangeKind::kExtent && nrows > 0) {
    columnar = db_.columnar().Get(db_, r.table);
    // Unknown table: evaluate the GetTable row-wise so the interpreter's
    // own error surfaces.
    if (columnar == nullptr) kind = RangeKind::kOpaque;
  }

  Rel out = Skeleton(work, r, columnar);
  if (nrows == 0) return out;  // lazy: sources of dead ranges never run

  // Shared element list: one scan serves every work row.
  const std::vector<Value>* shared = nullptr;
  Value shared_holder;
  if (kind == RangeKind::kExtent) {
    shared = &columnar->rows;
  } else if (kind == RangeKind::kConstSet) {
    // Uncorrelated: evaluated once — but only because >= 1 work row
    // exists, matching how often (at least once) the interpreter would
    // evaluate it.
    Environment env;
    PushRow(&env, work, 0);
    Result<Value> v = inner_.Eval(r.source, env);
    PopRow(&env, work);
    if (!v.ok()) return v.status();
    if (!v->is_set()) {
      return Status::RuntimeError("shredded range over non-set");
    }
    shared_holder = std::move(*v);
    shared = &shared_holder.elements();
  }

  if (shared != nullptr) {
    if (r.pred != nullptr && opts_.use_hash_joins &&
        opts_.join_algorithm != JoinAlgorithm::kNestedLoop) {
      N2J_ASSIGN_OR_RETURN(std::optional<Rel> joined,
                           TryJoinExpand(r, work, *shared, columnar));
      if (joined.has_value()) return std::move(*joined);
    }
    // Nested-loop scan: evaluate the full combined predicate per
    // (row, element) pair — bit-for-bit the interpreter's Select path,
    // including And short-circuit and error order within one row.
    // Parallel: morsels over work rows (rows are independent here), the
    // ordered slot merge keeps the serial row order.
    if (parallel() && nrows > 1) {
      N2J_RETURN_IF_ERROR(ParallelRows(
          nrows, "shred-scan",
          [&](Evaluator& ev, size_t b, size_t e, Rel* slot) {
            return NlScanRows(ev, r, work, *shared, b, e, slot);
          },
          &out));
      return out;
    }
    N2J_RETURN_IF_ERROR(NlScanRows(inner_, r, work, *shared, 0, nrows, &out));
    return out;
  }

  // Per-row element lists: CSR child slices when provenance allows,
  // row-wise interpreter evaluation otherwise.
  const ColumnarChild* csr = nullptr;
  const Col* parent = nullptr;
  if (kind == RangeKind::kChildAttr) {
    for (auto it = work.cols.rbegin(); it != work.cols.rend(); ++it) {
      if (it->var == r.parent_var) {
        parent = &*it;
        break;
      }
    }
    if (parent != nullptr && parent->extent != nullptr) {
      csr = parent->extent->Child(r.attr);
    }
    if (csr == nullptr) parent = nullptr;  // fall back to row-wise access
  }

  if (parallel() && nrows > 1) {
    N2J_RETURN_IF_ERROR(ParallelRows(
        nrows, "shred-expand",
        [&](Evaluator& ev, size_t b, size_t e, Rel* slot) {
          return PerRowExpandRows(ev, r, work, csr, parent, b, e, slot);
        },
        &out));
    return out;
  }
  N2J_RETURN_IF_ERROR(
      PerRowExpandRows(inner_, r, work, csr, parent, 0, nrows, &out));
  return out;
}

Status ShredExecutor::NlScanRows(Evaluator& ev, const RangeSpec& r,
                                 const Rel& work,
                                 const std::vector<Value>& elems,
                                 size_t row_begin, size_t row_end, Rel* out) {
  Environment env;
  for (size_t row = row_begin; row < row_end; ++row) {
    PushRow(&env, work, row);
    for (size_t idx = 0; idx < elems.size(); ++idx) {
      const Value& elem = elems[idx];
      ++ev.stats().tuples_scanned;
      if (r.pred != nullptr) {
        env.Push(r.var, elem);
        Result<Value> p = ev.Eval(r.pred, env);
        env.Pop();
        ++ev.stats().predicate_evals;
        if (!p.ok()) {
          PopRow(&env, work);
          return p.status();
        }
        if (!p->is_bool()) {
          PopRow(&env, work);
          return Status::RuntimeError("selection predicate not boolean");
        }
        if (!p->bool_value()) continue;
      }
      Emit(work, row, elem, static_cast<uint32_t>(idx), out);
    }
    PopRow(&env, work);
  }
  return Status::OK();
}

Status ShredExecutor::PerRowExpandRows(Evaluator& ev, const RangeSpec& r,
                                       const Rel& work,
                                       const ColumnarChild* csr,
                                       const Col* parent, size_t row_begin,
                                       size_t row_end, Rel* out) {
  Environment env;
  for (size_t row = row_begin; row < row_end; ++row) {
    PushRow(&env, work, row);
    const Value* elems_begin = nullptr;
    size_t elem_count = 0;
    Value holder;
    if (csr != nullptr) {
      uint32_t rid = parent->row_ids[row];
      elems_begin = csr->elems.data() + csr->begin(rid);
      elem_count = csr->fanout(rid);
    } else {
      Result<Value> v = ev.Eval(r.source, env);
      if (!v.ok()) {
        PopRow(&env, work);
        return v.status();
      }
      if (!v->is_set()) {
        PopRow(&env, work);
        return Status::RuntimeError("shredded range over non-set");
      }
      holder = std::move(*v);
      elems_begin = holder.elements().data();
      elem_count = holder.elements().size();
    }
    for (size_t idx = 0; idx < elem_count; ++idx) {
      const Value& elem = elems_begin[idx];
      ++ev.stats().tuples_scanned;
      if (r.pred != nullptr) {
        env.Push(r.var, elem);
        Result<Value> p = ev.Eval(r.pred, env);
        env.Pop();
        ++ev.stats().predicate_evals;
        if (!p.ok()) {
          PopRow(&env, work);
          return p.status();
        }
        if (!p->is_bool()) {
          PopRow(&env, work);
          return Status::RuntimeError("selection predicate not boolean");
        }
        if (!p->bool_value()) continue;
      }
      Emit(work, row, elem, 0, out);
    }
    PopRow(&env, work);
  }
  return Status::OK();
}

Result<std::optional<Rel>> ShredExecutor::TryJoinExpand(
    const RangeSpec& r, const Rel& work, const std::vector<Value>& elems,
    const std::shared_ptr<const ColumnarExtent>& columnar) {
  EquiSplit split = SplitEquiPred(r);
  std::vector<ExprPtr>& scan_keys = split.scan_keys;
  std::vector<ExprPtr>& residual = split.residual;
  if (scan_keys.empty()) return std::optional<Rel>();

  // Scan-side keys, column fast path where the projection has the field.
  std::vector<const std::vector<Value>*> key_cols(scan_keys.size(), nullptr);
  for (size_t k = 0; k < scan_keys.size(); ++k) {
    const ExprPtr& e = scan_keys[k];
    if (columnar != nullptr && e->kind() == ExprKind::kFieldAccess &&
        e->child(0)->kind() == ExprKind::kVar &&
        e->child(0)->name() == r.var) {
      key_cols[k] = columnar->Column(e->name());
    }
  }

  // Build. Key evaluation may touch elements the interpreter would have
  // short-circuited past (an earlier conjunct false), so ANY evaluation
  // error abandons the join — the nested-loop path then reproduces the
  // interpreter's exact behavior, error or not.
  std::vector<Value> keys;
  keys.reserve(elems.size());
  {
    Environment env;
    std::vector<Value> parts(scan_keys.size());
    for (size_t idx = 0; idx < elems.size(); ++idx) {
      env.Push(r.var, elems[idx]);
      bool failed = false;
      for (size_t k = 0; k < scan_keys.size(); ++k) {
        if (key_cols[k] != nullptr) {
          parts[k] = (*key_cols[k])[idx];
          continue;
        }
        Result<Value> v = inner_.Eval(scan_keys[k], env);
        if (!v.ok()) {
          failed = true;
          break;
        }
        parts[k] = std::move(*v);
      }
      env.Pop();
      if (failed) return std::optional<Rel>();
      keys.push_back(JoinKeyFromParts(parts));
    }
  }

  JoinBuild build;
  build.sort_merge = opts_.join_algorithm == JoinAlgorithm::kSortMerge;
  if (build.sort_merge) {
    build.sorted.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      build.sorted.emplace_back(std::move(keys[i]), static_cast<uint32_t>(i));
    }
    std::stable_sort(build.sorted.begin(), build.sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.Compare(b.first) < 0;
                     });
    inner_.stats().rows_sorted += build.sorted.size();
    ++inner_.stats().joins_sortmerge;
  } else {
    build.table = JoinTable(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      build.table.Insert(std::move(keys[i]), static_cast<uint32_t>(i));
    }
    ++inner_.stats().joins_hash;
  }
  inner_.stats().hash_inserts += keys.size();
  inner_.stats().tuples_scanned += keys.size();
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen(StrFormat(
        " %s keys=%zu residual=%zu", build.sort_merge ? "sortmerge" : "hash",
        scan_keys.size(), residual.size()));
    opts_.trace->NotePeakHash(build.sort_merge ? build.sorted.size()
                                               : build.table.num_keys());
  }

  Rel out = Skeleton(work, r, columnar);
  const size_t nrows = work.size();

  if (parallel() && nrows > 1) {
    // Parallel probe with a per-morsel ledger. The complication is the
    // abandon path: the serial engine stops at the first failing
    // probe-key row having fully processed every earlier row, discards
    // the join, and lets the nested-loop scan reproduce the
    // interpreter's behavior — so its stats hold a strict prefix of the
    // probe work. RunMorsels cannot cancel later morsels, so each
    // morsel records its exact stats delta (workers run morsels one at
    // a time; snapshotting around the morsel needs no synchronization)
    // and the coordinator merges only what the serial engine would have
    // done: everything up to the lowest abandoning morsel, or all of it
    // when an error (which aborts the query) comes first.
    ThreadPool& tp = pool();
    tp.set_morsel_phase("shred-probe");
    std::vector<std::unique_ptr<Evaluator>>& ws = workers();
    const size_t morsel = PickMorselSize(nrows, tp.num_workers());
    const size_t nm = NumMorsels(nrows, morsel);
    std::vector<Rel> slots(nm, out);
    std::vector<EvalStats> deltas(nm);
    std::vector<char> abandons(nm, 0);
    size_t err_m = nm;  // sentinel: no erroring morsel
    Status s = tp.RunMorsels(
        nm,
        [&](int w, size_t m) -> Status {
          Evaluator& ev = *ws[static_cast<size_t>(w)];
          EvalStats before = ev.stats();
          MorselRange rg = MorselAt(nrows, morsel, m);
          bool ab = false;
          Status st = ProbeRows(ev, r, work, elems, split, build,
                                rg.begin, rg.end, &slots[m], &ab);
          deltas[m] = ev.stats();
          deltas[m].Subtract(before);
          abandons[m] = ab ? 1 : 0;
          return st;
        },
        &err_m);
    size_t ab_m = nm;
    for (size_t m = 0; m < nm; ++m) {
      if (abandons[m] != 0) {
        ab_m = m;
        break;
      }
    }
    if (ab_m < err_m) {
      // Serial row order hits this morsel's failing probe key before any
      // erroring row: abandon with exactly the serial prefix accounted
      // (full deltas before it plus its own partial delta); later
      // morsels ran only because the pool does not cancel, and their
      // counters are discarded with their slots.
      for (size_t m = 0; m <= ab_m; ++m) inner_.stats().Merge(deltas[m]);
      ResetWorkerStats();
      return std::optional<Rel>();
    }
    MergeWorkerStats();
    N2J_RETURN_IF_ERROR(s);
    for (Rel& slot : slots) AppendRel(&out, std::move(slot));
    return std::optional<Rel>(std::move(out));
  }

  bool abandoned = false;
  N2J_RETURN_IF_ERROR(ProbeRows(inner_, r, work, elems, split, build, 0,
                                nrows, &out, &abandoned));
  if (abandoned) return std::optional<Rel>();
  return std::optional<Rel>(std::move(out));
}

Status ShredExecutor::ProbeRows(Evaluator& ev, const RangeSpec& r,
                                const Rel& work,
                                const std::vector<Value>& elems,
                                const EquiSplit& split, const JoinBuild& build,
                                size_t row_begin, size_t row_end, Rel* out,
                                bool* abandoned) {
  const std::vector<ExprPtr>& probe_keys = split.probe_keys;
  const std::vector<ExprPtr>& residual = split.residual;
  Environment env;
  std::vector<Value> parts(probe_keys.size());
  // One candidate pair: residual conjuncts run in source order with
  // short-circuit — identical to the And chain the interpreter would walk
  // once the (already verified) key equalities held. Errors here imply
  // the interpreter errors on the same pair, so they propagate.
  auto match = [&](size_t row, uint32_t idx) -> Status {
    const Value& elem = elems[idx];
    if (!residual.empty()) {
      env.Push(r.var, elem);
      ++ev.stats().predicate_evals;
      bool pass = true;
      Status st;
      for (const ExprPtr& rc : residual) {
        Result<Value> p = ev.Eval(rc, env);
        if (!p.ok()) {
          st = p.status();
          break;
        }
        if (!p->is_bool()) {
          st = Status::RuntimeError("selection predicate not boolean");
          break;
        }
        if (!p->bool_value()) {
          pass = false;
          break;
        }
      }
      env.Pop();
      if (!st.ok() || !pass) return st;
    }
    Emit(work, row, elem, idx, out);
    return Status::OK();
  };
  for (size_t row = row_begin; row < row_end; ++row) {
    PushRow(&env, work, row);
    bool failed = false;
    for (size_t k = 0; k < probe_keys.size(); ++k) {
      Result<Value> v = ev.Eval(probe_keys[k], env);
      if (!v.ok()) {
        failed = true;
        break;
      }
      parts[k] = std::move(*v);
    }
    if (failed) {
      PopRow(&env, work);
      *abandoned = true;
      return Status::OK();
    }
    Value key = JoinKeyFromParts(parts);
    ++ev.stats().hash_probes;

    Status st;
    if (build.sort_merge) {
      const auto& sorted = build.sorted;
      auto lo = std::lower_bound(sorted.begin(), sorted.end(), key,
                                 [](const auto& p, const Value& k) {
                                   return p.first.Compare(k) < 0;
                                 });
      for (auto it = lo; it != sorted.end() && st.ok() &&
                         key.Compare(it->first) == 0;
           ++it) {
        st = match(row, it->second);
      }
    } else {
      for (uint32_t idx : build.table.Find(key)) {
        st = match(row, idx);
        if (!st.ok()) break;
      }
    }
    PopRow(&env, work);
    N2J_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Result<std::vector<Value>> ShredExecutor::EvalOutputs(const OutputSpec& out,
                                                      const Rel& work) {
  const size_t n = work.size();
  switch (out.kind) {
    case OutputSpec::Kind::kScalar: {
      std::vector<Value> vals(n);
      if (parallel() && n > 1) {
        // Each morsel writes disjoint vals[row] slots, so the output is
        // positionally identical to the serial loop with no merge step.
        ThreadPool& tp = pool();
        tp.set_morsel_phase("shred-out");
        std::vector<std::unique_ptr<Evaluator>>& ws = workers();
        const size_t morsel = PickMorselSize(n, tp.num_workers());
        const size_t nm = NumMorsels(n, morsel);
        Status s = tp.RunMorsels(nm, [&](int w, size_t m) -> Status {
          Evaluator& ev = *ws[static_cast<size_t>(w)];
          MorselRange rg = MorselAt(n, morsel, m);
          Environment env;
          for (size_t row = rg.begin; row < rg.end; ++row) {
            PushRow(&env, work, row);
            Result<Value> v = ev.Eval(out.scalar, env);
            PopRow(&env, work);
            if (!v.ok()) return v.status();
            vals[row] = std::move(*v);
          }
          return Status::OK();
        });
        MergeWorkerStats();
        N2J_RETURN_IF_ERROR(s);
        return vals;
      }
      Environment env;
      for (size_t row = 0; row < n; ++row) {
        PushRow(&env, work, row);
        Result<Value> v = inner_.Eval(out.scalar, env);
        PopRow(&env, work);
        if (!v.ok()) return v.status();
        vals[row] = std::move(*v);
      }
      return vals;
    }
    case OutputSpec::Kind::kChild: {
      const FlatNode& child = plan_.nodes[static_cast<size_t>(out.child)];
      if (child.ctx_vars.empty()) {
        // Uncorrelated subquery: one execution, broadcast — but only
        // when at least one work row exists (laziness again).
        if (n == 0) return std::vector<Value>{};
        Rel unit;
        unit.ctx = {0};
        N2J_ASSIGN_OR_RETURN(std::vector<Value> one,
                             ExecNode(child, std::move(unit)));
        return std::vector<Value>(n, one[0]);
      }
      Rel ctx;
      ctx.cols.reserve(child.ctx_vars.size());
      for (const std::string& v : child.ctx_vars) {
        // Innermost binding wins, like Environment::Lookup.
        for (auto it = work.cols.rbegin(); it != work.cols.rend(); ++it) {
          if (it->var == v) {
            ctx.cols.push_back(*it);
            break;
          }
        }
      }
      ctx.ctx.resize(n);
      for (size_t i = 0; i < n; ++i) ctx.ctx[i] = static_cast<uint32_t>(i);
      return ExecNode(child, std::move(ctx));
    }
    case OutputSpec::Kind::kTuple: {
      std::vector<std::vector<Value>> field_vals;
      field_vals.reserve(out.fields.size());
      for (const OutputSpec& f : out.fields) {
        N2J_ASSIGN_OR_RETURN(std::vector<Value> fv, EvalOutputs(f, work));
        field_vals.push_back(std::move(fv));
      }
      std::vector<Value> vals;
      vals.reserve(n);
      for (size_t row = 0; row < n; ++row) {
        std::vector<Field> fields;
        fields.reserve(out.fields.size());
        for (size_t f = 0; f < out.fields.size(); ++f) {
          fields.emplace_back(out.field_names[f],
                              std::move(field_vals[f][row]));
        }
        vals.push_back(Value::Tuple(std::move(fields)));
      }
      return vals;
    }
  }
  return Status::Internal("unreachable output kind");
}

}  // namespace

Result<Value> EvalShredded(const Database& db, const ExprPtr& query,
                           const EvalOptions& opts, EvalStats* stats,
                           std::string* plan_text) {
  ShredPlan plan = ShredQuery(query);
  if (plan_text != nullptr) *plan_text = plan.Describe();
  ShredExecutor ex(db, plan, opts);
  Result<Value> r = ex.Run();
  if (stats != nullptr) *stats = ex.stats();
  return r;
}

Result<Value> EvalWithBackend(const Database& db, const ExprPtr& query,
                              const EvalOptions& opts, EvalStats* stats,
                              std::string* plan_text) {
  if (opts.backend == Backend::kShredded) {
    return EvalShredded(db, query, opts, stats, plan_text);
  }
  Evaluator ev(db, opts);
  Result<Value> r = ev.Eval(query);
  if (stats != nullptr) *stats = ev.stats();
  return r;
}

}  // namespace shred
}  // namespace n2j
