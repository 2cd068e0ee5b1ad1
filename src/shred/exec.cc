#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adl/analysis.h"
#include "common/str_util.h"
#include "exec/equi_join.h"
#include "exec/join_table.h"
#include "exec/morsel.h"
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
// driver's merge: per-morsel slots appended in morsel order reproduce
// the serial engine's row order exactly.
void AppendMorsel(Rel* dst, Rel&& src) {
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
      VarSet fl = FreeVars(c->child(0));
      VarSet fr = FreeVars(c->child(1));
      if (fl.size() == 1 && fl[0] == r.var && !HasVar(fr, r.var)) {
        s.scan_keys.push_back(c->child(0));
        s.probe_keys.push_back(c->child(1));
        continue;
      }
      if (fr.size() == 1 && fr[0] == r.var && !HasVar(fl, r.var)) {
        s.scan_keys.push_back(c->child(1));
        s.probe_keys.push_back(c->child(0));
        continue;
      }
    }
    s.residual.push_back(c);
  }
  return s;
}

// ProbeRows's early-out: a probe key failed to evaluate, so the join is
// dropped and the nested-loop scan reproduces the interpreter. It is a
// Status so that the morsel driver stops at the first abandoning row as
// at the first error, keeping the serial prefix of the counters.
constexpr const char kJoinAbandoned[] = "shredded join abandoned";

Status JoinAbandoned() { return Status::Unsupported(kJoinAbandoned); }

bool IsJoinAbandoned(const Status& s) {
  return s.code() == StatusCode::kUnsupported && s.message() == kJoinAbandoned;
}

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
  // Each row loop below is one range body that the morsel driver
  // (exec/morsel.h) runs over the whole range on inner_, or over morsels
  // on forked delegates that emit into private slots concatenated in
  // morsel order — so output row order, and with it stitching and set
  // semantics, is bit-identical to the serial engine.

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

  // Row-range loop bodies, run by the morsel driver with delegate
  // inner_ or a forked worker.
  Status NlScanRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                    const std::vector<Value>& elems, size_t row_begin,
                    size_t row_end, Rel* out);
  Status PerRowExpandRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                          const ColumnarChild* csr, const Col* parent,
                          size_t row_begin, size_t row_end, Rel* out);
  /// The probe half of the hash join. Returns JoinAbandoned()
  /// when a probe-key evaluation fails: the caller falls back to the
  /// nested-loop scan, which reproduces the interpreter's behavior
  /// exactly. Residual errors propagate.
  Status ProbeRows(Evaluator& ev, const RangeSpec& r, const Rel& work,
                   const std::vector<Value>& elems, const EquiSplit& split,
                   const JoinTable& build, size_t row_begin, size_t row_end,
                   Rel* out);
  /// Runs `rows(delegate, row_begin, row_end, out)` over [0, nrows)
  /// through the morsel driver.
  template <typename RowsFn, typename Slot>
  Status ForEachRowMorsel(size_t nrows, const char* phase, RowsFn&& rows,
                          Slot* out) {
    Environment env;
    return ForEachMorsel(
        inner_, env, nrows, phase, NoMorselState(),
        [&](Evaluator& ev, int, size_t b, size_t e, Slot* slot) {
          return rows(ev, b, e, slot);
        },
        out);
  }

  Rel Skeleton(const Rel& work, const RangeSpec& r,
               const std::shared_ptr<const ColumnarExtent>& columnar);
  static void Emit(const Rel& work, size_t row, const Value& elem,
                   uint32_t elem_row_id, Rel* out);

  const Database& db_;
  const ShredPlan& plan_;
  EvalOptions opts_;
  Evaluator inner_;
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
    // Work rows are independent here, so they split into morsels.
    N2J_RETURN_IF_ERROR(ForEachRowMorsel(
        nrows, "shred-scan",
        [&](Evaluator& ev, size_t b, size_t e, Rel* slot) {
          return NlScanRows(ev, r, work, *shared, b, e, slot);
        },
        &out));
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

  N2J_RETURN_IF_ERROR(ForEachRowMorsel(
      nrows, "shred-expand",
      [&](Evaluator& ev, size_t b, size_t e, Rel* slot) {
        return PerRowExpandRows(ev, r, work, csr, parent, b, e, slot);
      },
      &out));
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

  JoinTable build(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    build.Insert(std::move(keys[i]), static_cast<uint32_t>(i));
  }
  ++inner_.stats().joins_hash;
  inner_.stats().hash_inserts += keys.size();
  inner_.stats().tuples_scanned += keys.size();
  if (opts_.trace != nullptr) {
    opts_.trace->AnnotateOpen(StrFormat(" hash keys=%zu residual=%zu",
                                        scan_keys.size(), residual.size()));
    opts_.trace->NotePeakHash(build.num_keys());
  }

  Rel out = Skeleton(work, r, columnar);
  const size_t nrows = work.size();

  // A failing probe key ends the loop like an error, so the driver's
  // ledger holds exactly the serial prefix of the probe work: every row
  // before the abandoning one, in whichever morsel.
  Status s = ForEachRowMorsel(
      nrows, "shred-probe",
      [&](Evaluator& ev, size_t b, size_t e, Rel* slot) {
        return ProbeRows(ev, r, work, elems, split, build, b, e, slot);
      },
      &out);
  if (IsJoinAbandoned(s)) return std::optional<Rel>();
  N2J_RETURN_IF_ERROR(s);
  return std::optional<Rel>(std::move(out));
}

Status ShredExecutor::ProbeRows(Evaluator& ev, const RangeSpec& r,
                                const Rel& work,
                                const std::vector<Value>& elems,
                                const EquiSplit& split, const JoinTable& build,
                                size_t row_begin, size_t row_end,
                                Rel* out) {
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
      return JoinAbandoned();
    }
    Value key = JoinKeyFromParts(parts);
    ++ev.stats().hash_probes;

    Status st;
    for (uint32_t idx : build.Find(key)) {
      st = match(row, idx);
      if (!st.ok()) break;
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
      std::vector<Value> vals;
      vals.reserve(n);
      N2J_RETURN_IF_ERROR(ForEachRowMorsel(
          n, "shred-out",
          [&](Evaluator& ev, size_t b, size_t e,
              std::vector<Value>* slot) -> Status {
            Environment env;
            for (size_t row = b; row < e; ++row) {
              PushRow(&env, work, row);
              Result<Value> v = ev.Eval(out.scalar, env);
              PopRow(&env, work);
              if (!v.ok()) return v.status();
              slot->push_back(std::move(*v));
            }
            return Status::OK();
          },
          &vals));
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
