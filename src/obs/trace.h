#ifndef N2J_OBS_TRACE_H_
#define N2J_OBS_TRACE_H_

// Per-operator execution tracing. A TraceCollector records one span per
// operator *invocation* (map, select, join family, PNHL fast path,
// materialize, ...) while an Evaluator runs with EvalOptions::trace set.
// Each span carries wall time, input/build/output cardinalities, the
// peak hash-table size the operator held resident, and an exact
// EvalStats delta:
//
//   inclusive — the counters accumulated between Begin and End,
//               children included;
//   exclusive — inclusive minus the children's inclusive deltas, i.e.
//               the work this operator did itself.
//
// The invariant the fuzzer pins: the sum of all exclusive deltas equals
// the evaluator's global EvalStats, serial and parallel. Parallel
// operators merge their workers' counters into the coordinating
// evaluator *before* returning, so a parallel operator's span sees the
// merged totals in its inclusive delta (worker evaluators run with
// tracing off — their spans would race, and their counters are already
// accounted for by the merge).
//
// The collector also stores per-worker morsel timestamps (fed by the
// morsel driver, exec/morsel.h) so chrome_trace.h can render worker
// timelines next to the operator tree.
//
// One collector serves one evaluation on one thread; AddWorkerSpan is
// the only thread-safe entry point.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/eval.h"

namespace n2j {

/// One recorded operator invocation.
struct TraceSpan {
  std::string op;      // operator name ("select", "nestjoin", "pnhl", ...)
  std::string detail;  // annotation ("hash keys=1", algorithm, ...)
  int parent = -1;     // index of the enclosing span, -1 for a root
  int depth = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;         // summed inclusive wall time of children
  uint64_t rows_in = 0;         // probe/primary input cardinality
  uint64_t rows_build = 0;      // build/secondary input cardinality
  uint64_t rows_out = 0;
  /// Planner-estimated output rows (negative = not estimated). Set from
  /// PlanAnnotations when the evaluator runs a cost-based plan; Render
  /// prints est= next to out= so EXPLAIN shows estimate vs. actual.
  double est_rows = -1.0;
  /// The plan node the estimate belongs to (set with est_rows): every
  /// invocation of one node — a correlated subplan runs once per outer
  /// row — shares it.
  const void* plan_node = nullptr;
  uint64_t peak_hash_size = 0;  // largest resident hash table (entries)
  EvalStats inclusive;
  EvalStats exclusive;

  int64_t inclusive_ns() const { return end_ns - start_ns; }
  int64_t exclusive_ns() const { return inclusive_ns() - child_ns; }
  /// "op [detail]", or just "op" without a detail: the name profiles,
  /// EXPLAIN ANALYZE and Chrome traces show.
  std::string Label() const {
    return detail.empty() ? op : op + " [" + detail + "]";
  }
};

/// One morsel executed by a pool worker (or a serial PNHL segment).
struct WorkerSpan {
  int worker = 0;
  size_t morsel = 0;
  const char* phase = "";  // string literal ("select", "join/probe", ...)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Planner estimate against actual rows for one plan node, summed over
/// the node's invocations.
struct NodeEstimate {
  std::string op;  // "op [detail]" of the node's first invocation
  size_t loops = 0;
  double est = 0.0;
  uint64_t actual = 0;
};

/// Rendering knobs. Golden tests mask wall times (the only
/// nondeterministic column); everything else — span structure, rows,
/// stats — is deterministic.
struct TraceRenderOptions {
  bool show_time = true;
};

class TraceCollector {
 public:
  TraceCollector();

  /// Drops all recorded spans; the time base restarts at now. The engine
  /// clears the collector before each query so one collector can be
  /// reused across a session.
  void Clear();

  // ---- recording (evaluator thread) --------------------------------

  /// Opens a span under the innermost open one. `now` is the owning
  /// evaluator's current counters (nullptr reads as all-zero, for
  /// instrumented code that runs outside an Evaluator). Returns the span
  /// id for End.
  int Begin(const char* op, const EvalStats* now);
  /// Closes span `id` (must be the innermost open span).
  void End(int id, const EvalStats* now);
  /// True while any span is open. The evaluator uses this to open the
  /// root "query" span only at the outermost Eval entry.
  bool InSpan() const { return !open_.empty(); }

  void AppendDetail(int id, const std::string& d);
  void PrependDetail(int id, const std::string& d);
  void SetRowsIn(int id, uint64_t n) { spans_[size_t(id)].rows_in = n; }
  void SetRowsBuild(int id, uint64_t n) { spans_[size_t(id)].rows_build = n; }
  void SetRowsOut(int id, uint64_t n) { spans_[size_t(id)].rows_out = n; }
  void SetEstRows(int id, const void* node, double n) {
    spans_[size_t(id)].plan_node = node;
    spans_[size_t(id)].est_rows = n;
  }

  /// Appends to the innermost open span's annotation — how a physical
  /// join implementation describes itself (keys, index, ...) on the
  /// dispatcher's span without holding the span id. Only annotate once
  /// committed: an attempt that still ends kUnsupported would leave a
  /// stale note on the span of whatever algorithm runs instead.
  void AnnotateOpen(const std::string& d);

  /// max()es `entries` into the innermost open span — lets a physical
  /// operator report its hash-table size without holding a span id.
  void NotePeakHash(uint64_t entries);

  /// Records one worker morsel (thread-safe; fed by the morsel driver,
  /// including PNHL's serial segment loop).
  void AddWorkerSpan(int worker, size_t morsel, const char* phase,
                     int64_t start_ns, int64_t end_ns);

  // ---- inspection --------------------------------------------------

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<WorkerSpan>& worker_spans() const {
    return worker_spans_;
  }
  int64_t base_ns() const { return base_ns_; }

  /// Sum of every span's exclusive EvalStats delta. Equal to the
  /// evaluator's global stats when tracing covered the whole evaluation
  /// (the fuzzer cell and the property test assert exactly this).
  EvalStats SumExclusiveStats() const;

  /// One entry per estimated plan node, in first-invocation order, with
  /// est and actual summed over loops — the EXPLAIN ANALYZE q-error view
  /// and the flight recorder's per-node estimates.
  std::vector<NodeEstimate> EstimatesByPlanNode() const;

  /// The profiled-plan tree: repeated siblings with the same (op,
  /// detail) are aggregated into one line with a loops= count, the way
  /// EXPLAIN ANALYZE aggregates re-executions of a subplan node.
  std::string Render(const TraceRenderOptions& opts = {}) const;

 private:
  struct OpenFrame {
    int span;
    EvalStats at_begin;
    EvalStats children;   // summed inclusive deltas of closed children
    int64_t child_ns = 0;
  };

  std::vector<TraceSpan> spans_;
  std::vector<OpenFrame> open_;
  int64_t base_ns_ = 0;
  std::mutex worker_mu_;
  std::vector<WorkerSpan> worker_spans_;
};

/// RAII operator span. All methods are no-ops when the collector is
/// null, so instrumented operators pay one branch (and no clock read)
/// when tracing is off.
class OpSpan {
 public:
  OpSpan(TraceCollector* tc, const EvalStats& stats, const char* op)
      : tc_(tc), stats_(&stats) {
    if (tc_ != nullptr) id_ = tc_->Begin(op, stats_);
  }
  /// Span without an owning evaluator (materialize.cc): wall time and
  /// rows only, zero stats delta.
  OpSpan(TraceCollector* tc, const char* op) : tc_(tc), stats_(nullptr) {
    if (tc_ != nullptr) id_ = tc_->Begin(op, stats_);
  }
  ~OpSpan() {
    if (tc_ != nullptr) tc_->End(id_, stats_);
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

  bool on() const { return tc_ != nullptr; }
  /// Appends to the span's annotation ("keys=1 residual=0").
  void Annotate(const std::string& d) {
    if (tc_ != nullptr) tc_->AppendDetail(id_, d);
  }
  /// Prepends the span's primary label (the chosen join algorithm).
  void Label(const std::string& d) {
    if (tc_ != nullptr) tc_->PrependDetail(id_, d);
  }
  void RowsIn(uint64_t n) {
    if (tc_ != nullptr) tc_->SetRowsIn(id_, n);
  }
  void RowsBuild(uint64_t n) {
    if (tc_ != nullptr) tc_->SetRowsBuild(id_, n);
  }
  void RowsOut(uint64_t n) {
    if (tc_ != nullptr) tc_->SetRowsOut(id_, n);
  }
  /// Planner-estimated output rows of plan node `node`; negative values
  /// are ignored.
  void EstRows(const void* node, double n) {
    if (tc_ != nullptr && n >= 0.0) tc_->SetEstRows(id_, node, n);
  }
  /// Records the result cardinality when `r` holds a set.
  void RowsOut(const Result<Value>& r) {
    if (tc_ != nullptr && r.ok() && r->is_set()) {
      tc_->SetRowsOut(id_, r->set_size());
    }
  }

 private:
  TraceCollector* tc_;
  const EvalStats* stats_;
  int id_ = -1;
};

}  // namespace n2j

#endif  // N2J_OBS_TRACE_H_
