#ifndef N2J_EXEC_EVAL_H_
#define N2J_EXEC_EVAL_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adl/expr.h"
#include "adl/value.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/join_table.h"
#include "storage/database.h"

namespace n2j {

class CompiledLambda;
struct EquiJoinKeys;
struct JoinLambdas;
struct JoinShape;
class OpSpan;
class TraceCollector;
struct PlanAnnotations;

/// Operator cost counters. The benchmarks use these (in addition to wall
/// time) to show *why* set-oriented plans win: nested-loop plans evaluate
/// predicates |X|·|Y| times while hash-based joins probe once per tuple.
struct EvalStats {
  uint64_t tuples_scanned = 0;   // elements iterated by any iterator
  uint64_t predicate_evals = 0;  // lambda predicate evaluations
  uint64_t hash_inserts = 0;     // hash-table build inserts
  uint64_t hash_probes = 0;      // hash-table probes
  uint64_t rows_sorted = 0;      // rows sorted by sort-merge joins
  // Rows the evaluator canonicalized with a comparison sort: operator
  // outputs, nestjoin and nest groups, set literals. Rows canonical by
  // construction or already in order count nothing.
  uint64_t set_sorted_rows = 0;
  uint64_t index_probes = 0;     // pre-built index lookups
  uint64_t pnhl_partitions = 0;  // PNHL fast-path segments (0 = unused)
  uint64_t derefs = 0;           // oid dereferences
  uint64_t nodes_evaluated = 0;  // expression nodes evaluated (interp)
  uint64_t compiled_evals = 0;   // bytecode program runs (one per tuple)
  // Per-tuple interpreter evaluations taken because a lambda's compile
  // fell back (EvalOptions::compiled on, body not covered). Always 0
  // when compiled evaluation is off.
  uint64_t interp_fallback_evals = 0;
  // Join-family invocations by the physical algorithm that actually ran
  // (one bump per EvalJoinLike call, on the coordinating evaluator, so
  // serial and parallel runs count identically).
  uint64_t joins_nested_loop = 0;
  uint64_t joins_hash = 0;
  uint64_t joins_sortmerge = 0;
  uint64_t joins_index = 0;
  uint64_t joins_membership = 0;
  // Always 0: counters of the removed vectorized shredded executor,
  // kept only because perfbench/run.py --trace 1 reads
  // exec.vec_pipelines and exec.vec_fallbacks from the traced run.
  uint64_t vec_pipelines = 0;
  uint64_t vec_fallbacks = 0;

  void Reset() { *this = EvalStats(); }
  /// Adds another (per-worker) counter set into this one. Parallel
  /// operators give every worker its own EvalStats and merge afterwards,
  /// so totals are exact — equal to a serial run's counters.
  void Merge(const EvalStats& other);
  /// Subtracts counter-wise (for span deltas: counters-at-end minus
  /// counters-at-begin). Callers guarantee other <= *this per counter.
  void Subtract(const EvalStats& other);
  bool operator==(const EvalStats& other) const = default;
  /// Multi-line aligned table in declaration order, omitting counters
  /// that are zero. "(all counters zero)" when nothing fired.
  std::string ToString() const;
  /// One-line short-key form ("scanned=12 preds=4 ..."), zero counters
  /// omitted; empty string when all are zero. Used for per-span stats in
  /// profiled explain output and trace files.
  std::string Compact() const;
};

/// One row of the EvalStats counter table: declaration name, compact
/// short key, and the member it addresses.
struct EvalStatsField {
  const char* name;
  const char* short_name;
  uint64_t EvalStats::*member;
};

/// The declaration-order counter table Merge/Subtract/ToString/Compact
/// iterate. Exposed so external serializers (the query-log JSONL
/// writer) stay automatically in sync when a counter is added.
const EvalStatsField* EvalStatsFields(size_t* count);

/// Physical implementation for the logical join family — "the join can
/// be implemented as an index nested-loop join, a sort-merge join, a
/// hash join, etc." (Section 6). The hash, sort-merge and index
/// algorithms need extractable equi-join keys; a join without them but
/// with a membership conjunct (f(y) ∈ x.c, x.c ∋ f(y), ∃v ∈ x.c ·
/// k(v) = f(y)) runs as a membership hash join under any of the three,
/// and anything else as a nested loop. JoinShape::Dispatch
/// (exec/equi_join.h) is the one place that decides.
enum class JoinAlgorithm {
  kHash,        // build a hash table on the right operand, probe left
  kSortMerge,   // sort both operands on their keys and merge
  kIndex,       // probe a pre-built index on the right base table
                // (falls back to hash if there is none)
  kNestedLoop,  // tuple-at-a-time (the paper's naive baseline)
};

/// Which evaluation backend runs the query. Orthogonal to PlanStrategy
/// and to every knob below: kNested is the classic tuple-at-a-time
/// Evaluator; kShredded lowers the query to a DAG of flat queries over
/// columnar relations (shred/shred.h) and stitches the nested result
/// back together. The Evaluator itself ignores this field — dispatch
/// happens in QueryEngine / shred::EvalWithBackend, so an Evaluator
/// constructed directly always runs nested.
enum class Backend {
  kNested,
  kShredded,
};

/// Execution options.
struct EvalOptions {
  /// Evaluation backend (see Backend). Honored by QueryEngine::Execute
  /// and shred::EvalWithBackend; plain Evaluator use runs kNested.
  Backend backend = Backend::kNested;
  /// Use set-oriented implementations for join/semijoin/antijoin/
  /// nestjoin when the predicate contains extractable equi-join keys;
  /// when false, all joins run as nested loops.
  bool use_hash_joins = true;
  /// Which set-oriented implementation to use when enabled.
  JoinAlgorithm join_algorithm = JoinAlgorithm::kHash;
  /// Recognize the paper's Section 6.2 pattern
  ///   α[z : z except (a = z.a ⋈ TABLE)](e)
  /// and execute it with the PNHL algorithm of [DeLa92] instead of
  /// per-tuple nested joins.
  bool enable_pnhl = true;
  /// Memory budget (bytes) for one PNHL hash segment.
  size_t pnhl_memory_budget = SIZE_MAX;
  /// Worker threads for the set-oriented operators: hash-join build and
  /// probe, map/select morsels, PNHL segment processing. 1 (the default)
  /// runs the serial code paths byte-identically to the pre-parallel
  /// engine; any value > 1 produces value-identical results and exact
  /// (merged per-worker) EvalStats. Morsels are merged in input order,
  /// so output is deterministic regardless of scheduling.
  int num_threads = 1;
  /// Compile lambda bodies (map/select/quantifier predicates, join keys
  /// and residuals, nestjoin inner functions) to bytecode once per
  /// operator invocation and evaluate tuples through the VM
  /// (bytecode.h). Bodies the compiler does not cover automatically
  /// fall back to the tree interpreter per operator; results and errors
  /// are identical either way (the differential fuzzer pins this).
  bool compiled = true;
  /// When set, the evaluator records one span per operator invocation
  /// into this collector (see obs/trace.h): wall time, cardinalities,
  /// and exact per-span EvalStats deltas. Tracing never changes results
  /// or the global stats; off (nullptr) costs one branch per operator.
  /// The collector is borrowed, not owned, and must outlive the
  /// evaluation; worker evaluator clones run with tracing off.
  TraceCollector* trace = nullptr;
  /// Per-node physical plan annotations from the cost-based planner
  /// (exec/plan.h; filled by opt/optimizer.h). When set, a join-family
  /// node with a pinned algorithm overrides `join_algorithm` for that
  /// node only, and estimated cardinalities are attached to trace
  /// spans (EXPLAIN's est-vs-actual column). Borrowed, not owned; must
  /// outlive the evaluation. nullptr = heuristic dispatch, exactly the
  /// pre-planner behavior.
  const PlanAnnotations* plan = nullptr;
};

/// What an operator knows about the rows it emits (Evaluator's
/// EmitRows).
enum class RowOrder {
  kCanonical,  // sorted and duplicate-free: wrapped without compares
  kDistinct,   // duplicate-free in any order: may stay raw
  kBag,        // may repeat a row: always canonicalized
};

/// An operator's output before canonicalization (Evaluator's EvalRows):
/// either a value — a canonical set, or whatever a node that yields no
/// rows returned — or raw rows, possibly unsorted but never with
/// duplicates, that an iterating consumer reads without paying for a
/// sort. Raw rows hold exactly the set's elements, so a consumer does
/// the work it would do on the canonical set and row counts stay set
/// cardinalities.
struct Rows {
  Value value;
  std::vector<Value> raw;
  bool is_raw = false;

  static Rows Of(Value v) {
    Rows r;
    r.value = std::move(v);
    return r;
  }
  static Rows Raw(std::vector<Value> rows) {
    Rows r;
    r.raw = std::move(rows);
    r.is_raw = true;
    return r;
  }
  bool is_set() const { return is_raw || value.is_set(); }
  /// Whether elements() is a canonical set's sequence.
  bool canonical() const { return !is_raw; }
  /// Precondition: is_set().
  std::span<const Value> elements() const {
    if (is_raw) return raw;
    return value.elements();
  }
  size_t set_size() const { return elements().size(); }
};

/// Variable bindings during evaluation, innermost last.
class Environment {
 public:
  void Push(const std::string& name, Value v) {
    bindings_.push_back(Binding{name, name.data(), std::move(v)});
  }
  void Pop() { bindings_.pop_back(); }
  /// Innermost binding of `name`, or nullptr.
  const Value* Lookup(const std::string& name) const {
    // One-entry memo for the hot tuple-at-a-time pattern: per row the
    // evaluator pops and re-pushes the same loop variable (the same
    // source std::string each time) and the predicate re-resolves the
    // same Var node's name string. When the query string, the stack
    // depth, and the innermost binding's Push-source pointer all match
    // the previous resolution, the innermost binding is still the
    // answer — no character comparison at all. Source pointers are
    // Expr-owned strings that outlive the evaluation, so pointer
    // identity implies name identity here.
    if (!bindings_.empty() && memo_query_ == name.data() &&
        memo_depth_ == bindings_.size() &&
        memo_src_ == bindings_.back().src) {
      return &bindings_.back().value;
    }
    const size_t len = name.size();
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      // Length first: unequal-length names (the common mismatch) are
      // rejected without touching the characters.
      if (it->name.size() == len &&
          std::memcmp(it->name.data(), name.data(), len) == 0) {
        if (it == bindings_.rbegin()) {
          memo_query_ = name.data();
          memo_src_ = it->src;
          memo_depth_ = bindings_.size();
        }
        return &it->value;
      }
    }
    return nullptr;
  }
  size_t size() const { return bindings_.size(); }

 private:
  struct Binding {
    std::string name;
    const char* src;  // data() of the string object passed to Push
    Value value;
  };
  std::vector<Binding> bindings_;
  // Only innermost hits are memoized — a deeper hit could be shadowed
  // by a later Push at the same depth, which the src check can't see.
  mutable const char* memo_query_ = nullptr;
  mutable const char* memo_src_ = nullptr;
  mutable size_t memo_depth_ = 0;
};

/// Evaluates ADL expressions against a Database. The evaluator is the
/// operational semantics of the algebra: nested expressions evaluate as
/// nested loops (tuple-oriented processing); the join operators may use
/// set-oriented hash implementations (physical.cc), which is exactly the
/// performance gap the paper's rewrites exist to exploit.
class Evaluator {
 public:
  explicit Evaluator(const Database& db, EvalOptions opts = EvalOptions())
      : db_(db), opts_(opts) {}

  /// Evaluates a closed expression.
  Result<Value> Eval(const ExprPtr& e);
  /// Evaluates with initial bindings.
  Result<Value> Eval(const ExprPtr& e, Environment& env);

  EvalStats& stats() { return stats_; }
  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  const Database& db() const { return db_; }

  /// Resolves a base table through the per-query cache. Used by the
  /// bytecode compiler (compile.cc) to capture table extents into a
  /// program's constant pool at compile time.
  Result<Value> ResolveTable(const std::string& name) {
    return TableValue(name);
  }

  /// One per-worker clone for an external morsel driver (the shredded
  /// executor): same options with num_threads forced to 1 and tracing
  /// off, a snapshot of the table cache, fresh stats. The caller owns
  /// merging the clone's stats back before its enclosing span closes.
  std::unique_ptr<Evaluator> ForkWorker() const;

 private:
  // Canonical sets by construction: μ, α, σ, ⋃ (flatten), × and the
  // join family run in EvalRows, which hands raw rows to a consumer
  // that only iterates them (the join probe side and the inputs of α,
  // μ, ⋃ and σ) and canonicalizes once, in EmitRows, for everyone else.
  // Only duplicate-free rows stay raw: σ, × and the join family keep
  // their inputs' distinctness (the index join's ⋈ excepted: table rows
  // may repeat), μ does when its canonical input shows no two tuples
  // agreeing outside the unnested attribute, and α and ⋃, which can
  // repeat rows, always canonicalize. EvalNode is EvalRows with
  // `as_set` on for those nodes.
  Result<Value> EvalNode(const Expr& e, Environment& env);
  Result<Rows> EvalRows(const Expr& e, Environment& env, bool as_set);
  /// Closes a rows-producing operator: kCanonical rows are wrapped
  /// without compares, kDistinct rows are canonicalized when `as_set`
  /// and left raw otherwise, kBag rows are always canonicalized. Records
  /// the span's output rows.
  Rows EmitRows(std::vector<Value> rows, RowOrder order, bool as_set,
                OpSpan& span);
  /// Value::Set, counting EvalStats::set_sorted_rows.
  Value ToSet(std::vector<Value> rows);
  Result<Rows> EvalMapSelect(const Expr& e, Environment& env, bool as_set);
  Result<Rows> EvalFlatten(const Expr& e, Environment& env, bool as_set);
  Result<Rows> EvalProduct(const Expr& e, Environment& env, bool as_set);
  Result<Value> EvalBinary(const Expr& e, Environment& env);
  Result<Value> EvalQuantifier(const Expr& e, Environment& env);
  Result<Value> EvalAggregate(const Expr& e, Environment& env);
  Result<Value> EvalNest(const Expr& e, Environment& env);
  Result<Rows> EvalUnnest(const Expr& e, Environment& env, bool as_set);
  Result<Value> EvalDivide(const Expr& e, Environment& env);
  Result<Rows> EvalJoinLike(const Expr& e, Environment& env, bool as_set);

  // The join family's physical implementations append their output
  // rows to `out` in probe order — except sort-merge, which emits in
  // key order — for EvalJoinLike to close.
  // Nested-loop implementations (physical baseline).
  Status NestedLoopJoin(const Expr& e, const Rows& l, const Value& r,
                        Environment& env, std::vector<Value>* out);
  // Set-oriented implementations (physical.cc / physical_sortmerge.cc /
  // physical_membership.cc). Each runs on the node's pre-matched shape;
  // EvalJoinLike only calls one whose inputs the shape provides.
  Status HashJoin(const Expr& e, const JoinShape& shape, const Rows& l,
                  const Value& r, Environment& env, std::vector<Value>* out);
  Status SortMergeJoin(const Expr& e, const JoinShape& shape, const Rows& l,
                       const Value& r, Environment& env,
                       std::vector<Value>* out);
  Status IndexJoin(const Expr& e, const JoinShape& shape, const Rows& l,
                   Environment& env, std::vector<Value>* out);
  /// Hash implementation for the shape's membership conjunct (f(y) ∈
  /// x.c, x.c ∋ f(y), ∃v ∈ x.c · k(v) = f(y)): builds on the right key
  /// and probes with the left tuple's set elements — the access pattern
  /// behind the paper's Query 5 semijoin and Query 6 nestjoin.
  Status MembershipJoin(const Expr& e, const JoinShape& shape, const Rows& l,
                        const Value& r, Environment& env,
                        std::vector<Value>* out);

  /// Fast path for the Section 6.2 set-valued-attribute join (PNHL);
  /// returns kUnsupported when `e` is not that map pattern.
  Result<Value> TryPnhlMap(const Expr& e, Environment& env);

  // ---- Morsel-driven parallel execution (num_threads > 1) -----------
  // Each parallel operator forks per-worker evaluator clones (own stats
  // and table cache, num_threads forced to 1 so nested operators stay
  // serial), runs morsels over the materialized input, and merges both
  // the per-morsel outputs (in morsel order — deterministic) and the
  // per-worker stats (sums — exact).

  /// The lazily created pool backing this evaluator's parallel
  /// operators; opts_.num_threads workers.
  ThreadPool& pool();
  /// Per-worker evaluator clones sharing the database and the current
  /// table cache snapshot.
  std::vector<std::unique_ptr<Evaluator>> ForkWorkers(int count);
  /// Adds every worker's counters into stats_.
  void MergeWorkerStats(
      const std::vector<std::unique_ptr<Evaluator>>& workers);

  /// Parallel morsels for map/select over materialized rows; appends
  /// the mapped (or selected) rows to `out` in input order.
  Status ParallelMapSelect(const Expr& e, std::span<const Value> xs,
                           Environment& env, bool is_select,
                           std::vector<Value>* out);
  /// Partitioned parallel hash join: parallel build-key evaluation,
  /// hash-partitioned build (one partition per worker, scan order
  /// preserved inside buckets), then parallel probe morsels.
  Status ParallelHashJoin(const Expr& e, const Rows& l, const Value& r,
                          Environment& env, const EquiJoinKeys& keys,
                          std::vector<Value>* out);
  /// Parallel probe morsels for the membership join (build stays
  /// serial; the probe side dominates). `compile_worker` populates one
  /// JoinLambdas per worker frame (compiled via that worker's evaluator
  /// and environment) before the morsels run; `probe_one` receives the
  /// worker's frame, the left tuple and its position in `l`, and leaves
  /// the tuple's matches in jl.matches.
  Status ParallelMembershipProbe(
      const Expr& e, const Rows& l, Environment& env, std::vector<Value>* out,
      const std::function<void(Evaluator& worker, Environment& wenv,
                               JoinLambdas* jl)>& compile_worker,
      const std::function<Status(Evaluator& worker, Environment& wenv,
                                 const Value& x, size_t pos,
                                 JoinLambdas& jl)>& probe_one);

  /// Compiles a join's key, residual and nestjoin-inner lambdas into
  /// `jl` when compiled evaluation is on. A null `r` skips the right
  /// (build) key — an index join has no build side.
  void CompileJoinLambdas(const Expr& e, const EquiJoinKeys& keys,
                          const Expr& residual, const Rows& l,
                          const Value* r, Environment& env, JoinLambdas* jl);
  /// One row's join key: through `cl` when it compiled, else by
  /// interpreting `keys` under a binding of `var` to `row`.
  Result<Value> JoinKey(CompiledLambda& cl, const std::vector<ExprPtr>& keys,
                        const std::string& var, const Value& row,
                        Environment& env);
  /// One evaluation of a join's residual predicate on (x, y), compiled
  /// through `cl` when it compiled; counts a predicate evaluation.
  Status ResidualHolds(const Expr& e, const Expr& residual,
                       CompiledLambda& cl, const Value& x, const Value& y,
                       Environment& env, bool* holds);

  /// Shared per-left-tuple result assembly for the join family: given
  /// the matching right tuples (post-residual), appends the appropriate
  /// output to `out`. Used by the hash/sort-merge/index/membership
  /// variants. The nestjoin inner function runs compiled when jl.inner
  /// is ok; an identity inner (the bare right variable) is not run, and
  /// its group is canonical without compares when `canonical_build`
  /// (the matches point into a canonical set's elements) and the
  /// matches sit at increasing positions.
  Status EmitJoinResult(const Expr& e, const Value& x,
                        const std::vector<const Value*>& matches,
                        bool canonical_build, Environment& env,
                        std::vector<Value>* out, JoinLambdas& jl);
  /// The rows of `chain` (indices into `build`) that pass the residual
  /// for left tuple `x`, in chain order, into jl.matches.
  Status CollectMatches(const Expr& e, const Expr& residual,
                        const EquiJoinKeys& keys,
                        const std::vector<Value>& build,
                        const JoinTable::Chain& chain, const Value& x,
                        Environment& env, JoinLambdas& jl);

  Result<Value> TableValue(const std::string& name);

  /// Tuple concatenation surfacing attribute-name conflicts as a
  /// RuntimeError (Value::ConcatTuple treats them as internal errors).
  static Result<Value> ConcatTuples(const Value& l, const Value& r);

  const Database& db_;
  EvalOptions opts_;
  EvalStats stats_;
  std::map<std::string, Value> table_cache_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Convenience: evaluate a closed expression against `db` with default
/// options, aborting on error (for tests/examples where failure is a bug).
Value EvalOrDie(const Database& db, const ExprPtr& e);

}  // namespace n2j

#endif  // N2J_EXEC_EVAL_H_
