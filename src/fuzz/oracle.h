#ifndef N2J_FUZZ_ORACLE_H_
#define N2J_FUZZ_ORACLE_H_

#include <string>
#include <vector>

#include "exec/eval.h"
#include "rewrite/rewriter.h"
#include "storage/database.h"

namespace n2j {
namespace fuzz {

/// One cell of the differential matrix: a rewrite configuration paired
/// with an execution configuration.
struct OracleConfig {
  std::string name;
  RewriteOptions rewrite;
  EvalOptions eval;
  /// Skip the rewriter entirely (execute the naive translation). Used by
  /// the sanity cell that must trivially match the reference.
  bool skip_rewrite = false;
  /// Run this cell with a TraceCollector attached and assert the span
  /// tree's invariant: the exclusive EvalStats deltas over all spans sum
  /// exactly to the evaluator's global counters. Tracing must be a pure
  /// observer — any result or counter divergence is a kMismatch.
  bool trace = false;
  /// Run the cost-based planner (opt/optimizer.h) over the rewritten
  /// plan and execute its output — per-node algorithm annotations plus
  /// any join reordering. Must stay bit-exact against the nested-loop
  /// oracle: a cost model may pick a slow plan, never a wrong one.
  bool cost_based = false;
  /// Run this cell through QueryEngine::Run (not EvalWithBackend
  /// directly) so the query flight recorder (obs/querylog.h) is on the
  /// path, and assert its exactness: every run appends exactly one
  /// record, and the record's EvalStats snapshot equals the execution's
  /// global counters (error runs must record a non-empty error).
  bool querylog = false;
  /// Bound this cell's deterministic work on flat from-clauses: when
  /// every range is a base table and every cross-variable conjunct is an
  /// attribute equality xi.a = xj.b, the plan must do work linear in its
  /// inputs, the pairs each equality matches and its output — never
  /// |X|·|Y| for an equi-joinable pair (see FlatJoinWorkBound).
  bool linear_join_work = false;
};

/// The default matrix: ≥ 8 configurations spanning GroupingMode, the
/// individual rewrite-pass toggles and every physical join algorithm.
/// GroupingMode::kForceGroupingUnsafe is deliberately absent — it exists
/// to demonstrate the Complex Object bug and *would* mismatch.
std::vector<OracleConfig> DefaultConfigMatrix();

/// A reduced matrix (3 cells) for tight time budgets.
std::vector<OracleConfig> MinimalConfigMatrix();

/// A single-cell matrix running GroupingMode::kForceGroupingUnsafe —
/// the configuration the paper *proves* wrong (Figure 2). Exists so
/// tests and demos can watch the fuzzer catch and shrink the Complex
/// Object bug; never part of the default matrix.
std::vector<OracleConfig> UnsafeGroupingMatrix();

enum class OracleStatus {
  kOk,             // every configuration matched the oracle
  kSkipped,        // reference evaluation hit a runtime error (e.g. null
                   // arithmetic); configs were still run for crash safety
  kMismatch,       // some configuration disagreed — a real bug
  kFrontEndError,  // parse/typecheck/translate failed (caller decides
                   // whether that is expected)
};
const char* OracleStatusName(OracleStatus s);

/// Deterministic matching work of one execution: tuples scanned +
/// predicate evaluations + hash probes. The linear-join-work cell bounds
/// it.
uint64_t JoinWork(const EvalStats& s);

/// Deterministic work of one execution, for comparing physical
/// alternatives: JoinWork plus the per-row work it leaves out — hash
/// table builds, index lookups, and the rows set canonicalization
/// sorts. Without them an index join reads as cheaper than the hash
/// join that does the same matching. The cost-based cell bounds it.
uint64_t PlanWork(const EvalStats& s);

/// The linear work bound of a flat from-clause. `naive` must be the
/// translator's chain ⋃(α[x1 : ... α[xk : f](σ[xk : p](T_k)) ...](T1))
/// over base tables, with a scalar select clause and scalar
/// where-conjuncts whose cross-variable ones are all plain-attribute
/// equalities. Returns Σ|Ti| + Σ (pairs each equality matches) + (full
/// combinations matching every equality) — the inputs, every
/// intermediate a connected left-deep join tree can produce, and the
/// output; 0 when the query does not qualify.
uint64_t FlatJoinWorkBound(const Database& db, const ExprPtr& naive);

struct OracleReport {
  OracleStatus status = OracleStatus::kOk;
  std::string query;
  std::string failing_config;  // set when status == kMismatch
  std::string detail;          // human-readable description
  int configs_checked = 0;
};

/// Runs `query` once as the paper's naive nested-loop translation (no
/// rewrites, tuple-at-a-time execution, PNHL off) — the oracle — and
/// once per matrix cell, asserting that every cell reproduces the
/// oracle's result value bit-for-bit (Value::operator==) and that the
/// rewritten plan's inferred type equals the naive plan's type. This is
/// the paper's equivalence claim, mechanized.
OracleReport RunDifferentialOracle(const Database& db,
                                   const std::string& query,
                                   const std::vector<OracleConfig>& matrix);

}  // namespace fuzz
}  // namespace n2j

#endif  // N2J_FUZZ_ORACLE_H_
