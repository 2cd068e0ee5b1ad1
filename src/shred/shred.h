#ifndef N2J_SHRED_SHRED_H_
#define N2J_SHRED_SHRED_H_

// Query shredding: evaluating nested OOSQL over flat columnar relations.
//
// The paper pushes nested-loop evaluation toward join queries one
// rewrite at a time; shredding (Cheney/Lindley/Wadler "Query Shredding",
// Grust et al. "XQuery Join Graph Isolation") goes all the way in one
// step. The translator lowers a typechecked ADL query into a DAG of
// *flat nodes*. Each node is a flat query: a working relation seeded
// from the parent's context rows, widened by a sequence of range
// expansions (extent scans over columnar projections, CSR child-
// relation lookups for set-valued attributes, constant sets, or opaque
// per-row subqueries), filtered by predicates that may run as hash or
// sort-merge joins, and finished by an output spec. The *stitching*
// phase reassembles the nested result: a work row's context pointer is
// its synthetic parent id, and a node's result for one context row is
// the set of its work-row outputs — Map, Select and Flatten all
// collapse onto this single invariant because ADL sets deduplicate.
//
// Fidelity contract (pinned by the differential fuzzer): when the
// nested-loop interpreter evaluates the same query successfully, the
// shredded backend returns a bit-equal Value; the shredded backend may
// only fail when the interpreter also fails. Everything in exec.cc that
// looks conservative — lazy constant-set evaluation, abandoning a hash
// join on any key-evaluation error, evaluating residual conjuncts in
// source order — exists to uphold the second half of that contract.
// See docs/SHREDDING.md for the full design.

#include <memory>
#include <string>
#include <vector>

#include "adl/expr.h"
#include "common/result.h"
#include "exec/eval.h"
#include "storage/database.h"

namespace n2j {
namespace shred {

/// How one range expansion gets its elements.
enum class RangeKind {
  kExtent,     // base-table scan over the columnar projection
  kChildAttr,  // CSR child relation of a set-valued attribute (or the
               // row-wise field access it stands for)
  kConstSet,   // uncorrelated subquery: evaluated lazily, once
  kOpaque,     // correlated subquery: evaluated per work row
};

const char* RangeKindName(RangeKind k);

/// One range expansion of a flat node: binds `var` to each element of
/// the source, filtered by `pred` (a conjunction combining every Select
/// collapsed into this range, innermost first).
struct RangeSpec {
  std::string var;
  RangeKind kind = RangeKind::kOpaque;
  std::string table;       // kExtent
  std::string parent_var;  // kChildAttr
  std::string attr;        // kChildAttr
  ExprPtr source;          // kConstSet / kOpaque (also kept for fallbacks)
  ExprPtr pred;            // nullptr = unfiltered
};

/// How a flat node turns one work row into one output value.
struct OutputSpec {
  enum class Kind {
    kScalar,  // evaluate `scalar` row-wise through the interpreter
    kChild,   // the stitched set of DAG node `child`
    kTuple,   // tuple of named sub-outputs
  };
  Kind kind = Kind::kScalar;
  ExprPtr scalar;
  int child = -1;
  std::vector<std::string> field_names;
  std::vector<OutputSpec> fields;
};

/// One flat query in the DAG.
struct FlatNode {
  int id = 0;
  /// Context variables this node actually reads, in the parent's binding
  /// order. Empty = uncorrelated: executed once and broadcast.
  std::vector<std::string> ctx_vars;
  std::vector<RangeSpec> ranges;
  OutputSpec out;
  std::string label;  // trace-span / plan label ("node0 ranges=2")
};

/// A shredded query: root-level let bindings (evaluated in order before
/// node 0 runs), the DAG (node 0 is the root; children have higher ids),
/// and whether the root is a comprehension at all. A non-comprehension
/// root (`scalar_root`) evaluates row-wise under the let bindings — the
/// translation is total, it just degenerates to the interpreter.
struct ShredPlan {
  std::vector<std::pair<std::string, ExprPtr>> lets;
  std::vector<FlatNode> nodes;
  bool scalar_root = false;
  ExprPtr scalar_root_expr;  // set iff scalar_root
  int structural_ranges = 0;  // kExtent + kChildAttr
  int other_ranges = 0;       // kConstSet + kOpaque

  /// Multi-line plan description (EXPLAIN's "shredded plan" section).
  std::string Describe() const;
};

/// Lowers a typechecked query into a shredded plan. Total: every query
/// shreds (worst case, to a scalar root).
ShredPlan ShredQuery(const ExprPtr& query);

/// Evaluates `query` with the shredded backend. `stats` (required)
/// receives the executor's counters — every counter bump, including the
/// row-wise interpreter evals the executor delegates, lands in this one
/// struct, so trace spans' exclusive deltas sum to it exactly. When
/// `plan_text` is non-null it receives ShredPlan::Describe().
Result<Value> EvalShredded(const Database& db, const ExprPtr& query,
                           const EvalOptions& opts, EvalStats* stats,
                           std::string* plan_text = nullptr);

/// Dispatches on `opts.backend`: kShredded runs EvalShredded, kNested
/// runs a plain Evaluator. The single entry point QueryEngine and the
/// fuzzer share.
Result<Value> EvalWithBackend(const Database& db, const ExprPtr& query,
                              const EvalOptions& opts, EvalStats* stats,
                              std::string* plan_text = nullptr);

}  // namespace shred
}  // namespace n2j

#endif  // N2J_SHRED_SHRED_H_
