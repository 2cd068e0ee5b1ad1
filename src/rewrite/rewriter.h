#ifndef N2J_REWRITE_REWRITER_H_
#define N2J_REWRITE_REWRITER_H_

#include <string>
#include <vector>

#include "adl/expr.h"
#include "adl/schema.h"
#include "common/result.h"
#include "storage/database.h"

namespace n2j {

/// How to unnest queries that require grouping (Section 5.2.2 / 6.1).
enum class GroupingMode {
  /// Use the nestjoin operator (Section 6.1) — always correct.
  kNestJoin,
  /// Use the relational grouping technique of [Kim82, GaWo87]
  /// (join + nest + select + project) when the Complex-Object-bug
  /// analysis proves it safe (P(x, ∅) statically false); otherwise fall
  /// back to the nestjoin.
  kGroupingWhenSafe,
  /// Always use the relational grouping technique, even when unsafe.
  /// Exists to *demonstrate* the Complex Object bug (Figure 2, Table 3);
  /// never use in production.
  kForceGroupingUnsafe,
  /// Leave grouping-requiring queries as nested loops.
  kNone,
};

/// Pass toggles, mainly for the strategy-ablation benchmark. Defaults
/// implement the paper's full priority strategy (Section 4).
struct RewriteOptions {
  bool enable_setcmp = true;          // Tables 1 & 2
  bool enable_quantifier = true;      // range merge, NNF, exchange, Rule 1
  bool enable_map_join = true;        // Rule 2
  bool enable_unnest_attr = true;     // option 1 (attribute unnesting)
  bool enable_hoist = true;           // uncorrelated subqueries → let
  bool enable_pushdown = true;        // selection pushdown through joins
  GroupingMode grouping = GroupingMode::kNestJoin;
};

/// One rewrite step, for explain output and tests.
struct RuleApplication {
  std::string rule;    // e.g. "Rule1-SemiJoin"
  ExprPtr site;        // where the rule fired (may be null)
  std::string suffix;  // text printed after the site

  /// Human-readable description of the site: the site's algebra, then
  /// the suffix. Printed on demand, never while rewriting.
  std::string detail() const;
};

/// The rewriter's verdict on the Complex Object bug for a grouping
/// candidate (Table 3): the static value of P(x, ∅).
enum class TriBool { kFalse, kTrue, kUnknown };
const char* TriBoolName(TriBool t);

struct RewriteResult {
  ExprPtr expr;
  std::vector<RuleApplication> trace;
  /// Nodes the rewrite driver entered, counting the ones it skipped at
  /// once (already at a stage's fixpoint, or holding no site of its
  /// rules). Deterministic for a given input and options; tests pin it
  /// as the rewriter's work measure.
  size_t node_visits = 0;

  /// True if some rule of the given name fired.
  bool Fired(const std::string& rule) const;
  std::string TraceToString() const;
};

/// Rewrites a (translated) ADL expression per the paper's priority
/// strategy:
///   1. relational join operators (Rule 1, Rule 2, via Tables 1/2 and
///      the quantifier-exchange heuristic),
///   2. unnesting of set-valued attributes,
///   3. new operators (nestjoin),
///   4. residual nesting stays — nested-loop execution.
/// Each stage of rules walks the whole tree before a later stage fires;
/// the rewrite ends when a pass over all stages fires nothing.
///
/// `db` may be null (only class extents resolve as base tables then);
/// with it, plain tables type-check too.
class Rewriter {
 public:
  Rewriter(const Schema& schema, const Database* db,
           RewriteOptions options = RewriteOptions())
      : schema_(schema), db_(db), options_(options) {}

  Result<RewriteResult> Rewrite(const ExprPtr& e) const;

  const RewriteOptions& options() const { return options_; }

 private:
  const Schema& schema_;
  const Database* db_;
  RewriteOptions options_;
};

/// Statically evaluates predicate `pred` under the assumption that the
/// subexpression `subquery` (a set) is empty, three-valued (Table 3).
/// Exposed for tests and the Table 3 benchmark.
TriBool StaticValueWithEmptySubquery(const ExprPtr& pred,
                                     const ExprPtr& subquery);

}  // namespace n2j

#endif  // N2J_REWRITE_REWRITER_H_
