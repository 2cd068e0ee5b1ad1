#ifndef N2J_CORE_ENGINE_H_
#define N2J_CORE_ENGINE_H_

#include <memory>
#include <string>

#include "adl/expr.h"
#include "adl/type.h"
#include "common/result.h"
#include "exec/eval.h"
#include "opt/optimizer.h"
#include "rewrite/rewriter.h"
#include "storage/database.h"

namespace n2j {

class TraceCollector;

/// Everything the engine knows about one executed query, for explain
/// output and experiments.
struct QueryReport {
  std::string oosql;          // original query text (if it came from text)
  ExprPtr translated;         // naive ADL translation (nested loops)
  TypePtr type;               // inferred result type
  ExprPtr optimized;          // after the rewriter
  std::vector<RuleApplication> trace;  // fired rules
  /// Cost-based physical plan (PlanStrategy::kCost only; null under the
  /// paper's heuristic strategy). Owns the per-node annotations the
  /// evaluator dispatched on, plus the executed (possibly join-
  /// reordered) expression in plan->root.
  std::shared_ptr<const PhysicalPlan> plan;
  /// Shredded-backend plan description (EvalOptions::backend ==
  /// Backend::kShredded only; empty otherwise). The DAG of flat nodes
  /// the stitching executor ran — EXPLAIN's counterpart to `plan` above.
  std::string shred_plan;
  Value result;               // query result
  EvalStats exec_stats;       // operator counters of the final execution
  /// Phase latencies. Run fills all four (RunAdl has no translation);
  /// plan_ms is the cost planner's time, including the lazy refresh of
  /// the extent statistics it prices with, and 0 under the heuristic
  /// strategy. Their sum stays below Run's wall time, which also covers
  /// stitching the report and recording the query.
  double translate_ms = 0.0;  // parse, typecheck and lowering
  double rewrite_ms = 0.0;    // rewriter phase latency
  double plan_ms = 0.0;       // cost planner, stats refresh included
  double eval_ms = 0.0;       // evaluation phase latency
  /// Operator span tree of the execution (borrowed from the engine's
  /// EvalOptions::trace collector; null when tracing was off). Makes
  /// Explain() an EXPLAIN ANALYZE: per-operator wall time,
  /// cardinalities, and stats deltas.
  const TraceCollector* profile = nullptr;

  /// Human-readable explain block.
  std::string Explain() const;
};

/// The public façade: parse OOSQL → type-check/translate to ADL →
/// rewrite per the paper's strategy → evaluate.
class QueryEngine {
 public:
  explicit QueryEngine(const Database* db,
                       RewriteOptions rewrite_options = RewriteOptions(),
                       EvalOptions eval_options = EvalOptions(),
                       PlannerOptions planner_options = PlannerOptions())
      : db_(db),
        rewrite_options_(rewrite_options),
        eval_options_(eval_options),
        planner_options_(planner_options) {}

  /// Runs an OOSQL query end to end.
  Result<QueryReport> Run(const std::string& oosql) const;

  /// The deepest ADL tree RunAdl accepts. The printer, rewriter,
  /// typechecker and evaluator recurse once per level; a sanitizer build
  /// overflows its stack a little past 600 levels of `1 + 1 + …`.
  /// Translated queries stay well below this: the parser caps OOSQL
  /// nesting at Parser::kMaxQueryDepth = 256 levels.
  static constexpr size_t kMaxAdlDepth = 512;

  /// Runs a hand-built ADL expression (skipping the front end). A tree
  /// deeper than kMaxAdlDepth fails with InvalidArgument before any
  /// recursive pass sees it.
  Result<QueryReport> RunAdl(const ExprPtr& adl) const;

  /// Translation only (parse + typecheck + lower, no rewrite/execute).
  Result<QueryReport> Translate(const std::string& oosql) const;

  /// Rewrite only.
  Result<RewriteResult> Optimize(const ExprPtr& adl) const;

  const Database& db() const { return *db_; }
  RewriteOptions& rewrite_options() { return rewrite_options_; }
  EvalOptions& eval_options() { return eval_options_; }
  PlannerOptions& planner_options() { return planner_options_; }

 private:
  /// Shared back half of Run/RunAdl: clears the trace collector (if one
  /// is configured), evaluates the optimized plan, and fills
  /// result/exec_stats/profile. Also feeds the eval-latency histogram.
  Status Execute(QueryReport* report) const;

  const Database* db_;
  RewriteOptions rewrite_options_;
  EvalOptions eval_options_;
  PlannerOptions planner_options_;
};

}  // namespace n2j

#endif  // N2J_CORE_ENGINE_H_
