#ifndef N2J_OPT_OPTIMIZER_H_
#define N2J_OPT_OPTIMIZER_H_

// Cost-based physical planning (ROADMAP item 1). The paper's rewriter
// (rewrite/) produces the logical join plan; this module decides *how*
// each join-family node runs and in *what order* base-table equi-join
// chains are joined:
//
//   1. Cardinalities are estimated bottom-up from real extent
//      statistics (stats/cardinality.h).
//   2. Every physical alternative of the inventory — nested loop, hash,
//      prebuilt-index probe, membership join — is priced with the
//      calibrated formulas of opt/cost.h; the cheapest wins and is
//      pinned on the node via PlanAnnotations. PNHL is not priced: the
//      evaluator recognizes its pattern at run time.
//   3. Chains of ≥3 base-table equi-joins are reordered by a
//      Selinger-style dynamic program over (join order × algorithm);
//      the reordered tree is wrapped in a field-order-restoring map so
//      results stay bit-identical to the original plan.
//
// The paper's fixed priority strategy remains available as
// PlanStrategy::kHeuristic (the default), which skips all of this and
// leaves dispatch to EvalOptions::join_algorithm — exactly the pre-
// planner behavior.

#include <memory>
#include <string>
#include <vector>

#include "adl/expr.h"
#include "common/result.h"
#include "exec/plan.h"
#include "storage/database.h"

namespace n2j {

enum class PlanStrategy {
  kHeuristic,  // the paper's priority strategy; no planning pass
  kCost,       // statistics-driven algorithm choice + join reordering
};

const char* PlanStrategyName(PlanStrategy s);

/// The one planner setting. The cost formulas' constants are fixed
/// (opt/cost.cc), the join-order DP always runs under kCost, and PNHL
/// is chosen by the evaluator at run time, not priced here.
struct PlannerOptions {
  PlanStrategy strategy = PlanStrategy::kHeuristic;
};

/// The planner's output: the (possibly reordered) expression to
/// execute, per-node physical annotations for the evaluator, and a
/// deterministic description for EXPLAIN.
struct PhysicalPlan {
  ExprPtr root;
  PlanAnnotations annotations;
  /// Total estimated cost (calibrated ns) of all priced operators.
  double est_cost = 0.0;
  /// Correlated join-family operators, which are rebuilt per outer row
  /// and never priced: est_cost leaves them out.
  int unpriced_correlated = 0;
  /// True when the join-order DP changed the join order.
  bool reordered = false;
  /// One plan line per priced or estimated operator, in pre-order.
  /// Describe() renders it ("join[hash] est_rows=412 est_cost=0.21ms");
  /// planning itself formats no text.
  struct Line {
    int depth = 0;
    /// The operator; a node of `root`, which keeps it alive.
    const Expr* node = nullptr;
    /// Join family: the pinned algorithm's label, or "auto: correlated".
    const char* algorithm = nullptr;
    double est_rows = -1.0;  // printed when >= 0
    double est_cost = -1.0;  // printed when >= 0
  };
  std::vector<Line> lines;

  /// Multi-line planner section for QueryReport::Explain().
  std::string Describe() const;
};

class Planner {
 public:
  explicit Planner(const Database& db, PlannerOptions opts = {})
      : db_(db), opts_(opts) {}

  /// Plans `e`. Planning never fails on missing statistics — unknown
  /// cardinalities fall back to explicit defaults — but surfaces
  /// internal inconsistencies as errors.
  Result<PhysicalPlan> Plan(const ExprPtr& e) const;

 private:
  const Database& db_;
  PlannerOptions opts_;
};

}  // namespace n2j

#endif  // N2J_OPT_OPTIMIZER_H_
