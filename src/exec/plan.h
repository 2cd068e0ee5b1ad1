#ifndef N2J_EXEC_PLAN_H_
#define N2J_EXEC_PLAN_H_

// Per-node physical plan annotations. The cost-based planner
// (opt/optimizer.h) fills one PlanAnnotations per query; the evaluator
// consults it through EvalOptions::plan. Expressions are immutable and
// shared, so `const Expr*` identity is a stable key for the lifetime of
// the plan.
//
// A pinned algorithm is dispatched exactly like the global
// EvalOptions::join_algorithm setting: JoinShape::Dispatch
// (exec/equi_join.h) maps it to the operator the node's shape supports.
// The planner prices the same mapping, so its label names the operator
// that runs, and a wrong pin can cost time but never correctness.

#include <map>
#include <optional>
#include <string>

#include "exec/eval.h"
#include "obs/trace.h"

namespace n2j {

struct PlanAnnotation {
  /// Physical algorithm pinned on a join-family node; empty = not
  /// pinned (the evaluator keeps its EvalOptions-wide setting).
  std::optional<JoinAlgorithm> algorithm;
  /// Estimated output cardinality; negative = not estimated. Rendered
  /// by trace spans as est= so EXPLAIN shows estimate vs. actual.
  double est_rows = -1.0;
  /// Estimated cost (calibrated ns, opt/cost.h); negative = not priced.
  double est_cost = -1.0;
  /// Planner's name for the chosen physical operator ("hash",
  /// "membership", "pnhl", ...), for plan description output.
  std::string label;
};

struct PlanAnnotations {
  std::map<const Expr*, PlanAnnotation> nodes;

  const PlanAnnotation* Find(const Expr* e) const {
    auto it = nodes.find(e);
    return it == nodes.end() ? nullptr : &it->second;
  }
};

/// Attaches the planner's estimated cardinality for `e` (if any) to an
/// operator span — the est= column of profiled explain output.
inline void AnnotateEstRows(const PlanAnnotations* plan, const Expr& e,
                            OpSpan* span) {
  if (plan == nullptr || !span->on()) return;
  const PlanAnnotation* pa = plan->Find(&e);
  if (pa != nullptr) span->EstRows(&e, pa->est_rows);
}

}  // namespace n2j

#endif  // N2J_EXEC_PLAN_H_
