#ifndef N2J_OPT_COST_H_
#define N2J_OPT_COST_H_

// Cost formulas for the physical operator inventory, in calibrated
// nanoseconds. The per-operation constants (cost.cc) were fitted against
// the checked-in trajectory measurements
// (bench/trajectory/join_algorithms.json, fig1_nested_query.json): e.g.
// the nested-loop semijoin at n=1024 costs 27.3 ms over 1024² predicate
// evaluations → ~26 ns per compiled predicate evaluation. Absolute
// values matter less than ratios — the planner only compares
// alternatives for the same node.

namespace n2j {

/// Cardinality inputs: probe/outer rows `l`, build/inner rows `r`,
/// estimated output rows `out`. All costs are monotone in their inputs
/// and safe on zero.
double NestedLoopJoinCost(double l, double r, double out);
double HashJoinCost(double l, double r, double out);
/// No build side: the index already exists. `matches` = total matching
/// rows fetched through the index over all probes (l × join fanout) —
/// unlike a hash table's grouped buckets, every match is a row-index
/// chase, which is what makes high-fanout keys favour hashing.
double IndexJoinCost(double l, double matches, double out);
/// `l_elems` = total probing set elements over all left rows
/// (rows × avg fanout) — the probe side of the membership join.
double MembershipJoinCost(double l_elems, double r, double out);
/// `n` compiled predicate evaluations.
double PredEvalCost(double n);
/// One nested-loop membership test f(y) ∈ x.c against a canonical set
/// of `fanout` elements — build the projection f(y), then binary-search
/// x.c — in predicate evaluations.
double MembershipTestWork(double fanout);

}  // namespace n2j

#endif  // N2J_OPT_COST_H_
