#include "opt/cost.h"

#include <cmath>

namespace n2j {

namespace {

// Calibrated per-operation constants (ns).
constexpr double kPredEval = 26.0;    // one compiled predicate evaluation
constexpr double kHashBuild = 95.0;   // one hash insert (key eval + insert)
constexpr double kHashProbe = 95.0;   // one probe (key eval + lookup)
constexpr double kSortPerCmp = 12.0;  // one comparison of a binary search
constexpr double kIndexProbe = 110.0; // one index lookup (key eval + chase)
constexpr double kIndexChase = 45.0;  // one matching row via the postings
constexpr double kEmitRow = 30.0;     // one output tuple assembled

}  // namespace

double NestedLoopJoinCost(double l, double r, double out) {
  return l * r * kPredEval + out * kEmitRow;
}

double HashJoinCost(double l, double r, double out) {
  return r * kHashBuild + l * kHashProbe + out * kEmitRow;
}

double IndexJoinCost(double l, double matches, double out) {
  return l * kIndexProbe + matches * kIndexChase + out * kEmitRow;
}

double MembershipJoinCost(double l_elems, double r, double out) {
  return r * kHashBuild + l_elems * kHashProbe + out * kEmitRow;
}

double PredEvalCost(double n) { return n * kPredEval; }

double MembershipTestWork(double fanout) {
  return (kPredEval + kEmitRow + std::log2(fanout) * kSortPerCmp) / kPredEval;
}

}  // namespace n2j
