#ifndef N2J_STATS_CARDINALITY_H_
#define N2J_STATS_CARDINALITY_H_

// Cardinality estimation over ADL expressions, fed by the extent
// statistics of stats.h. The estimator walks an expression bottom-up and
// propagates (row count, per-attribute origin stats) through the algebra
// operators; the cost model (opt/cost.h) turns these estimates into
// per-algorithm costs and the plan enumerator (opt/optimizer.h) picks
// the cheapest physical alternative.
//
// Estimates are best-effort: an unknown quantity is reported as
// `rows < 0`, never guessed silently — the optimizer substitutes an
// explicit fallback so every default is visible in one place.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adl/expr.h"
#include "stats/stats.h"
#include "storage/database.h"

namespace n2j {

/// Estimated shape of one set-typed (sub)expression.
struct RelEstimate {
  using AttrMap = std::map<std::string, const AttrStats*>;

  /// Estimated output cardinality; negative = unknown.
  double rows = -1.0;
  /// Statistics of the attributes flowing through this expression,
  /// keyed by attribute name as visible *here* (maps that rename
  /// attributes re-key; an attribute inside a tuple-valued field x is
  /// keyed "x.a"). Pointers borrow from the StatsCatalog and stay valid
  /// for the planning pass. Immutable and shared: an operator that
  /// passes its input's attributes through unchanged (select, identity
  /// map, semijoin, ...) points at the same map. Null when empty.
  std::shared_ptr<const AttrMap> attrs;

  bool known() const { return rows >= 0.0; }
  /// `rows` when known, else `fallback`.
  double RowsOr(double fallback) const { return known() ? rows : fallback; }
  const AttrStats* Find(const std::string& name) const {
    if (attrs == nullptr) return nullptr;
    auto it = attrs->find(name);
    return it == attrs->end() ? nullptr : it->second;
  }
  /// The attribute map, empty when there is none.
  const AttrMap& Attrs() const {
    static const AttrMap kNone;
    return attrs == nullptr ? kNone : *attrs;
  }
};

/// Equi-key selectivity inputs the estimator extracted for one
/// join-family node — shared with the cost model so both price and
/// cardinality derive from the same statistics.
struct JoinSelectivity {
  /// Fraction of left rows with at least one right match (semijoin
  /// cardinality; 1 − this is the antijoin fraction).
  double match_rate = 0.5;
  /// Expected matching right rows per left row (join fanout).
  double fanout = 1.0;
  /// True when at least one equi-key pair had stats on both sides.
  bool from_stats = false;
};

/// The key under which RelEstimate::attrs holds the attribute `e` reads
/// from `var`: "a" for var.a, "x.a" for var.x.a (the path a Rule 2
/// wrapped from-variable is read through), "" when `e` is no attribute
/// path of `var`. A tuple projection in between (`x[a, b].a`, the shape
/// the unnest rewrite emits) narrows the row without renaming, so the
/// access reads the same attribute.
std::string AttrPathOf(const ExprPtr& e, const std::string& var);

class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const Database& db) : db_(db) {}

  /// Estimate for `e`. Results are memoized per node (expressions are
  /// shared immutable trees), so estimating a root prices every subtree
  /// once.
  const RelEstimate& Estimate(const ExprPtr& e);

  /// Selectivity of a join-family node's predicate given both input
  /// estimates, from equi-key match rates (falls back to 0.5 per
  /// unanalyzable conjunct).
  JoinSelectivity EstimateJoinSelectivity(const Expr& join,
                                          const RelEstimate& left,
                                          const RelEstimate& right);

  /// Selectivity of `pred` over rows bound to `var` (select pushdown
  /// factor): equality on an attribute contributes 1/distinct, range
  /// comparisons the covered range fraction, set comparisons the
  /// empty-set fraction, anything else 1/2.
  double EstimatePredicateSelectivity(const ExprPtr& pred,
                                      const std::string& var,
                                      const RelEstimate& in);

 private:
  RelEstimate EstimateNode(const Expr& e);
  RelEstimate EstimateJoinLike(const Expr& e);

  /// Stats of the attribute a key expression reads, when the key is an
  /// attribute path of `var` (`var.a`, or `var.x.a` through a wrapped
  /// from-variable) with known origin stats; nullptr otherwise.
  const AttrStats* KeyAttrStats(const ExprPtr& key, const std::string& var,
                                const RelEstimate& rel) const;

  /// Interns a derived AttrStats (e.g. the scalar image of an unnested
  /// set attribute's elements) so RelEstimate can keep borrowing plain
  /// pointers. Lives as long as the estimator, like the memo.
  const AttrStats* Synthesize(AttrStats s);

  const Database& db_;
  /// Extent-stats snapshots consulted during the walk, pinned so the
  /// AttrStats pointers RelEstimate borrows stay valid for the whole
  /// planning pass even if a concurrent Append refreshes the catalog.
  std::vector<std::shared_ptr<const ExtentStats>> pinned_;
  std::deque<AttrStats> synthesized_;
  std::map<const Expr*, RelEstimate> memo_;
  /// Estimates for let-bound variables in scope during the walk.
  std::map<std::string, RelEstimate> let_env_;
};

}  // namespace n2j

#endif  // N2J_STATS_CARDINALITY_H_
