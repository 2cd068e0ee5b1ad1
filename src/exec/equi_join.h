#ifndef N2J_EXEC_EQUI_JOIN_H_
#define N2J_EXEC_EQUI_JOIN_H_

#include <string>
#include <vector>

#include "adl/expr.h"
#include "adl/value.h"
#include "exec/eval.h"

namespace n2j {

class Database;
class HashIndex;

/// Decomposition of a join predicate p(x, y) into hashable equi-key pairs
/// plus a residual conjunction:
///
///   p  =  (k1_l(x) = k1_r(y)) ∧ ... ∧ residual(x, y)
///
/// This is what lets the logical join operators produced by the paper's
/// rewrites ("so that the optimizer may choose from a number of different
/// join processing strategies", Section 5.1) run as hash joins.
struct EquiJoinKeys {
  std::vector<ExprPtr> left_keys;   // functions of the left variable
  std::vector<ExprPtr> right_keys;  // functions of the right variable
  std::vector<ExprPtr> residual;    // remaining conjuncts (may be empty)

  /// True when at least one equi-key pair was extracted.
  bool usable() const { return !left_keys.empty(); }

  /// Short annotation for trace spans: "keys=2 residual=1" (the residual
  /// part is omitted when empty).
  std::string Describe() const;
};

/// Analyzes `pred` (with bound variables `lvar`, `rvar`). A conjunct
/// `e1 = e2` becomes a key pair when one side mentions only `lvar` (plus
/// outer variables) and the other only `rvar`. Everything else lands in
/// `residual`.
EquiJoinKeys ExtractEquiKeys(const ExprPtr& pred, const std::string& lvar,
                             const std::string& rvar);

/// `e` is Access(Var(var), attr) → the attribute name; nullptr else.
const std::string* PlainAttr(const ExprPtr& e, const std::string& var);

/// The membership conjunct of a join predicate, the pattern of the
/// paper's Example Queries 5 and 6:
///
///   f(y) ∈ x.c    x.c ∋ f(y)    ∃v ∈ x.c · k(v) = f(y)
///
/// (the last in either orientation of the equality). Hashable without
/// equi keys: build on f(y), probe with the elements of x.c (through
/// k for the ∃ form).
struct MembershipKey {
  ExprPtr right_key;              // f(y); null when no conjunct matched
  std::string attr;               // the left set-valued attribute c
  std::string elem_var;           // v (empty for ∈ / ∋)
  ExprPtr elem_key;               // k(v) (null for ∈ / ∋)
  std::vector<ExprPtr> residual;  // every other conjunct

  bool found() const { return right_key != nullptr; }
};

/// The physical operator that runs a join-family node.
enum class JoinMethod { kNestedLoop, kHash, kIndex, kMembership };

/// "nested-loop", "hash", "index", "membership": the
/// evaluator's span label and the planner's plan label.
const char* JoinMethodName(JoinMethod m);

/// Everything the physical join operators need to know about one
/// join-family node, matched once. The executor dispatches on it, the
/// cost planner prices exactly what it offers, and the cardinality
/// estimator reads its keys — so the three cannot disagree about which
/// physical join applies.
struct JoinShape {
  EquiJoinKeys keys;
  /// A prebuilt index the right side can be probed through: non-null
  /// only for a base-table right side, one equi key, a plain-attribute
  /// right key y.a, and an index on that attribute.
  const HashIndex* index = nullptr;
  /// The first membership conjunct, matched independently of `keys`.
  MembershipKey membership;

  /// The operator the executor runs when `requested` is asked for:
  ///   kIndex      index, else hash, else membership, else nested loop
  ///   kHash       hash, else membership, else nested loop
  ///   kNestedLoop nested loop
  JoinMethod Dispatch(JoinAlgorithm requested) const;
};

/// Matches a join-family node (join, semijoin, antijoin, nestjoin).
/// `db` resolves the index; with a null `db` no index is reported.
JoinShape MatchJoin(const Expr& join, const Database* db);

/// A nestjoin whose inner function is its bare right variable, so each
/// group is the matching right rows themselves: the executor collects
/// them without running the inner.
bool IsIdentityInner(const Expr& nestjoin);

/// Hash key built from evaluated equi-key expressions. A single key
/// is returned bare — no tuple wrap — since join keys only ever meet
/// keys built the same way from the matching key list; composite keys
/// share one interned "k0","k1",... shape per arity.
Value JoinKeyFromParts(std::vector<Value> parts);

/// The interned "k0","k1",...,"k<n-1>" shape composite join keys use,
/// cached per arity. Exposed so the bytecode compiler can lower key
/// construction to the exact tuple JoinKeyFromParts would build.
const TupleShape* JoinKeyShape(size_t n);

}  // namespace n2j

#endif  // N2J_EXEC_EQUI_JOIN_H_
