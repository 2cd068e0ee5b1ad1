#ifndef N2J_FUZZ_QUERY_GEN_H_
#define N2J_FUZZ_QUERY_GEN_H_

#include <string>
#include <vector>

#include "adl/type.h"
#include "common/rng.h"
#include "storage/database.h"

namespace n2j {
namespace fuzz {

/// Knobs of the grammar-driven OOSQL generator.
struct GenOptions {
  int max_depth = 3;        // nesting budget for select blocks / predicates
  int max_ranges = 3;       // from-clause variables per select block
  double where_prob = 0.85;
  double with_prob = 0.12;  // chance of a `with`-bound local subquery
  double nested_body_prob = 0.3;  // select-clause nesting (set-valued body)
  double multi_range_prob = 0.35;
  /// Mutations applied per malformed query (1..n).
  int max_mutations = 3;
};

/// Generates random well-typed OOSQL query text over the plain tables of
/// `db` (typically AddRandomFuzzTables output, but any database whose
/// plain tables mix int / string / {(d : int)} columns works, including
/// the X/Y tables of AddRandomXY). Typing is guaranteed by construction:
/// the generator tracks the TypePtr of every range variable and only
/// emits field accesses and operators valid for those types. The grammar
/// deliberately covers everything the paper's rewrites fire on — nesting
/// in the select-, from- and where-clause, all six set comparators,
/// membership, quantifiers over tables and set-valued attributes,
/// aggregates, and the `with` construct. Deterministic in the seed.
class QueryGenerator {
 public:
  QueryGenerator(const Database& db, uint64_t seed,
                 GenOptions options = GenOptions());

  /// One random well-typed query. A front-end rejection of the result is
  /// a generator (or front-end) bug; tests assert it never happens.
  std::string Generate();

  /// A mutilated query for rejection testing: starts from Generate()
  /// output and applies random token/character mutations. The front end
  /// must reject it with a Status (or accept a still-valid mutant) —
  /// never crash.
  std::string GenerateMalformed();

 private:
  struct Binding {
    std::string name;
    TypePtr type;  // always a tuple type (range variables bind tuples)
  };
  using Scope = std::vector<Binding>;

  // Scope helpers. "DSet" is the canonical set-valued-attribute shape
  // { (d : int) } shared by all generated set columns.
  std::vector<std::string> FieldsOfKind(const TypePtr& tuple,
                                        Type::Kind kind) const;
  bool IsDSet(const TypePtr& t) const;
  std::string FreshVar();

  // Text builders. Each returns a parenthesized-where-needed fragment.
  std::string GenSelect(int depth, const Scope& scope);
  struct RangeChoice {
    std::string text;   // range expression text
    TypePtr element;    // element type bound to the range variable
  };
  RangeChoice GenRange(int depth, const Scope& scope);
  std::string GenBody(int depth, const Scope& scope);
  std::string GenPred(int depth, const Scope& scope);
  std::string GenInt(int depth, const Scope& scope);
  /// Expression of type { (d : int) }.
  std::string GenDSet(int depth, const Scope& scope);
  /// Expression of type { int }.
  std::string GenIntSet(int depth, const Scope& scope);
  /// Any set-typed expression (for count / isempty).
  std::string GenAnySet(int depth, const Scope& scope);

  /// Scope entries that have at least one field of the given kind.
  std::vector<int> VarsWithField(const Scope& scope, Type::Kind kind) const;

  const Database& db_;
  Rng rng_;
  GenOptions opts_;
  std::vector<std::string> tables_;
  int next_var_ = 0;
};

}  // namespace fuzz
}  // namespace n2j

#endif  // N2J_FUZZ_QUERY_GEN_H_
