#ifndef N2J_ADL_EXPR_H_
#define N2J_ADL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "adl/type.h"
#include "adl/value.h"

namespace n2j {

class Expr;
/// Expressions are immutable and shared: rewrites build new trees that
/// share unchanged subtrees with the original.
using ExprPtr = std::shared_ptr<const Expr>;

/// All ADL expression forms (Section 3 of the paper), plus the
/// quantifiers and scalar operators that may appear inside iterator
/// parameter expressions, plus the new operators of Section 6 (nestjoin,
/// deref/materialize).
enum class ExprKind : uint8_t {
  kConst,          // literal Value (includes uncorrelated-set constants)
  kVar,            // lambda variable reference
  kGetTable,       // base table (class extension)
  kLet,            // let v = e1 in e2  (used to hoist uncorrelated subqueries)
  kFieldAccess,    // e.a
  kTupleProject,   // e[a1, ..., an]       (tuple subscription)
  kTupleConstruct, // (a1 = e1, ..., an = en)
  kTupleConcat,    // e1 o e2
  kExcept,         // e except (a1 = e1, ...)
  kSetConstruct,   // {e1, ..., en}
  kDeref,          // dereference an oid to its object (materialize)
  kUnary,          // not e, -e
  kBinary,         // arithmetic / comparison / boolean / set operators
  kQuantifier,     // exists/forall v in range . pred
  kAggregate,      // count/sum/avg/min/max (e)
  kMap,            // α[x : body](input)
  kSelect,         // σ[x : pred](input)
  kProject,        // π_{a1,...,an}(input)
  kFlatten,        // ⋃(input)
  kNest,           // ν_{A → a}(input)
  kUnnest,         // μ_a(input)
  kProduct,        // e1 × e2
  kJoin,           // e1 ⋈_{x,y:p} e2
  kSemiJoin,       // e1 ⋉_{x,y:p} e2
  kAntiJoin,       // e1 ▷_{x,y:p} e2
  kNestJoin,       // e1 ⊣_{x,y:p ; f ; a} e2   (grouping during join)
  kDivide,         // e1 ÷ e2
  kUnion,          // e1 ∪ e2
  kIntersect,      // e1 ∩ e2
  kDifference,     // e1 − e2
};

/// Binary operators usable inside predicates and scalar expressions.
enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kIn,        // x ∈ S
  kContains,  // S ∋ x
  kSubset,    // S1 ⊂ S2 (proper)
  kSubsetEq,  // S1 ⊆ S2
  kSupset,    // S1 ⊃ S2 (proper)
  kSupsetEq,  // S1 ⊇ S2
  kUnionOp, kIntersectOp, kDifferenceOp,  // value-level set operators
};

enum class UnOp : uint8_t { kNot, kNeg, kIsEmpty };

enum class AggKind : uint8_t { kCount, kSum, kAvg, kMin, kMax };

enum class QuantKind : uint8_t { kExists, kForall };

const char* BinOpName(BinOp op);
const char* UnOpName(UnOp op);
const char* AggKindName(AggKind k);

/// True for =, <>, <, <=, >, >=.
bool IsComparisonOp(BinOp op);
/// True for ∈, ∋, ⊂, ⊆, ⊃, ⊇ (the operators of Table 1).
bool IsSetComparisonOp(BinOp op);

/// One ADL expression node. Children layout depends on kind(); use the
/// typed accessors below rather than indexing children() directly.
class Expr : public std::enable_shared_from_this<Expr> {
 public:
  // ---- Factories -------------------------------------------------------
  static ExprPtr Const(Value v);
  static ExprPtr Var(std::string name);
  static ExprPtr Table(std::string name);
  static ExprPtr Let(std::string var, ExprPtr def, ExprPtr body);
  static ExprPtr Access(ExprPtr e, std::string field);
  /// Chained field access e.a.b...
  static ExprPtr Path(ExprPtr e, const std::vector<std::string>& fields);
  static ExprPtr TupleProject(ExprPtr e, std::vector<std::string> names);
  static ExprPtr TupleConstruct(std::vector<std::string> names,
                                std::vector<ExprPtr> values);
  static ExprPtr TupleConcat(ExprPtr l, ExprPtr r);
  static ExprPtr ExceptOp(ExprPtr e, std::vector<std::string> names,
                          std::vector<ExprPtr> values);
  static ExprPtr SetConstruct(std::vector<ExprPtr> elements);
  /// class_name may be empty: the evaluator then resolves the class from
  /// the oid itself.
  static ExprPtr Deref(ExprPtr e, std::string class_name);
  static ExprPtr Un(UnOp op, ExprPtr e);
  static ExprPtr Bin(BinOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Quant(QuantKind q, std::string var, ExprPtr range,
                       ExprPtr pred);
  static ExprPtr Agg(AggKind k, ExprPtr e);
  static ExprPtr Map(std::string var, ExprPtr body, ExprPtr input);
  static ExprPtr Select(std::string var, ExprPtr pred, ExprPtr input);
  static ExprPtr Project(ExprPtr input, std::vector<std::string> names);
  static ExprPtr Flatten(ExprPtr input);
  /// ν_{A→a}: groups on SCH(input) − A; collects the A-projections of each
  /// group into the new set-valued attribute `a`.
  static ExprPtr Nest(ExprPtr input, std::vector<std::string> grouped_attrs,
                      std::string new_attr);
  static ExprPtr Unnest(ExprPtr input, std::string attr);
  static ExprPtr Product(ExprPtr l, ExprPtr r);
  static ExprPtr Join(ExprPtr l, ExprPtr r, std::string lvar,
                      std::string rvar, ExprPtr pred);
  static ExprPtr SemiJoin(ExprPtr l, ExprPtr r, std::string lvar,
                          std::string rvar, ExprPtr pred);
  static ExprPtr AntiJoin(ExprPtr l, ExprPtr r, std::string lvar,
                          std::string rvar, ExprPtr pred);
  /// Nestjoin e1 ⊣_{x,y : p ; f ; a} e2: each left tuple x is concatenated
  /// with (a = { f(y) | y ∈ e2, p(x,y) }). `inner` defaults to Var(rvar)
  /// (the simple nestjoin of Definition 1).
  static ExprPtr NestJoin(ExprPtr l, ExprPtr r, std::string lvar,
                          std::string rvar, ExprPtr pred,
                          std::string result_attr, ExprPtr inner = nullptr);
  static ExprPtr Divide(ExprPtr l, ExprPtr r);
  static ExprPtr Union(ExprPtr l, ExprPtr r);
  static ExprPtr Intersect(ExprPtr l, ExprPtr r);
  static ExprPtr Difference(ExprPtr l, ExprPtr r);

  // Boolean conveniences.
  static ExprPtr True() { return Const(Value::Bool(true)); }
  static ExprPtr False() { return Const(Value::Bool(false)); }
  static ExprPtr Not(ExprPtr e) { return Un(UnOp::kNot, std::move(e)); }
  static ExprPtr And(ExprPtr l, ExprPtr r) {
    return Bin(BinOp::kAnd, std::move(l), std::move(r));
  }
  static ExprPtr Or(ExprPtr l, ExprPtr r) {
    return Bin(BinOp::kOr, std::move(l), std::move(r));
  }
  static ExprPtr Eq(ExprPtr l, ExprPtr r) {
    return Bin(BinOp::kEq, std::move(l), std::move(r));
  }
  /// Conjunction of a list (empty list = true).
  static ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts);

  // ---- Accessors -------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const Value& const_value() const { return value_; }
  /// Variable / table / field / attribute name, depending on kind.
  const std::string& name() const { return name_; }
  /// Attribute lists (project fields, nest grouped attrs, tuple names).
  const std::vector<std::string>& names() const { return names_; }
  /// Bound lambda variable (map/select/quantifier/let, or left join var).
  const std::string& var() const { return var_; }
  /// Right join variable.
  const std::string& var2() const { return var2_; }
  BinOp bin_op() const { return bin_op_; }
  UnOp un_op() const { return un_op_; }
  AggKind agg_kind() const { return agg_; }
  QuantKind quant_kind() const { return quant_; }

  const std::vector<ExprPtr>& children() const { return children_; }
  size_t num_children() const { return children_.size(); }
  const ExprPtr& child(size_t i) const { return children_[i]; }

  // Typed child accessors (see the layout table in expr.cc).
  const ExprPtr& input() const;   // map/select/project/flatten/nest/unnest
  const ExprPtr& body() const;    // map body / select pred / quant pred
  const ExprPtr& left() const;    // binary set ops & joins
  const ExprPtr& right() const;
  const ExprPtr& pred() const;    // join predicate
  const ExprPtr& inner() const;   // nestjoin inner function body
  const ExprPtr& range() const;   // quantifier range

  /// Rebuilds this node with new children (same kind and scalars). Used by
  /// generic bottom-up rewriting.
  ExprPtr WithChildren(std::vector<ExprPtr> new_children) const;

  /// Structural equality (bound variable names compare literally).
  bool Equals(const Expr& other) const;

  /// Hash consistent with Equals: structurally equal trees hash equal.
  uint64_t StructuralHash() const;

  /// Number of nodes in this subtree.
  size_t TreeSize() const;

  /// True if `var` does not appear bound anywhere this expression would
  /// shadow it; see analysis.h for free-variable queries.
  bool BindsVariables() const {
    return !var_.empty() || !var2_.empty();
  }

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  /// A new, empty node of `kind`.
  static std::shared_ptr<Expr> New(ExprKind kind);

  ExprKind kind_;
  Value value_;
  std::string name_;
  std::vector<std::string> names_;
  std::string var_;
  std::string var2_;
  BinOp bin_op_ = BinOp::kEq;
  UnOp un_op_ = UnOp::kNot;
  AggKind agg_ = AggKind::kCount;
  QuantKind quant_ = QuantKind::kExists;
  std::vector<ExprPtr> children_;
};

}  // namespace n2j

#endif  // N2J_ADL_EXPR_H_
