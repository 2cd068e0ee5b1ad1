#include "adl/expr.h"

#include "common/status.h"
#include "common/str_util.h"

namespace n2j {

// Children layout by kind:
//   kConst / kVar / kGetTable        []
//   kLet                             [def, body]
//   kFieldAccess / kTupleProject     [e]
//   kTupleConstruct                  [v1, ..., vn]   (names_ aligned)
//   kTupleConcat                     [l, r]
//   kExcept                          [e, v1, ..., vn] (names_ aligned to v_i)
//   kSetConstruct                    [e1, ..., en]
//   kDeref / kUnary / kAggregate     [e]
//   kBinary                          [l, r]
//   kQuantifier                      [range, pred]
//   kMap / kSelect                   [input, body]
//   kProject / kFlatten / kNest / kUnnest  [input]
//   kProduct / kDivide / kUnion / kIntersect / kDifference  [l, r]
//   kJoin / kSemiJoin / kAntiJoin    [l, r, pred]
//   kNestJoin                        [l, r, pred, inner]

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kIn: return "in";
    case BinOp::kContains: return "contains";
    case BinOp::kSubset: return "subset";
    case BinOp::kSubsetEq: return "subseteq";
    case BinOp::kSupset: return "supset";
    case BinOp::kSupsetEq: return "supseteq";
    case BinOp::kUnionOp: return "union";
    case BinOp::kIntersectOp: return "intersect";
    case BinOp::kDifferenceOp: return "minus";
  }
  return "?";
}

const char* UnOpName(UnOp op) {
  switch (op) {
    case UnOp::kNot: return "not";
    case UnOp::kNeg: return "-";
    case UnOp::kIsEmpty: return "isempty";
  }
  return "?";
}

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kCount: return "count";
    case AggKind::kSum: return "sum";
    case AggKind::kAvg: return "avg";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
  }
  return "?";
}

bool IsComparisonOp(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsSetComparisonOp(BinOp op) {
  switch (op) {
    case BinOp::kIn:
    case BinOp::kContains:
    case BinOp::kSubset:
    case BinOp::kSubsetEq:
    case BinOp::kSupset:
    case BinOp::kSupsetEq:
      return true;
    default:
      return false;
  }
}

std::shared_ptr<Expr> Expr::New(ExprKind kind) {
  // One allocation for the node and its reference counts. The local
  // class may call the private constructor; std::make_shared may not.
  struct Node : Expr {
    explicit Node(ExprKind k) : Expr(k) {}
  };
  return std::make_shared<Node>(kind);
}

ExprPtr Expr::Const(Value v) {
  std::shared_ptr<Expr> e = New(ExprKind::kConst);
  e->value_ = std::move(v);
  return e;
}

ExprPtr Expr::Var(std::string name) {
  std::shared_ptr<Expr> e = New(ExprKind::kVar);
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Table(std::string name) {
  std::shared_ptr<Expr> e = New(ExprKind::kGetTable);
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Let(std::string var, ExprPtr def, ExprPtr body) {
  std::shared_ptr<Expr> e = New(ExprKind::kLet);
  e->var_ = std::move(var);
  e->children_ = {std::move(def), std::move(body)};
  return e;
}

ExprPtr Expr::Access(ExprPtr in, std::string field) {
  std::shared_ptr<Expr> e = New(ExprKind::kFieldAccess);
  e->name_ = std::move(field);
  e->children_ = {std::move(in)};
  return e;
}

ExprPtr Expr::Path(ExprPtr e, const std::vector<std::string>& fields) {
  for (const std::string& f : fields) e = Access(std::move(e), f);
  return e;
}

ExprPtr Expr::TupleProject(ExprPtr in, std::vector<std::string> names) {
  std::shared_ptr<Expr> e = New(ExprKind::kTupleProject);
  e->names_ = std::move(names);
  e->children_ = {std::move(in)};
  return e;
}

ExprPtr Expr::TupleConstruct(std::vector<std::string> names,
                             std::vector<ExprPtr> values) {
  N2J_CHECK(names.size() == values.size());
  std::shared_ptr<Expr> e = New(ExprKind::kTupleConstruct);
  e->names_ = std::move(names);
  e->children_ = std::move(values);
  return e;
}

ExprPtr Expr::TupleConcat(ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = New(ExprKind::kTupleConcat);
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::ExceptOp(ExprPtr in, std::vector<std::string> names,
                       std::vector<ExprPtr> values) {
  N2J_CHECK(names.size() == values.size());
  std::shared_ptr<Expr> e = New(ExprKind::kExcept);
  e->names_ = std::move(names);
  e->children_.push_back(std::move(in));
  for (ExprPtr& v : values) e->children_.push_back(std::move(v));
  return e;
}

ExprPtr Expr::SetConstruct(std::vector<ExprPtr> elements) {
  std::shared_ptr<Expr> e = New(ExprKind::kSetConstruct);
  e->children_ = std::move(elements);
  return e;
}

ExprPtr Expr::Deref(ExprPtr in, std::string class_name) {
  std::shared_ptr<Expr> e = New(ExprKind::kDeref);
  e->name_ = std::move(class_name);
  e->children_ = {std::move(in)};
  return e;
}

ExprPtr Expr::Un(UnOp op, ExprPtr in) {
  std::shared_ptr<Expr> e = New(ExprKind::kUnary);
  e->un_op_ = op;
  e->children_ = {std::move(in)};
  return e;
}

ExprPtr Expr::Bin(BinOp op, ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = New(ExprKind::kBinary);
  e->bin_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Quant(QuantKind q, std::string var, ExprPtr range,
                    ExprPtr pred) {
  std::shared_ptr<Expr> e = New(ExprKind::kQuantifier);
  e->quant_ = q;
  e->var_ = std::move(var);
  e->children_ = {std::move(range), std::move(pred)};
  return e;
}

ExprPtr Expr::Agg(AggKind k, ExprPtr in) {
  std::shared_ptr<Expr> e = New(ExprKind::kAggregate);
  e->agg_ = k;
  e->children_ = {std::move(in)};
  return e;
}

ExprPtr Expr::Map(std::string var, ExprPtr body, ExprPtr input) {
  std::shared_ptr<Expr> e = New(ExprKind::kMap);
  e->var_ = std::move(var);
  e->children_ = {std::move(input), std::move(body)};
  return e;
}

ExprPtr Expr::Select(std::string var, ExprPtr pred, ExprPtr input) {
  std::shared_ptr<Expr> e = New(ExprKind::kSelect);
  e->var_ = std::move(var);
  e->children_ = {std::move(input), std::move(pred)};
  return e;
}

ExprPtr Expr::Project(ExprPtr input, std::vector<std::string> names) {
  std::shared_ptr<Expr> e = New(ExprKind::kProject);
  e->names_ = std::move(names);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::Flatten(ExprPtr input) {
  std::shared_ptr<Expr> e = New(ExprKind::kFlatten);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::Nest(ExprPtr input, std::vector<std::string> grouped_attrs,
                   std::string new_attr) {
  std::shared_ptr<Expr> e = New(ExprKind::kNest);
  e->names_ = std::move(grouped_attrs);
  e->name_ = std::move(new_attr);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::Unnest(ExprPtr input, std::string attr) {
  std::shared_ptr<Expr> e = New(ExprKind::kUnnest);
  e->name_ = std::move(attr);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::Product(ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = New(ExprKind::kProduct);
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Join(ExprPtr l, ExprPtr r, std::string lvar, std::string rvar,
                   ExprPtr pred) {
  std::shared_ptr<Expr> e = New(ExprKind::kJoin);
  e->var_ = std::move(lvar);
  e->var2_ = std::move(rvar);
  e->children_ = {std::move(l), std::move(r), std::move(pred)};
  return e;
}

ExprPtr Expr::SemiJoin(ExprPtr l, ExprPtr r, std::string lvar,
                       std::string rvar, ExprPtr pred) {
  std::shared_ptr<Expr> e = New(ExprKind::kSemiJoin);
  e->var_ = std::move(lvar);
  e->var2_ = std::move(rvar);
  e->children_ = {std::move(l), std::move(r), std::move(pred)};
  return e;
}

ExprPtr Expr::AntiJoin(ExprPtr l, ExprPtr r, std::string lvar,
                       std::string rvar, ExprPtr pred) {
  std::shared_ptr<Expr> e = New(ExprKind::kAntiJoin);
  e->var_ = std::move(lvar);
  e->var2_ = std::move(rvar);
  e->children_ = {std::move(l), std::move(r), std::move(pred)};
  return e;
}

ExprPtr Expr::NestJoin(ExprPtr l, ExprPtr r, std::string lvar,
                       std::string rvar, ExprPtr pred,
                       std::string result_attr, ExprPtr inner) {
  std::shared_ptr<Expr> e = New(ExprKind::kNestJoin);
  e->var_ = lvar;
  e->var2_ = rvar;
  e->name_ = std::move(result_attr);
  if (inner == nullptr) inner = Expr::Var(rvar);
  e->children_ = {std::move(l), std::move(r), std::move(pred),
                  std::move(inner)};
  return e;
}

ExprPtr Expr::Divide(ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = New(ExprKind::kDivide);
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Union(ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = New(ExprKind::kUnion);
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Intersect(ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = New(ExprKind::kIntersect);
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Difference(ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = New(ExprKind::kDifference);
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::AndAll(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return True();
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = And(acc, conjuncts[i]);
  }
  return acc;
}

const ExprPtr& Expr::input() const {
  switch (kind_) {
    case ExprKind::kMap:
    case ExprKind::kSelect:
    case ExprKind::kProject:
    case ExprKind::kFlatten:
    case ExprKind::kNest:
    case ExprKind::kUnnest:
      return children_[0];
    default:
      N2J_CHECK(false);
      return children_[0];
  }
}

const ExprPtr& Expr::body() const {
  switch (kind_) {
    case ExprKind::kMap:
    case ExprKind::kSelect:
    case ExprKind::kQuantifier:
      return children_[1];
    case ExprKind::kLet:
      return children_[1];
    default:
      N2J_CHECK(false);
      return children_[0];
  }
}

const ExprPtr& Expr::left() const { return children_[0]; }
const ExprPtr& Expr::right() const { return children_[1]; }

const ExprPtr& Expr::pred() const {
  switch (kind_) {
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
      return children_[2];
    default:
      N2J_CHECK(false);
      return children_[0];
  }
}

const ExprPtr& Expr::inner() const {
  N2J_CHECK(kind_ == ExprKind::kNestJoin);
  return children_[3];
}

const ExprPtr& Expr::range() const {
  N2J_CHECK(kind_ == ExprKind::kQuantifier);
  return children_[0];
}

ExprPtr Expr::WithChildren(std::vector<ExprPtr> new_children) const {
  N2J_CHECK(new_children.size() == children_.size());
  std::shared_ptr<Expr> e = New(kind_);
  e->value_ = value_;
  e->name_ = name_;
  e->names_ = names_;
  e->var_ = var_;
  e->var2_ = var2_;
  e->bin_op_ = bin_op_;
  e->un_op_ = un_op_;
  e->agg_ = agg_;
  e->quant_ = quant_;
  e->children_ = std::move(new_children);
  return e;
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  if (name_ != other.name_ || names_ != other.names_ || var_ != other.var_ ||
      var2_ != other.var2_) {
    return false;
  }
  if (kind_ == ExprKind::kConst && value_ != other.value_) return false;
  if (kind_ == ExprKind::kBinary && bin_op_ != other.bin_op_) return false;
  if (kind_ == ExprKind::kUnary && un_op_ != other.un_op_) return false;
  if (kind_ == ExprKind::kAggregate && agg_ != other.agg_) return false;
  if (kind_ == ExprKind::kQuantifier && quant_ != other.quant_) return false;
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

uint64_t Expr::StructuralHash() const {
  auto text = [](const std::string& s) { return Fnv1a(s.data(), s.size()); };
  uint64_t h = HashCombine(static_cast<uint64_t>(kind_), text(name_));
  for (const std::string& n : names_) h = HashCombine(h, text(n));
  h = HashCombine(HashCombine(h, text(var_)), text(var2_));
  switch (kind_) {
    case ExprKind::kConst:
      h = HashCombine(h, value_.Hash());
      break;
    case ExprKind::kBinary:
      h = HashCombine(h, static_cast<uint64_t>(bin_op_));
      break;
    case ExprKind::kUnary:
      h = HashCombine(h, static_cast<uint64_t>(un_op_));
      break;
    case ExprKind::kAggregate:
      h = HashCombine(h, static_cast<uint64_t>(agg_));
      break;
    case ExprKind::kQuantifier:
      h = HashCombine(h, static_cast<uint64_t>(quant_));
      break;
    default:
      break;
  }
  for (const ExprPtr& c : children_) h = HashCombine(h, c->StructuralHash());
  return h;
}

size_t Expr::TreeSize() const {
  size_t n = 1;
  for (const ExprPtr& c : children_) n += c->TreeSize();
  return n;
}

}  // namespace n2j
