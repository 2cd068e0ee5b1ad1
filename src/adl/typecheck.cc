#include "adl/typecheck.h"

#include "adl/printer.h"

namespace n2j {

namespace {

// The leading children of `e` that are typed outside its binders; the
// binders scope over the rest (a let's body, an iterator's or
// quantifier's function or predicate, a join's predicate and nestjoin
// function).
size_t NumUnboundChildren(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLet:
    case ExprKind::kQuantifier:
    case ExprKind::kMap:
    case ExprKind::kSelect:
      return 1;
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
      return 2;
    default:
      return e.num_children();
  }
}

bool IsSetOrAny(const TypePtr& t) { return t->is_set() || t->is_any(); }

// The join family's predicate p(x, y) — a ⋈, ⋉, ▷ or ⊣ node's third
// child — must be boolean or of unknown type.
Status CheckJoinPredicate(const TypePtr& pred) {
  if (pred->is_bool() || pred->is_any()) return Status::OK();
  return Status::TypeError("join predicate must be boolean, got " +
                           pred->ToString());
}

}  // namespace

TypePtr TypeOfValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return Type::Any();
    case Value::Kind::kBool:
      return Type::Bool();
    case Value::Kind::kInt:
      return Type::Int();
    case Value::Kind::kDouble:
      return Type::Double();
    case Value::Kind::kString:
      return Type::String();
    case Value::Kind::kOid:
      return Type::OidType();
    case Value::Kind::kTuple: {
      std::vector<TypeField> fields;
      fields.reserve(v.tuple_size());
      for (size_t i = 0; i < v.tuple_size(); ++i) {
        fields.push_back({v.field_name(i), TypeOfValue(v.field_value(i))});
      }
      return Type::Tuple(std::move(fields));
    }
    case Value::Kind::kSet: {
      if (v.set_size() == 0) return Type::Set(Type::Any());
      return Type::Set(TypeOfValue(v.elements()[0]));
    }
  }
  return Type::Any();
}

Result<std::vector<std::string>> TypeChecker::SchemaOf(const ExprPtr& e,
                                                       TypeEnv& env) {
  N2J_ASSIGN_OR_RETURN(TypePtr t, Infer(e, env));
  if (!t->is_set() || !t->element()->is_tuple()) {
    return TypeError("SCH on non-table expression of type " + t->ToString() +
                     ": " + AlgebraStr(e));
  }
  return t->element()->FieldNames();
}

Result<TypePtr> TypeChecker::Infer(const ExprPtr& ep, TypeEnv& env) {
  const Expr& e = *ep;
  const size_t n = e.num_children();
  if (n == 0) return Rule(e, {}, env);
  const size_t unbound = NumUnboundChildren(e);
  const size_t depth = env.size();
  // Every fixed-arity node fits inline; only constructors and excepts
  // with more than four children put their child types on the heap.
  TypePtr inline_kids[4];
  std::vector<TypePtr> wide_kids(n > 4 ? n : 0);
  TypePtr* kids = n > 4 ? wide_kids.data() : inline_kids;
  for (size_t i = 0; i < n; ++i) {
    if (i == unbound) {
      if (e.kind() == ExprKind::kLet) {
        env.Push(e.var(), kids[0]);
      } else {
        env.Push(e.var(), BinderType(kids[0]));
        if (unbound == 2) env.Push(e.var2(), BinderType(kids[1]));
      }
    }
    Result<TypePtr> t = Infer(e.child(i), env);
    if (!t.ok()) {
      env.Truncate(depth);
      return t.status();
    }
    kids[i] = std::move(t).value();
  }
  env.Truncate(depth);
  return Rule(e, {kids, n}, env);
}

Result<TypePtr> TypeChecker::Rule(const Expr& e,
                                  std::span<const TypePtr> kids,
                                  const TypeEnv& env) const {
  switch (e.kind()) {
    case ExprKind::kConst:
      return TypeOfValue(e.const_value());

    case ExprKind::kVar: {
      const TypePtr* t = env.Lookup(e.name());
      if (t == nullptr) return TypeError("unbound variable " + e.name());
      return *t;
    }

    case ExprKind::kGetTable: {
      if (const ClassDef* cls = schema_.FindClassByExtent(e.name())) {
        return cls->ExtentType();
      }
      if (db_ != nullptr) {
        if (const Table* t = db_->FindTable(e.name())) {
          return Type::Set(t->row_type());
        }
      }
      return TypeError("unknown table " + e.name());
    }

    case ExprKind::kLet:
      return kids[1];

    case ExprKind::kFieldAccess: {
      TypePtr base = kids[0];
      if (base->is_ref()) {
        const ClassDef* cls = schema_.FindClass(base->class_name());
        if (cls == nullptr) {
          return TypeError("reference to unknown class " +
                           base->class_name());
        }
        base = cls->ObjectType();
      }
      if (base->is_any()) return Type::Any();
      if (!base->is_tuple()) {
        return TypeError("field access '." + e.name() + "' on " +
                         base->ToString());
      }
      TypePtr ft = base->FindField(e.name());
      if (ft == nullptr) {
        return TypeError("no attribute '" + e.name() + "' in " +
                         base->ToString());
      }
      return ft;
    }

    case ExprKind::kTupleProject: {
      const TypePtr& base = kids[0];
      if (base->is_any()) return Type::Any();
      if (!base->is_tuple()) {
        return TypeError("tuple projection on " + base->ToString());
      }
      std::vector<TypeField> fields;
      fields.reserve(e.names().size());
      for (const std::string& n : e.names()) {
        TypePtr ft = base->FindField(n);
        if (ft == nullptr) {
          return TypeError("no attribute '" + n + "' in " +
                           base->ToString());
        }
        fields.push_back({n, ft});
      }
      return Type::Tuple(std::move(fields));
    }

    case ExprKind::kTupleConstruct: {
      const std::vector<std::string>& names = e.names();
      std::vector<TypeField> fields;
      fields.reserve(names.size());
      for (size_t i = 0; i < names.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
          if (names[i] == names[j]) {
            return TypeError("duplicate tuple field '" + names[i] + "'");
          }
        }
        fields.push_back({names[i], kids[i]});
      }
      return Type::Tuple(std::move(fields));
    }

    case ExprKind::kTupleConcat: {
      const TypePtr& l = kids[0];
      const TypePtr& r = kids[1];
      if (l->is_any() || r->is_any()) return Type::Any();
      if (!l->is_tuple() || !r->is_tuple()) {
        return TypeError("tuple concatenation on non-tuples");
      }
      std::vector<TypeField> fields = l->fields();
      for (const TypeField& f : r->fields()) {
        if (l->FindField(f.name) != nullptr) {
          return TypeError("attribute conflict in concatenation: " + f.name);
        }
        fields.push_back(f);
      }
      return Type::Tuple(std::move(fields));
    }

    case ExprKind::kExcept: {
      const TypePtr& base = kids[0];
      if (base->is_any()) return Type::Any();
      if (!base->is_tuple()) return TypeError("except on non-tuple");
      std::vector<TypeField> fields = base->fields();
      for (size_t i = 0; i < e.names().size(); ++i) {
        const TypePtr& t = kids[i + 1];
        bool found = false;
        for (TypeField& f : fields) {
          if (f.name == e.names()[i]) {
            f.type = t;
            found = true;
            break;
          }
        }
        if (!found) fields.push_back({e.names()[i], t});
      }
      return Type::Tuple(std::move(fields));
    }

    case ExprKind::kSetConstruct: {
      TypePtr elem = Type::Any();
      for (const TypePtr& t : kids) {
        if (elem->is_any()) {
          elem = t;
        } else if (!elem->Equals(*t)) {
          return TypeError("mixed element types in set literal: " +
                           elem->ToString() + " vs " + t->ToString());
        }
      }
      return Type::Set(elem);
    }

    case ExprKind::kDeref: {
      const TypePtr& t = kids[0];
      std::string cls_name = e.name();
      if (cls_name.empty() && t->is_ref()) cls_name = t->class_name();
      if (cls_name.empty()) {
        return TypeError("deref with unknown target class");
      }
      const ClassDef* cls = schema_.FindClass(cls_name);
      if (cls == nullptr) return TypeError("unknown class " + cls_name);
      if (!t->is_ref() && !t->is_oid() && !t->is_any()) {
        return TypeError("deref of non-reference " + t->ToString());
      }
      return cls->ObjectType();
    }

    case ExprKind::kUnary: {
      const TypePtr& t = kids[0];
      switch (e.un_op()) {
        case UnOp::kNot:
          if (!t->is_bool() && !t->is_any()) {
            return TypeError("'not' on " + t->ToString());
          }
          return Type::Bool();
        case UnOp::kNeg:
          if (!t->is_numeric() && !t->is_any()) {
            return TypeError("negation of " + t->ToString());
          }
          return t;
        case UnOp::kIsEmpty:
          if (!IsSetOrAny(t)) {
            return TypeError("isempty on " + t->ToString());
          }
          return Type::Bool();
      }
      return TypeError("bad unary op");
    }

    case ExprKind::kBinary: {
      const TypePtr& l = kids[0];
      const TypePtr& r = kids[1];
      auto not_applicable = [&](const char* what) {
        return TypeError(std::string(what) + " not applicable to " +
                         l->ToString() + " and " + r->ToString());
      };
      switch (e.bin_op()) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod:
          if ((!l->is_numeric() && !l->is_any()) ||
              (!r->is_numeric() && !r->is_any())) {
            return not_applicable("arithmetic");
          }
          return (l->is_double() || r->is_double()) ? Type::Double()
                                                    : Type::Int();
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
          if (!l->ComparableWith(*r)) return not_applicable("comparison");
          return Type::Bool();
        case BinOp::kIn:
          if (!IsSetOrAny(r) ||
              (r->is_set() && !l->ComparableWith(*r->element()))) {
            return not_applicable("'in'");
          }
          return Type::Bool();
        case BinOp::kContains:
          if (!IsSetOrAny(l) ||
              (l->is_set() && !r->ComparableWith(*l->element()))) {
            return not_applicable("'contains'");
          }
          return Type::Bool();
        case BinOp::kSubset:
        case BinOp::kSubsetEq:
        case BinOp::kSupset:
        case BinOp::kSupsetEq:
          if (!IsSetOrAny(l) || !IsSetOrAny(r) ||
              (l->is_set() && r->is_set() &&
               !l->element()->ComparableWith(*r->element()))) {
            return not_applicable("set comparison");
          }
          return Type::Bool();
        case BinOp::kAnd:
        case BinOp::kOr:
          if ((!l->is_bool() && !l->is_any()) ||
              (!r->is_bool() && !r->is_any())) {
            return not_applicable("boolean connective");
          }
          return Type::Bool();
        case BinOp::kUnionOp:
        case BinOp::kIntersectOp:
        case BinOp::kDifferenceOp:
          if (!IsSetOrAny(l) || !IsSetOrAny(r)) {
            return not_applicable("set operator");
          }
          return l->is_set() ? l : r;
      }
      return TypeError("bad binary op");
    }

    case ExprKind::kQuantifier:
      if (!IsSetOrAny(kids[0])) {
        return TypeError("quantifier range must be a set, got " +
                         kids[0]->ToString());
      }
      if (!kids[1]->is_bool() && !kids[1]->is_any()) {
        return TypeError("quantifier predicate must be boolean, got " +
                         kids[1]->ToString());
      }
      return Type::Bool();

    case ExprKind::kAggregate: {
      const TypePtr& t = kids[0];
      if (!IsSetOrAny(t)) {
        return TypeError(std::string(AggKindName(e.agg_kind())) +
                         " over " + t->ToString());
      }
      TypePtr elem = BinderType(t);
      switch (e.agg_kind()) {
        case AggKind::kCount:
          return Type::Int();
        case AggKind::kAvg:
        case AggKind::kSum:
          if (!elem->is_numeric() && !elem->is_any()) {
            return TypeError(std::string(AggKindName(e.agg_kind())) +
                             " over non-numeric " + t->ToString());
          }
          return e.agg_kind() == AggKind::kAvg ? Type::Double() : elem;
        case AggKind::kMin:
        case AggKind::kMax:
          return elem;
      }
      return TypeError("bad aggregate");
    }

    case ExprKind::kMap:
      if (!IsSetOrAny(kids[0])) {
        return TypeError("'" + e.var() + "' ranges over " +
                         kids[0]->ToString() + ", not a set");
      }
      return Type::Set(kids[1]);

    case ExprKind::kSelect:
      if (!IsSetOrAny(kids[0])) {
        return TypeError("'" + e.var() + "' ranges over " +
                         kids[0]->ToString() + ", not a set");
      }
      if (!kids[1]->is_bool() && !kids[1]->is_any()) {
        return TypeError("selection predicate must be boolean, got " +
                         kids[1]->ToString());
      }
      return kids[0];

    case ExprKind::kProject: {
      const TypePtr& in = kids[0];
      if (in->is_any()) return Type::Any();
      // A set of unknown element type (the empty set constant a rewrite
      // may fold a subplan to) projects to a set of unknown element type.
      if (in->is_set() && in->element()->is_any()) {
        return Type::Set(Type::Any());
      }
      if (!in->is_set() || !in->element()->is_tuple()) {
        return TypeError("project over " + in->ToString());
      }
      std::vector<TypeField> fields;
      for (const std::string& n : e.names()) {
        TypePtr ft = in->element()->FindField(n);
        if (ft == nullptr) {
          return TypeError("no attribute '" + n + "' to project");
        }
        fields.push_back({n, ft});
      }
      return Type::Set(Type::Tuple(std::move(fields)));
    }

    case ExprKind::kFlatten: {
      const TypePtr& in = kids[0];
      if (in->is_any()) return Type::Any();
      if (!in->is_set() || !IsSetOrAny(in->element())) {
        return TypeError("flatten over " + in->ToString());
      }
      return in->element()->is_set() ? in->element()
                                     : Type::Set(Type::Any());
    }

    case ExprKind::kNest: {
      const TypePtr& in = kids[0];
      if (in->is_any() || (in->is_set() && in->element()->is_any())) {
        return Type::Set(Type::Any());
      }
      if (!in->is_set() || !in->element()->is_tuple()) {
        return TypeError("nest over " + in->ToString());
      }
      std::vector<TypeField> grouped;
      std::vector<TypeField> rest;
      for (const TypeField& f : in->element()->fields()) {
        bool is_grouped = false;
        for (const std::string& g : e.names()) {
          if (f.name == g) {
            is_grouped = true;
            break;
          }
        }
        (is_grouped ? grouped : rest).push_back(f);
      }
      if (grouped.size() != e.names().size()) {
        return TypeError("nest: missing grouped attribute");
      }
      rest.push_back({e.name(), Type::Set(Type::Tuple(std::move(grouped)))});
      return Type::Set(Type::Tuple(std::move(rest)));
    }

    case ExprKind::kUnnest: {
      const TypePtr& in = kids[0];
      if (in->is_any() || (in->is_set() && in->element()->is_any())) {
        return Type::Set(Type::Any());
      }
      if (!in->is_set() || !in->element()->is_tuple()) {
        return TypeError("unnest over " + in->ToString());
      }
      TypePtr attr = in->element()->FindField(e.name());
      if (attr == nullptr) {
        return TypeError("unnest: no attribute '" + e.name() + "'");
      }
      if (attr->is_any() || (attr->is_set() && attr->element()->is_any())) {
        return Type::Set(Type::Any());
      }
      if (!attr->is_set() || !attr->element()->is_tuple()) {
        return TypeError("unnest: attribute '" + e.name() +
                         "' is not a set of tuples");
      }
      std::vector<TypeField> fields = attr->element()->fields();
      for (const TypeField& f : in->element()->fields()) {
        if (f.name == e.name()) continue;
        fields.push_back(f);
      }
      return Type::Set(Type::Tuple(std::move(fields)));
    }

    case ExprKind::kProduct:
    case ExprKind::kJoin: {
      const TypePtr& l = kids[0];
      const TypePtr& r = kids[1];
      TypePtr lelem = BinderType(l);
      TypePtr relem = BinderType(r);
      if (!IsSetOrAny(l) || !IsSetOrAny(r) ||
          (!lelem->is_any() && !lelem->is_tuple()) ||
          (!relem->is_any() && !relem->is_tuple())) {
        return TypeError("product/join over non-tables");
      }
      if (e.kind() == ExprKind::kJoin) {
        N2J_RETURN_IF_ERROR(CheckJoinPredicate(kids[2]));
      }
      if (lelem->is_any() || relem->is_any()) {
        return Type::Set(Type::Any());
      }
      std::vector<TypeField> fields = lelem->fields();
      for (const TypeField& f : relem->fields()) {
        if (lelem->FindField(f.name) != nullptr) {
          return TypeError("attribute conflict in join: " + f.name);
        }
        fields.push_back(f);
      }
      return Type::Set(Type::Tuple(std::move(fields)));
    }

    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
      if (!IsSetOrAny(kids[0]) || !IsSetOrAny(kids[1])) {
        return TypeError("semijoin/antijoin over non-sets");
      }
      N2J_RETURN_IF_ERROR(CheckJoinPredicate(kids[2]));
      return kids[0]->is_any() ? Type::Set(Type::Any()) : kids[0];

    case ExprKind::kNestJoin: {
      const TypePtr& l = kids[0];
      TypePtr lelem = BinderType(l);
      if (!IsSetOrAny(l) || !IsSetOrAny(kids[1]) ||
          (!lelem->is_tuple() && !lelem->is_any())) {
        return TypeError("nestjoin over non-tables");
      }
      N2J_RETURN_IF_ERROR(CheckJoinPredicate(kids[2]));
      if (lelem->is_any()) return Type::Set(Type::Any());
      if (lelem->FindField(e.name()) != nullptr) {
        return TypeError("nestjoin attribute conflict: " + e.name());
      }
      std::vector<TypeField> fields = lelem->fields();
      fields.push_back({e.name(), Type::Set(kids[3])});
      return Type::Set(Type::Tuple(std::move(fields)));
    }

    case ExprKind::kDivide: {
      const TypePtr& l = kids[0];
      const TypePtr& r = kids[1];
      if (l->is_any() || r->is_any() ||
          (l->is_set() && l->element()->is_any()) ||
          (r->is_set() && r->element()->is_any())) {
        return Type::Set(Type::Any());
      }
      if (!l->is_set() || !r->is_set() || !l->element()->is_tuple() ||
          !r->element()->is_tuple()) {
        return TypeError("division over non-tables");
      }
      std::vector<TypeField> fields;
      for (const TypeField& f : l->element()->fields()) {
        if (r->element()->FindField(f.name) == nullptr) {
          fields.push_back(f);
        }
      }
      return Type::Set(Type::Tuple(std::move(fields)));
    }

    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference: {
      const TypePtr& l = kids[0];
      const TypePtr& r = kids[1];
      if (!l->is_set() || !r->is_set()) {
        return TypeError("set operation over non-sets");
      }
      if (!l->Equals(*r)) {
        return TypeError("set operation on mismatched types " +
                         l->ToString() + " vs " + r->ToString());
      }
      return l->element()->is_any() ? r : l;
    }
  }
  return TypeError("unhandled expression kind");
}

}  // namespace n2j
