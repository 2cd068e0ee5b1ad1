#include "adl/type.h"

#include "common/str_util.h"

namespace n2j {

// Atom types are interned singletons; composite types allocate per call.
// Factories use `new` directly because the constructor is private.

TypePtr Type::Any() {
  static const TypePtr t = TypePtr(new Type(Kind::kAny));
  return t;
}
TypePtr Type::Bool() {
  static const TypePtr t = TypePtr(new Type(Kind::kBool));
  return t;
}
TypePtr Type::Int() {
  static const TypePtr t = TypePtr(new Type(Kind::kInt));
  return t;
}
TypePtr Type::Double() {
  static const TypePtr t = TypePtr(new Type(Kind::kDouble));
  return t;
}
TypePtr Type::String() {
  static const TypePtr t = TypePtr(new Type(Kind::kString));
  return t;
}
TypePtr Type::OidType() {
  static const TypePtr t = TypePtr(new Type(Kind::kOid));
  return t;
}

std::shared_ptr<Type> Type::New(Kind kind) {
  // One allocation for the type and its reference counts (see
  // Expr::New).
  struct Node : Type {
    explicit Node(Kind k) : Type(k) {}
  };
  return std::make_shared<Node>(kind);
}

TypePtr Type::Ref(std::string class_name) {
  std::shared_ptr<Type> t = New(Kind::kRef);
  t->class_name_ = std::move(class_name);
  return t;
}

TypePtr Type::Tuple(std::vector<TypeField> fields) {
  std::shared_ptr<Type> t = New(Kind::kTuple);
  t->fields_ = std::move(fields);
  return t;
}

TypePtr Type::Set(TypePtr element) {
  std::shared_ptr<Type> t = New(Kind::kSet);
  t->element_ = std::move(element);
  return t;
}

TypePtr Type::FindField(std::string_view name) const {
  for (const TypeField& f : fields_) {
    if (f.name == name) return f.type;
  }
  return nullptr;
}

std::vector<std::string> Type::FieldNames() const {
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const TypeField& f : fields_) out.push_back(f.name);
  return out;
}

bool Type::Equals(const Type& other) const {
  if (kind_ == Kind::kAny || other.kind_ == Kind::kAny) return true;
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kAny:
      return true;
    case Kind::kBool:
    case Kind::kInt:
    case Kind::kDouble:
    case Kind::kString:
    case Kind::kOid:
      return true;
    case Kind::kRef:
      return class_name_ == other.class_name_;
    case Kind::kTuple: {
      if (fields_.size() != other.fields_.size()) return false;
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (fields_[i].name != other.fields_[i].name) return false;
        if (!fields_[i].type->Equals(*other.fields_[i].type)) return false;
      }
      return true;
    }
    case Kind::kSet:
      return element_->Equals(*other.element_);
  }
  return false;
}

std::string Type::ToString() const {
  switch (kind_) {
    case Kind::kAny:
      return "any";
    case Kind::kBool:
      return "bool";
    case Kind::kInt:
      return "int";
    case Kind::kDouble:
      return "double";
    case Kind::kString:
      return "string";
    case Kind::kOid:
      return "oid";
    case Kind::kRef:
      return "Ref(" + class_name_ + ")";
    case Kind::kTuple: {
      std::vector<std::string> parts;
      parts.reserve(fields_.size());
      for (const TypeField& f : fields_) {
        parts.push_back(f.name + " : " + f.type->ToString());
      }
      return "(" + Join(parts, ", ") + ")";
    }
    case Kind::kSet:
      return "{ " + element_->ToString() + " }";
  }
  return "?";
}

bool Type::ComparableWith(const Type& other) const {
  if (is_any() || other.is_any()) return true;
  if (is_numeric() && other.is_numeric()) return true;
  // A reference is an oid at the value level; the paper's queries compare
  // oid-typed projections against Ref attributes (e.g. z = p[pid]).
  if ((is_ref() && other.is_oid()) || (is_oid() && other.is_ref())) {
    return true;
  }
  if (is_ref() && other.is_ref()) return true;
  // Composite values compare component-wise.
  if (is_tuple() && other.is_tuple()) {
    if (fields_.size() != other.fields_.size()) return false;
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i].name != other.fields_[i].name) return false;
      if (!fields_[i].type->ComparableWith(*other.fields_[i].type)) {
        return false;
      }
    }
    return true;
  }
  if (is_set() && other.is_set()) {
    return element_->ComparableWith(*other.element_);
  }
  return Equals(other);
}

TypePtr TableType(std::vector<TypeField> fields) {
  return Type::Set(Type::Tuple(std::move(fields)));
}

}  // namespace n2j
