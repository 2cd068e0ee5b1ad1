#ifndef N2J_ADL_TYPE_H_
#define N2J_ADL_TYPE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adl/value.h"

namespace n2j {

class Type;
using TypePtr = std::shared_ptr<const Type>;

/// One named attribute of a tuple type.
struct TypeField {
  std::string name;
  TypePtr type;
};

/// ADL types: the atoms bool/int/double/string/oid, class references
/// Ref(C) (implemented as oids at the value level, per Section 3 of the
/// paper), tuple types with named attributes, and set types.
///
/// Types are immutable and shared; structural equality via Equals().
class Type {
 public:
  enum class Kind : uint8_t {
    kAny,    // unknown/unconstrained (empty set literals, nulls)
    kBool,
    kInt,
    kDouble,
    kString,
    kOid,
    kRef,    // reference to a class; carries the class name
    kTuple,
    kSet,
  };

  static TypePtr Any();
  static TypePtr Bool();
  static TypePtr Int();
  static TypePtr Double();
  static TypePtr String();
  static TypePtr OidType();
  static TypePtr Ref(std::string class_name);
  static TypePtr Tuple(std::vector<TypeField> fields);
  static TypePtr Set(TypePtr element);

  Kind kind() const { return kind_; }
  bool is_any() const { return kind_ == Kind::kAny; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_oid() const { return kind_ == Kind::kOid; }
  bool is_ref() const { return kind_ == Kind::kRef; }
  bool is_tuple() const { return kind_ == Kind::kTuple; }
  bool is_set() const { return kind_ == Kind::kSet; }

  /// Referenced class name. Precondition: is_ref().
  const std::string& class_name() const { return class_name_; }

  /// Tuple attributes. Precondition: is_tuple().
  const std::vector<TypeField>& fields() const { return fields_; }
  /// Returns the attribute type or nullptr if absent.
  TypePtr FindField(std::string_view name) const;
  /// The schema function SCH: top-level attribute names of a tuple type.
  std::vector<std::string> FieldNames() const;

  /// Set element type. Precondition: is_set().
  const TypePtr& element() const { return element_; }

  /// Structural equality. Ref types compare by class name.
  bool Equals(const Type& other) const;

  /// "int", "{ (a : int, b : string) }", "Ref(Part)", ...
  std::string ToString() const;

  /// True if a value of this type can be compared (=, <) with one of
  /// `other`: equal types, or both numeric.
  bool ComparableWith(const Type& other) const;

 private:
  explicit Type(Kind kind) : kind_(kind) {}
  /// A new, empty type of `kind`.
  static std::shared_ptr<Type> New(Kind kind);

  Kind kind_;
  std::string class_name_;
  std::vector<TypeField> fields_;
  TypePtr element_;
};

/// Convenience: set-of-tuple type (the type of a base table).
TypePtr TableType(std::vector<TypeField> fields);

}  // namespace n2j

#endif  // N2J_ADL_TYPE_H_
