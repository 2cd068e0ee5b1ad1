#ifndef N2J_ADL_SCHEMA_H_
#define N2J_ADL_SCHEMA_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adl/type.h"
#include "common/result.h"
#include "common/status.h"

namespace n2j {

/// One class definition of the OO schema (Section 2 of the paper):
///
///   Class Supplier with extension SUPPLIER
///     attributes sname : string, parts_supplied : { Part }
///   end Supplier
///
/// Per Section 3, logical design maps each class extension to a table of
/// complex objects with an added oid field; class references become
/// attributes of type Ref(C) (oid-valued pointers).
struct ClassDef {
  std::string name;        // "Supplier"
  std::string extent;      // "SUPPLIER"
  uint16_t class_id = 0;   // assigned by Schema::AddClass
  std::string oid_field;   // name of the added oid field, e.g. "eid"
  std::vector<TypeField> attributes;  // user attributes (no oid field)

  /// The ADL tuple type of one stored object: (oid_field : oid, attrs...).
  /// Built once by Schema::AddClass, which hands out registered classes
  /// only as const; null on a ClassDef that was never registered.
  const TypePtr& ObjectType() const { return object_type_; }
  /// The ADL type of the extent: a set of ObjectType().
  const TypePtr& ExtentType() const { return extent_type_; }

 private:
  friend class Schema;
  TypePtr object_type_;
  TypePtr extent_type_;
};

/// The database schema: a set of class definitions, searchable by class
/// name, extent name and class id.
class Schema {
 public:
  /// Registers a class; assigns it the next class id. Fails if the class
  /// name or extent name is already taken.
  Status AddClass(ClassDef def);

  const ClassDef* FindClass(const std::string& name) const;
  const ClassDef* FindClassByExtent(const std::string& extent) const;
  const ClassDef* FindClassById(uint16_t id) const;

  const std::vector<ClassDef>& classes() const { return classes_; }

  /// Human-readable schema dump (paper-style class declarations).
  std::string ToString() const;

 private:
  std::vector<ClassDef> classes_;
  std::map<std::string, size_t> by_name_;
  std::map<std::string, size_t> by_extent_;
};

/// Builds the paper's supplier–part–delivery schema of Section 2, with the
/// ADL types of Section 4:
///   SUPPLIER : { (eid : oid, sname : string, parts : { (pid : oid) }) }
///   PART     : { (pid : oid, pname : string, price : int, color : string) }
///   DELIVERY : { (did : oid, supplier : Ref(Supplier),
///                 supply : { (part : Ref(Part), quantity : int) },
///                 date : int) }
Schema MakeSupplierPartSchema();

}  // namespace n2j

#endif  // N2J_ADL_SCHEMA_H_
