#include "adl/schema.h"

#include "common/str_util.h"

namespace n2j {

Status Schema::AddClass(ClassDef def) {
  if (by_name_.count(def.name) > 0) {
    return Status::InvalidArgument("duplicate class name: " + def.name);
  }
  if (by_extent_.count(def.extent) > 0) {
    return Status::InvalidArgument("duplicate extent name: " + def.extent);
  }
  def.class_id = static_cast<uint16_t>(classes_.size() + 1);
  std::vector<TypeField> fields;
  fields.reserve(def.attributes.size() + 1);
  fields.push_back({def.oid_field, Type::OidType()});
  for (const TypeField& a : def.attributes) fields.push_back(a);
  def.object_type_ = Type::Tuple(std::move(fields));
  def.extent_type_ = Type::Set(def.object_type_);
  by_name_[def.name] = classes_.size();
  by_extent_[def.extent] = classes_.size();
  classes_.push_back(std::move(def));
  return Status::OK();
}

const ClassDef* Schema::FindClass(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &classes_[it->second];
}

const ClassDef* Schema::FindClassByExtent(const std::string& extent) const {
  auto it = by_extent_.find(extent);
  return it == by_extent_.end() ? nullptr : &classes_[it->second];
}

const ClassDef* Schema::FindClassById(uint16_t id) const {
  if (id == 0 || id > classes_.size()) return nullptr;
  return &classes_[id - 1];
}

std::string Schema::ToString() const {
  // Printed in the paper's declaration syntax, extended with the `oid
  // <field>` clause, so the output parses back through
  // Parser::ParseSchemaString (round-trip property).
  std::string out;
  for (const ClassDef& c : classes_) {
    out += "class " + c.name + " with extension " + c.extent + " oid " +
           c.oid_field + "\n";
    out += "  attributes\n";
    std::vector<std::string> attrs;
    for (const TypeField& a : c.attributes) {
      attrs.push_back("    " + a.name + " : " + a.type->ToString());
    }
    out += Join(attrs, ",\n");
    out += "\nend " + c.name + "\n";
  }
  return out;
}

Schema MakeSupplierPartSchema() {
  Schema schema;
  ClassDef part;
  part.name = "Part";
  part.extent = "PART";
  part.oid_field = "pid";
  part.attributes = {
      {"pname", Type::String()},
      {"price", Type::Int()},
      {"color", Type::String()},
  };
  N2J_CHECK(schema.AddClass(std::move(part)).ok());

  ClassDef supplier;
  supplier.name = "Supplier";
  supplier.extent = "SUPPLIER";
  supplier.oid_field = "eid";
  supplier.attributes = {
      {"sname", Type::String()},
      // Per Section 4: parts : { (pid : oid) } — a set of unary tuples
      // holding pointers to Part objects.
      {"parts", Type::Set(Type::Tuple({{"pid", Type::Ref("Part")}}))},
  };
  N2J_CHECK(schema.AddClass(std::move(supplier)).ok());

  ClassDef delivery;
  delivery.name = "Delivery";
  delivery.extent = "DELIVERY";
  delivery.oid_field = "did";
  delivery.attributes = {
      {"supplier", Type::Ref("Supplier")},
      {"supply", Type::Set(Type::Tuple({{"part", Type::Ref("Part")},
                                        {"quantity", Type::Int()}}))},
      {"date", Type::Int()},
  };
  N2J_CHECK(schema.AddClass(std::move(delivery)).ok());
  return schema;
}

}  // namespace n2j
