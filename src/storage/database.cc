#include "storage/database.h"

#include <algorithm>

#include "stats/stats.h"
#include "storage/columnar.h"

namespace n2j {

// Out of line because StatsCatalog/ColumnarCatalog are incomplete in the
// header. Both catalogs are constructed eagerly (empty and cheap) so
// stats()/columnar() are safe to call from any thread without lazy-init
// synchronization.
Database::Database()
    : stats_(std::make_unique<StatsCatalog>()),
      columnar_(std::make_unique<ColumnarCatalog>()) {}

Database::Database(Schema schema)
    : schema_(std::move(schema)),
      stats_(std::make_unique<StatsCatalog>()),
      columnar_(std::make_unique<ColumnarCatalog>()) {
  for (const ClassDef& c : schema_.classes()) {
    tables_.emplace(c.extent, Table(c.extent, c.ObjectType()));
    next_seq_[c.class_id] = 0;
  }
}

Database::~Database() = default;

StatsCatalog& Database::stats() const { return *stats_; }

ColumnarCatalog& Database::columnar() const { return *columnar_; }

Status Database::CreateTable(const std::string& name, TypePtr row_type) {
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  if (!row_type->is_tuple()) {
    return Status::TypeError("table row type must be a tuple: " + name);
  }
  tables_.emplace(name, Table(name, std::move(row_type)));
  return Status::OK();
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status Database::Insert(const std::string& table, Value row) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + table);
  }
  if (!row.is_tuple()) {
    return Status::TypeError("row must be a tuple");
  }
  it->second.Append(std::move(row));
  return Status::OK();
}

Result<Oid> Database::NewObject(const std::string& class_name, Value attrs) {
  const ClassDef* cls = schema_.FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("no such class: " + class_name);
  }
  if (!attrs.is_tuple()) {
    return Status::TypeError("object attributes must be a tuple");
  }
  uint64_t seq = next_seq_[cls->class_id]++;
  Oid oid = MakeOid(cls->class_id, seq);

  std::vector<std::string> names;
  names.reserve(attrs.tuple_size() + 1);
  names.push_back(cls->oid_field);
  names.insert(names.end(), attrs.tuple_shape()->names().begin(),
               attrs.tuple_shape()->names().end());
  Value* slots = nullptr;
  Value object =
      Value::NewTuple(TupleShape::Intern(std::move(names)), &slots);
  slots[0] = Value::MakeOidValue(oid);
  std::copy(attrs.tuple_values().begin(), attrs.tuple_values().end(),
            slots + 1);

  N2J_RETURN_IF_ERROR(store_.Put(oid, object));
  tables_.at(cls->extent).Append(std::move(object));
  return oid;
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& field) {
  const Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  if (t->row_type()->FindField(field) == nullptr) {
    return Status::NotFound("no attribute '" + field + "' in " + table);
  }
  HashIndex index(table, field);
  for (size_t i = 0; i < t->rows().size(); ++i) {
    const Value* key = t->rows()[i].FindField(field);
    if (key == nullptr) {
      return Status::Internal("row missing indexed attribute");
    }
    index.Add(*key, i);
  }
  indexes_[{table, field}] = std::move(index);
  return Status::OK();
}

const HashIndex* Database::FindIndex(const std::string& table,
                                     const std::string& field) const {
  auto it = indexes_.find({table, field});
  return it == indexes_.end() ? nullptr : &it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

}  // namespace n2j
