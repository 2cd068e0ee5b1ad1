#ifndef N2J_STORAGE_DATABASE_H_
#define N2J_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adl/schema.h"
#include "adl/type.h"
#include "adl/value.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/index.h"
#include "storage/object_store.h"
#include "storage/table.h"

namespace n2j {

class StatsCatalog;     // stats/stats.h
class ColumnarCatalog;  // storage/columnar.h

/// The database: a schema, one table per class extension (plus optional
/// plain tables for relational examples like Figure 2), and the oid →
/// object store used by deref/materialize.
class Database {
 public:
  Database();
  explicit Database(Schema schema);
  ~Database();

  const Schema& schema() const { return schema_; }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  /// Creates a plain (class-less) table.
  Status CreateTable(const std::string& name, TypePtr row_type);

  const Table* FindTable(const std::string& name) const;

  /// Inserts a row into a plain table (no oid handling, no type check
  /// beyond tuple-ness; used by examples and tests that build relations
  /// directly).
  Status Insert(const std::string& table, Value row);

  /// Creates a new object of `class_name`: allocates the next oid, adds
  /// the oid field, appends the full tuple to the extent and registers it
  /// in the object store. `attrs` must contain exactly the class's user
  /// attributes. Returns the new oid.
  Result<Oid> NewObject(const std::string& class_name, Value attrs);

  /// Dereferences an oid via the object store.
  Result<Value> Deref(Oid oid) const { return store_.Get(oid); }
  /// Deref without the copy: the stored object, valid until the next
  /// NewObject, or nullptr for a dangling oid (ObjectStore::DanglingOid).
  const Value* FindObject(Oid oid) const { return store_.Find(oid); }

  /// Names of all tables (extents + plain), sorted.
  std::vector<std::string> TableNames() const;

  /// Builds a hash index on `table`.`field`. Rows inserted *after* the
  /// index is built are not indexed (indexes are built once the data is
  /// loaded, like the benchmarks do). Fails on unknown table/field.
  Status CreateIndex(const std::string& table, const std::string& field);

  /// The index on `table`.`field`, or nullptr.
  const HashIndex* FindIndex(const std::string& table,
                             const std::string& field) const;

  /// The per-database statistics catalog (stats/stats.h), lazily
  /// constructed. Lives on the database — not the engine — so ANALYZE
  /// state survives engine reconstruction; entries invalidate on Append
  /// through Table versions, never by explicit bookkeeping here.
  StatsCatalog& stats() const;

  /// The per-database columnar projection cache (storage/columnar.h)
  /// used by the shredded backend; same lifetime and invalidation story
  /// as stats().
  ColumnarCatalog& columnar() const;

 private:
  Schema schema_;
  std::map<std::string, Table> tables_;
  std::map<uint16_t, uint64_t> next_seq_;
  std::map<std::pair<std::string, std::string>, HashIndex> indexes_;
  ObjectStore store_;
  mutable std::unique_ptr<StatsCatalog> stats_;
  mutable std::unique_ptr<ColumnarCatalog> columnar_;
};

}  // namespace n2j

#endif  // N2J_STORAGE_DATABASE_H_
