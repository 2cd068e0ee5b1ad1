#ifndef N2J_STORAGE_TABLE_H_
#define N2J_STORAGE_TABLE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "adl/type.h"
#include "adl/value.h"
#include "common/status.h"

namespace n2j {

/// An in-memory base table (class extension or plain relation). Rows are
/// tuple Values; set-valued attributes are stored clustered with their
/// parent tuple, as the paper assumes ("Assuming set-valued attributes are
/// stored clustered, ...").
///
/// Extents are append-only: Append is the only mutator, so rows
/// [0, size()) never change once written. Derived caches rely on that —
/// the memoized canonical set below and the extent statistics
/// (stats/stats.h) fold in only the rows appended since they were last
/// brought up to date instead of rescanning the extent.
class Table {
 public:
  Table() = default;
  Table(std::string name, TypePtr row_type)
      : name_(std::move(name)), row_type_(std::move(row_type)) {}
  // Movable (the Database map needs it at insertion); the memoized
  // canonical set and its mutex stay behind.
  Table(Table&& other) noexcept
      : name_(std::move(other.name_)),
        row_type_(std::move(other.row_type_)),
        rows_(std::move(other.rows_)),
        version_(other.version_) {}

  const std::string& name() const { return name_; }
  const TypePtr& row_type() const { return row_type_; }
  const std::vector<Value>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  /// Monotone mutation counter, bumped by every Append. Consumers that
  /// cache derived state (extent statistics, columnar projections)
  /// compare versions to detect staleness instead of re-scanning.
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return version_;
  }

  /// version() and the row count, read together under the lock Append
  /// takes: the first `rows` rows are exactly the extent at `version`.
  /// A cache that folds rows [0, rows) stamps its result with `version`
  /// and can never claim a version whose row it did not see.
  struct Stamp {
    uint64_t version = 0;
    size_t rows = 0;
  };
  Stamp stamp() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return Stamp{version_, rows_.size()};
  }

  /// Appends a row. The caller is responsible for type conformance
  /// (Database::Insert checks it). The row and the version bump land
  /// under one lock, so stamp() never pairs a version with a row count
  /// it does not belong to.
  void Append(Value row) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    rows_.push_back(std::move(row));
    ++version_;
  }

  /// All rows as a canonical set Value (sorted, deduplicated). Memoized
  /// and maintained incrementally: the first call sorts the extent; a
  /// later call after Appends sorts only the new rows and merges them
  /// into the cached set — O(n + k log k) for k new rows instead of
  /// O(n log n), with the same result as Value::Set(rows()). The
  /// returned Value shares the cached payload. Guarded by a mutex because
  /// concurrent read-only queries (one Evaluator per worker) resolve
  /// tables through here.
  Value AsSetValue() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (!canonical_set_.is_set()) {
      canonical_set_ = Value::Set(rows_);
    } else if (canonical_rows_ < rows_.size()) {
      std::vector<Value> delta(rows_.begin() + canonical_rows_, rows_.end());
      canonical_set_ =
          std::move(canonical_set_).SetUnionMove(Value::Set(std::move(delta)));
    }
    canonical_rows_ = rows_.size();
    return canonical_set_;
  }

 private:
  std::string name_;
  TypePtr row_type_;
  std::vector<Value> rows_;
  mutable std::mutex cache_mu_;
  // Canonical set of rows [0, canonical_rows_); null until first built.
  mutable Value canonical_set_;
  mutable size_t canonical_rows_ = 0;
  uint64_t version_ = 0;
};

}  // namespace n2j

#endif  // N2J_STORAGE_TABLE_H_
