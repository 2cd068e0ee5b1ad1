#ifndef N2J_ADL_TUPLE_SHAPE_H_
#define N2J_ADL_TUPLE_SHAPE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace n2j {

/// An interned, immutable tuple schema: the ordered field names of a
/// tuple Value plus everything Compare/Hash/FindField need precomputed.
///
/// Shapes are process-wide deduplicated: two tuples with the same field
/// names in the same order share one TupleShape, so schema equality is a
/// pointer comparison and per-tuple storage is one shape pointer plus
/// the field values, in one allocation — no per-field allocations.
/// Interned shapes live for the life of the process (the set of distinct
/// schemas in any workload is tiny and bounded by the query/DDL text,
/// not the data).
///
/// All static lookups are thread-safe; a returned pointer is immutable
/// and never invalidated.
class TupleShape {
 public:
  /// Canonical shape for `names` (copies only when the shape is new).
  static const TupleShape* Intern(const std::vector<std::string>& names);
  /// Canonical shape for `names`, consuming the vector on a miss.
  static const TupleShape* Intern(std::vector<std::string>&& names);
  /// The empty tuple's shape.
  static const TupleShape* Empty();

  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }
  const std::string& name(size_t i) const { return names_[i]; }
  /// FNV-1a hash of name(i), precomputed at intern time.
  uint64_t name_hash(size_t i) const { return name_hashes_[i]; }

  /// Index of `name`, or -1 if absent. Length-first linear scan for
  /// small shapes, hash lookup for large ones; never allocates.
  int IndexOf(std::string_view name) const;

  /// Permutation ordering the fields by name — the order-insensitive
  /// tuple comparison walks both shapes through this without sorting.
  const std::vector<uint32_t>& sorted_order() const { return sorted_order_; }

  /// Shape of this shape's fields followed by `other`'s, or nullptr when
  /// a field name occurs in both. Memoized per (this, other) pair, so
  /// repeated tuple concatenations (join output assembly) cost one
  /// pointer-keyed map lookup per row instead of an intern by name list.
  const TupleShape* ConcatWith(const TupleShape* other) const;

  /// Shape with `name` appended (memoized; nest / nestjoin results).
  const TupleShape* ExtendedWith(const std::string& name) const;

  /// Shape with `name` removed, or this shape if absent (memoized;
  /// unnest and the PNHL natural-join payload).
  const TupleShape* WithoutField(const std::string& name) const;

  TupleShape(const TupleShape&) = delete;
  TupleShape& operator=(const TupleShape&) = delete;

 private:
  explicit TupleShape(std::vector<std::string> names);

  std::vector<std::string> names_;
  std::vector<uint64_t> name_hashes_;
  std::vector<uint32_t> sorted_order_;
  // Views into names_ (stable: names_ never changes after construction).
  // Only consulted above the linear-scan size threshold.
  std::unordered_map<std::string_view, uint32_t> index_;
};

}  // namespace n2j

#endif  // N2J_ADL_TUPLE_SHAPE_H_
