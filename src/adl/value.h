#ifndef N2J_ADL_VALUE_H_
#define N2J_ADL_VALUE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adl/tuple_shape.h"
#include "common/status.h"

namespace n2j {

/// Object identifier. The high 16 bits identify the class, the low 48 bits
/// are a per-class sequence number. Oids are opaque values at the algebra
/// level; the storage layer (ObjectStore) maps them back to objects.
using Oid = uint64_t;

/// Builds an oid from a class id and a sequence number.
inline Oid MakeOid(uint16_t class_id, uint64_t seq) {
  return (static_cast<uint64_t>(class_id) << 48) | (seq & 0xffffffffffffULL);
}
inline uint16_t OidClassId(Oid oid) { return static_cast<uint16_t>(oid >> 48); }
inline uint64_t OidSeq(Oid oid) { return oid & 0xffffffffffffULL; }

class Value;

/// One named field of a tuple under construction. Field is a builder
/// convenience only: `Value::Tuple({Field("a", ...), ...})` splits the
/// fields into an interned TupleShape plus the payload's inline values.
/// Stored tuples do not hold Fields (or per-field allocations) at all.
struct Field;

/// A complex-object value in the ADL data model: an atom (null, bool, int,
/// double, string, oid), a tuple of named fields, or a set.
///
/// Sets are kept in *canonical form* — sorted by Value::Compare and
/// deduplicated — so set equality is element-wise equality and the subset /
/// membership operations run by merging. Tuples preserve field order.
///
/// Representation: a 16-byte tagged union. Atoms are stored inline; a
/// string, tuple or set holds one pointer to an intrusively refcounted
/// immutable payload, so copies are a tag copy plus one atomic increment.
/// A tuple payload is one allocation: a header holding the interned
/// TupleShape pointer (field names, deduplicated process-wide), the
/// arity and the hash memo, followed by the field values in a trailing
/// inline array. Tuple and set payloads memoize their hash, and Compare /
/// operator== short-circuit on shared payload pointers, so repeated hash
/// builds, set dedup and subset merges over shared values are O(1).
class Value {
 public:
  enum class Kind : uint8_t {
    kNull = 0,
    kBool,
    kInt,
    kDouble,
    kString,
    kOid,
    kTuple,
    kSet,
  };

  /// Default-constructed value is null.
  Value() : kind_(Kind::kNull) { rep_.raw = 0; }
  Value(const Value& other) : kind_(other.kind_), rep_(other.rep_) {
    if (has_payload()) {
      rep_.p->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Value(Value&& other) noexcept : kind_(other.kind_), rep_(other.rep_) {
    other.kind_ = Kind::kNull;
    other.rep_.raw = 0;
  }
  Value& operator=(const Value& other) {
    if (this != &other) {
      if (other.has_payload()) {
        other.rep_.p->refs.fetch_add(1, std::memory_order_relaxed);
      }
      Release();
      kind_ = other.kind_;
      rep_ = other.rep_;
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      kind_ = other.kind_;
      rep_ = other.rep_;
      other.kind_ = Kind::kNull;
      other.rep_.raw = 0;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Double(double d);
  static Value String(std::string s);
  static Value MakeOidValue(Oid oid);
  /// Builds a tuple preserving field order. Field names must be distinct.
  static Value Tuple(std::vector<Field> fields);
  /// Allocates a tuple of `shape` whose fields are all null and points
  /// `*slots` at its shape->size() field values, for the caller to fill
  /// in place before the tuple is shared — the one-allocation
  /// construction path for hot loops.
  static Value NewTuple(const TupleShape* shape, Value** slots);
  /// Builds a set; canonicalizes (sorts and deduplicates) the elements.
  static Value Set(std::vector<Value> elements);
  /// Builds a set from elements already sorted and deduplicated. When
  /// NDEBUG is off it checks that adjacent tuples of one shape (and
  /// adjacent atoms of one kind) strictly increase.
  static Value SetFromCanonical(std::vector<Value> elements);
  /// Sorts and deduplicates `elements` in place, the canonical form Set
  /// builds. Non-decreasing input only drops its duplicates; otherwise
  /// the rows are comparison-sorted — on 16-byte (key prefix, index)
  /// records when every row is an int, oid or string atom of one kind,
  /// or a tuple of one shape whose first field is. Returns whether a
  /// comparison sort ran.
  static bool Canonicalize(std::vector<Value>& elements);
  static Value EmptySet() { return SetFromCanonical({}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_oid() const { return kind_ == Kind::kOid; }
  bool is_tuple() const { return kind_ == Kind::kTuple; }
  bool is_set() const { return kind_ == Kind::kSet; }

  bool bool_value() const {
    N2J_CHECK(is_bool());
    return rep_.b;
  }
  int64_t int_value() const {
    N2J_CHECK(is_int());
    return rep_.i;
  }
  double double_value() const {
    N2J_CHECK(is_double());
    return rep_.d;
  }
  /// Numeric value as double (int or double kinds).
  double as_double() const {
    N2J_CHECK(is_numeric());
    return is_int() ? static_cast<double>(rep_.i) : rep_.d;
  }
  const std::string& string_value() const;
  Oid oid_value() const {
    N2J_CHECK(is_oid());
    return rep_.o;
  }

  /// Tuple accessors. Precondition: is_tuple().
  const TupleShape* tuple_shape() const;
  std::span<const Value> tuple_values() const;
  size_t tuple_size() const { return tuple_values().size(); }
  const std::string& field_name(size_t i) const {
    return tuple_shape()->name(i);
  }
  const Value& field_value(size_t i) const { return tuple_values()[i]; }
  /// Returns the field value or nullptr if absent.
  const Value* FindField(std::string_view name) const;
  /// Tuple subscription e[a1,...,an]: projects onto the named fields, in
  /// the given order. Missing fields are an internal error.
  Value ProjectTuple(const std::vector<std::string>& names) const;
  /// Tuple concatenation x o y. Field names must not collide.
  Value ConcatTuple(const Value& other) const;
  /// The `except` operator: updates existing fields / appends new ones.
  Value ExceptUpdate(const std::vector<Field>& updates) const;
  /// ConcatTuple with the combined shape already resolved (hot loops
  /// resolve it once per input shape pair). Precondition: `combined` is
  /// tuple_shape()->ConcatWith(other.tuple_shape()).
  Value ConcatTupleAs(const TupleShape* combined, const Value& other) const;
  /// The tuple with `field` appended as its last field. Precondition:
  /// `extended` is tuple_shape()->ExtendedWith(the new field's name),
  /// resolved by the caller once per input shape.
  Value AppendField(const TupleShape* extended, Value field) const;
  /// The tuple without field `name` (this value if the field is absent).
  Value WithoutField(const std::string& name) const;
  /// WithoutField with the result shape and the dropped index already
  /// resolved. Precondition: `drop` is the field's index and `shape` is
  /// tuple_shape()->WithoutField(its name).
  Value WithoutFieldAs(const TupleShape* shape, int drop) const;
  /// Field names in order.
  std::vector<std::string> FieldNames() const;

  /// Set accessors. Precondition: is_set().
  const std::vector<Value>& elements() const;
  size_t set_size() const { return elements().size(); }
  bool SetContains(const Value& v) const;
  /// this ⊆ other (strict = proper subset this ⊂ other).
  bool IsSubsetOf(const Value& other, bool strict) const;
  Value SetUnion(const Value& other) const;
  /// SetUnion that consumes this set: when this handle is the payload's
  /// only owner its element vector is reused rather than copied, so the
  /// old elements are moved, never re-counted; when every element of
  /// `other` sorts after this set's last one the union is an append.
  /// Same result as SetUnion. The memoized canonical extent set
  /// (Table::AsSetValue) merges appended rows through here.
  Value SetUnionMove(const Value& other) &&;
  Value SetIntersect(const Value& other) const;
  Value SetDifference(const Value& other) const;

  /// Total order over all values. Values of different kinds order by kind
  /// rank, except int/double which compare numerically. Tuples compare
  /// field-by-field (name then value); sets compare lexicographically over
  /// their canonical element sequences.
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== . Memoized for tuples and sets.
  uint64_t Hash() const;

  /// Printable form: atoms as literals, tuples as (a = v, ...), sets as
  /// {v, ...}.
  std::string ToString() const;

  /// Approximate in-memory footprint in bytes, used by the PNHL memory
  /// budget accounting. Counts the 16-byte inline Value, the refcounted
  /// payload for strings/tuples/sets, and every nested element. A tuple
  /// costs its payload header plus 16 bytes per field (plus whatever the
  /// fields own); interned TupleShapes are shared, so they are not
  /// charged per tuple.
  size_t ApproxBytes() const;

 private:
  struct Payload {
    mutable std::atomic<uint32_t> refs{1};
  };
  struct StringPayload;
  struct TuplePayload;
  struct SetPayload;

  bool has_payload() const {
    return kind_ == Kind::kString || kind_ == Kind::kTuple ||
           kind_ == Kind::kSet;
  }
  void Release() {
    if (has_payload() &&
        rep_.p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      DeletePayload();
    }
  }
  void DeletePayload();

  const StringPayload* str_payload() const;
  const TuplePayload* tuple_payload() const;
  const SetPayload* set_payload() const;

  Kind kind_;
  union Rep {
    bool b;
    int64_t i;
    double d;
    Oid o;
    Payload* p;
    uint64_t raw;
  } rep_;
};

// The entire point of this representation: one inline tag plus one
// 8-byte slot. Join outputs, hash keys and set elements stay copyable
// by register moves and one atomic increment.
static_assert(sizeof(Value) <= 16, "Value must stay a 16-byte tagged union");

struct Field {
  std::string name;
  Value value;

  Field(std::string n, Value v) : name(std::move(n)), value(std::move(v)) {}
  const Value& val() const { return value; }
};

struct Value::StringPayload : Value::Payload {
  explicit StringPayload(std::string s) : str(std::move(s)) {}
  std::string str;
};

// The header of a tuple allocation; the `size` field values follow it
// in the same block (see NewTuple).
struct Value::TuplePayload : Value::Payload {
  TuplePayload(const TupleShape* s, uint32_t n) : size(n), shape(s) {}
  uint32_t size;
  const TupleShape* shape;
  // 0 = not yet computed (computed hashes that collide with 0 are
  // remapped). Relaxed atomics: racing writers store the same value.
  mutable std::atomic<uint64_t> hash_memo{0};

  Value* values() { return reinterpret_cast<Value*>(this + 1); }
  const Value* values() const {
    return reinterpret_cast<const Value*>(this + 1);
  }
};

struct Value::SetPayload : Value::Payload {
  explicit SetPayload(std::vector<Value> e) : elems(std::move(e)) {}
  std::vector<Value> elems;
  mutable std::atomic<uint64_t> hash_memo{0};
};

inline const Value::StringPayload* Value::str_payload() const {
  return static_cast<const StringPayload*>(rep_.p);
}
inline const Value::TuplePayload* Value::tuple_payload() const {
  return static_cast<const TuplePayload*>(rep_.p);
}
inline const Value::SetPayload* Value::set_payload() const {
  return static_cast<const SetPayload*>(rep_.p);
}

inline const std::string& Value::string_value() const {
  N2J_CHECK(is_string());
  return str_payload()->str;
}
inline const TupleShape* Value::tuple_shape() const {
  N2J_CHECK(is_tuple());
  return tuple_payload()->shape;
}
inline std::span<const Value> Value::tuple_values() const {
  N2J_CHECK(is_tuple());
  const TuplePayload* p = tuple_payload();
  return {p->values(), p->size};
}
inline const std::vector<Value>& Value::elements() const {
  N2J_CHECK(is_set());
  return set_payload()->elems;
}
inline const Value* Value::FindField(std::string_view name) const {
  N2J_CHECK(is_tuple());
  const TuplePayload* p = tuple_payload();
  int i = p->shape->IndexOf(name);
  return i < 0 ? nullptr : &p->values()[i];
}

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

}  // namespace n2j

#endif  // N2J_ADL_VALUE_H_
