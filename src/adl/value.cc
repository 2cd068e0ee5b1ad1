#include "adl/value.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <new>

#include "common/str_util.h"

namespace n2j {

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.rep_.b = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.rep_.i = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.kind_ = Kind::kDouble;
  v.rep_.d = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.rep_.p = new StringPayload(std::move(s));
  return v;
}

Value Value::MakeOidValue(Oid oid) {
  Value v;
  v.kind_ = Kind::kOid;
  v.rep_.o = oid;
  return v;
}

Value Value::Tuple(std::vector<Field> fields) {
  std::vector<std::string> names;
  names.reserve(fields.size());
  for (Field& f : fields) names.push_back(std::move(f.name));
  Value* slots = nullptr;
  Value v = NewTuple(TupleShape::Intern(std::move(names)), &slots);
  for (Field& f : fields) *slots++ = std::move(f.value);
  return v;
}

Value Value::NewTuple(const TupleShape* shape, Value** slots) {
  static_assert(sizeof(TuplePayload) % alignof(Value) == 0,
                "tuple fields must start aligned right after the header");
  N2J_CHECK(shape != nullptr);
  const size_t n = shape->size();
  void* block = ::operator new(sizeof(TuplePayload) + n * sizeof(Value));
  TuplePayload* p = new (block) TuplePayload(shape, static_cast<uint32_t>(n));
  Value* fields = p->values();
  for (size_t i = 0; i < n; ++i) new (&fields[i]) Value();
  *slots = fields;
  Value v;
  v.kind_ = Kind::kTuple;
  v.rep_.p = p;
  return v;
}

namespace {

// Which atom kind supplies a row's sort key (SortRecord::key).
enum class KeyKind : uint8_t { kNone, kInt, kOid, kString };

KeyKind KeyKindOf(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kInt:
      return KeyKind::kInt;
    case Value::Kind::kOid:
      return KeyKind::kOid;
    case Value::Kind::kString:
      return KeyKind::kString;
    default:
      return KeyKind::kNone;
  }
}

// An order-preserving 64-bit key: key(a) < key(b) implies a < b under
// Compare, for two atoms of kind `kind`. Ints flip the sign bit; strings
// take their first 8 bytes big-endian, zero-padded (Compare orders
// strings by unsigned bytes, and a zero pad sorts a prefix first).
uint64_t SortKey(const Value& v, KeyKind kind) {
  switch (kind) {
    case KeyKind::kInt:
      return static_cast<uint64_t>(v.int_value()) ^ (uint64_t{1} << 63);
    case KeyKind::kOid:
      return v.oid_value();
    case KeyKind::kString: {
      const std::string& str = v.string_value();
      unsigned char bytes[8] = {};
      std::memcpy(bytes, str.data(), std::min<size_t>(str.size(), 8));
      uint64_t key = 0;
      for (unsigned char b : bytes) key = (key << 8) | b;
      return key;
    }
    case KeyKind::kNone:
      break;
  }
  return 0;
}

// One row of a key-prefix sort: the row's key and its input position.
struct SortRecord {
  uint64_t key;
  size_t index;
};
static_assert(sizeof(SortRecord) == 16, "sort records stay 16 bytes");

// Sorts and deduplicates `rows` on SortRecords when every row is an
// atom of one key kind, or a tuple of one shape whose first field is;
// equal keys fall back to Compare. Returns false, leaving `rows`
// untouched, when the rows do not qualify.
bool KeyPrefixSort(std::vector<Value>& rows) {
  const Value& first = rows.front();
  const TupleShape* shape = first.is_tuple() ? first.tuple_shape() : nullptr;
  if (shape != nullptr && shape->size() == 0) return false;
  const KeyKind kind =
      KeyKindOf(shape != nullptr ? first.tuple_values()[0] : first);
  if (kind == KeyKind::kNone) return false;
  std::vector<SortRecord> records(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* key = &rows[i];
    if (shape != nullptr) {
      if (!key->is_tuple() || key->tuple_shape() != shape) return false;
      key = &key->tuple_values()[0];
    }
    if (KeyKindOf(*key) != kind) return false;
    records[i] = {SortKey(*key, kind), i};
  }
  std::sort(records.begin(), records.end(),
            [&rows](const SortRecord& a, const SortRecord& b) {
              if (a.key != b.key) return a.key < b.key;
              return rows[a.index].Compare(rows[b.index]) < 0;
            });
  std::vector<Value> sorted;
  sorted.reserve(rows.size());
  for (size_t i = 0; i < records.size(); ++i) {
    Value& row = rows[records[i].index];
    if (i > 0 && records[i].key == records[i - 1].key &&
        row == sorted.back()) {
      continue;  // a duplicate sorts next to its first copy
    }
    sorted.push_back(std::move(row));
  }
  rows = std::move(sorted);
  return true;
}

}  // namespace

bool Value::Canonicalize(std::vector<Value>& elements) {
  // Rows built in canonical input order (select, semijoin, antijoin and
  // nestjoin outputs, or a map that keeps its input's order) are already
  // non-decreasing: one O(n) pass that stops at the first inversion
  // replaces the sort. Tuples whose shapes permute the same field names
  // are not strictly ordered by Compare (ROADMAP item 8), so over such
  // rows neither this check nor the sorts below guarantee a canonical
  // set; the key-prefix sort declines mixed shapes, so it leaves that
  // behaviour as the plain sort has it.
  bool duplicates = false;
  size_t i = 1;
  for (; i < elements.size(); ++i) {
    int c = elements[i - 1].Compare(elements[i]);
    if (c > 0) break;
    if (c == 0) duplicates = true;
  }
  if (i >= elements.size()) {
    if (duplicates) {
      elements.erase(std::unique(elements.begin(), elements.end()),
                     elements.end());
    }
    return false;
  }
  if (KeyPrefixSort(elements)) return true;
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  return true;
}

Value Value::Set(std::vector<Value> elements) {
  Canonicalize(elements);
  return SetFromCanonical(std::move(elements));
}

Value Value::SetFromCanonical(std::vector<Value> elements) {
#ifndef NDEBUG
  // Producers that claim canonical order by construction (select,
  // semijoin, antijoin, identity nestjoin groups) must really deliver
  // it. Rows of different shapes and sets are skipped: Compare is not a
  // strict weak order across permuted shapes (ROADMAP item 8).
  for (size_t i = 1; i < elements.size(); ++i) {
    const Value& a = elements[i - 1];
    const Value& b = elements[i];
    bool comparable = a.is_tuple() ? b.is_tuple() &&
                                         a.tuple_shape() == b.tuple_shape()
                                   : a.kind() == b.kind() && !a.is_set();
    N2J_CHECK(!comparable || a.Compare(b) < 0);
  }
#endif
  Value v;
  v.kind_ = Kind::kSet;
  v.rep_.p = new SetPayload(std::move(elements));
  return v;
}

void Value::DeletePayload() {
  switch (kind_) {
    case Kind::kString:
      delete static_cast<StringPayload*>(rep_.p);
      break;
    case Kind::kTuple: {
      TuplePayload* p = static_cast<TuplePayload*>(rep_.p);
      Value* fields = p->values();
      for (uint32_t i = 0; i < p->size; ++i) fields[i].~Value();
      p->~TuplePayload();
      ::operator delete(p);
      break;
    }
    case Kind::kSet:
      delete static_cast<SetPayload*>(rep_.p);
      break;
    default:
      break;
  }
}

Value Value::ProjectTuple(const std::vector<std::string>& names) const {
  N2J_CHECK(is_tuple());
  const TuplePayload* p = tuple_payload();
  const TupleShape* target = TupleShape::Intern(names);
  if (target == p->shape) return *this;  // full projection in order
  Value* slots = nullptr;
  Value out = NewTuple(target, &slots);
  for (const std::string& n : names) {
    int i = p->shape->IndexOf(n);
    N2J_CHECK(i >= 0);
    *slots++ = p->values()[i];
  }
  return out;
}

Value Value::ConcatTuple(const Value& other) const {
  N2J_CHECK(is_tuple() && other.is_tuple());
  const TuplePayload* a = tuple_payload();
  const TuplePayload* b = other.tuple_payload();
  const TupleShape* combined = a->shape->ConcatWith(b->shape);
  N2J_CHECK(combined != nullptr);  // field names must not collide
  return ConcatTupleAs(combined, other);
}

Value Value::ConcatTupleAs(const TupleShape* combined,
                           const Value& other) const {
  std::span<const Value> a = tuple_values();
  std::span<const Value> b = other.tuple_values();
  Value* slots = nullptr;
  Value out = NewTuple(combined, &slots);
  slots = std::copy(a.begin(), a.end(), slots);
  std::copy(b.begin(), b.end(), slots);
  return out;
}

Value Value::ExceptUpdate(const std::vector<Field>& updates) const {
  N2J_CHECK(is_tuple());
  // Each update replaces a field or appends one, and a later update may
  // hit an earlier append, so the output shape is resolved first.
  const TupleShape* shape = tuple_shape();
  for (const Field& u : updates) {
    if (shape->IndexOf(u.name) < 0) shape = shape->ExtendedWith(u.name);
  }
  std::span<const Value> in = tuple_values();
  Value* slots = nullptr;
  Value out = NewTuple(shape, &slots);
  std::copy(in.begin(), in.end(), slots);
  for (const Field& u : updates) slots[shape->IndexOf(u.name)] = u.value;
  return out;
}

Value Value::AppendField(const TupleShape* extended, Value field) const {
  std::span<const Value> in = tuple_values();
  N2J_CHECK(extended->size() == in.size() + 1);
  Value* slots = nullptr;
  Value out = NewTuple(extended, &slots);
  slots = std::copy(in.begin(), in.end(), slots);
  *slots = std::move(field);
  return out;
}

Value Value::WithoutField(const std::string& name) const {
  N2J_CHECK(is_tuple());
  const TuplePayload* p = tuple_payload();
  int drop = p->shape->IndexOf(name);
  if (drop < 0) return *this;
  return WithoutFieldAs(p->shape->WithoutField(name), drop);
}

Value Value::WithoutFieldAs(const TupleShape* shape, int drop) const {
  std::span<const Value> in = tuple_values();
  Value* slots = nullptr;
  Value out = NewTuple(shape, &slots);
  for (size_t i = 0; i < in.size(); ++i) {
    if (static_cast<int>(i) != drop) *slots++ = in[i];
  }
  return out;
}

std::vector<std::string> Value::FieldNames() const {
  return tuple_shape()->names();
}

bool Value::SetContains(const Value& v) const {
  const std::vector<Value>& es = elements();
  return std::binary_search(es.begin(), es.end(), v);
}

bool Value::IsSubsetOf(const Value& other, bool strict) const {
  N2J_CHECK(is_set() && other.is_set());
  if (rep_.p == other.rep_.p) return !strict;  // shared payload ⇒ equal
  const std::vector<Value>& a = elements();
  const std::vector<Value>& b = other.elements();
  if (a.size() > b.size()) return false;
  // Sorted-merge subset test.
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    int c = a[i].Compare(b[j]);
    if (c == 0) {
      ++i;
      ++j;
    } else if (c > 0) {
      ++j;
    } else {
      return false;  // a[i] not present in b
    }
  }
  if (i < a.size()) return false;
  return strict ? a.size() < b.size() : true;
}

Value Value::SetUnion(const Value& other) const {
  N2J_CHECK(is_set() && other.is_set());
  if (rep_.p == other.rep_.p) return *this;
  const std::vector<Value>& a = elements();
  const std::vector<Value>& b = other.elements();
  if (a.empty()) return other;
  if (b.empty()) return *this;
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return SetFromCanonical(std::move(out));
}

Value Value::SetUnionMove(const Value& other) && {
  N2J_CHECK(is_set() && other.is_set());
  // Another owner may still read the payload: fall back to copying.
  if (rep_.p->refs.load(std::memory_order_acquire) != 1) {
    return SetUnion(other);
  }
  const std::vector<Value>& b = other.elements();
  std::vector<Value> a = std::move(static_cast<SetPayload*>(rep_.p)->elems);
  if (a.empty() || b.empty() || a.back().Compare(b.front()) < 0) {
    a.insert(a.end(), b.begin(), b.end());
    return SetFromCanonical(std::move(a));
  }
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  std::merge(std::make_move_iterator(a.begin()),
             std::make_move_iterator(a.end()), b.begin(), b.end(),
             std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return SetFromCanonical(std::move(out));
}

Value Value::SetIntersect(const Value& other) const {
  N2J_CHECK(is_set() && other.is_set());
  if (rep_.p == other.rep_.p) return *this;
  const std::vector<Value>& a = elements();
  const std::vector<Value>& b = other.elements();
  std::vector<Value> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return SetFromCanonical(std::move(out));
}

Value Value::SetDifference(const Value& other) const {
  N2J_CHECK(is_set() && other.is_set());
  if (rep_.p == other.rep_.p) return EmptySet();
  const std::vector<Value>& a = elements();
  const std::vector<Value>& b = other.elements();
  std::vector<Value> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return SetFromCanonical(std::move(out));
}

namespace {

int KindRank(Value::Kind k) { return static_cast<int>(k); }

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  // int/double compare numerically so 1 == 1.0 inside mixed expressions.
  if (is_numeric() && other.is_numeric() &&
      (is_double() || other.is_double())) {
    return CompareDoubles(as_double(), other.as_double());
  }
  if (kind_ != other.kind_) {
    return KindRank(kind_) < KindRank(other.kind_) ? -1 : 1;
  }
  switch (kind_) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return (rep_.b == other.rep_.b) ? 0 : (rep_.b ? 1 : -1);
    case Kind::kInt:
      return (rep_.i == other.rep_.i) ? 0 : (rep_.i < other.rep_.i ? -1 : 1);
    case Kind::kDouble:
      return CompareDoubles(rep_.d, other.rep_.d);
    case Kind::kString: {
      if (rep_.p == other.rep_.p) return 0;
      return str_payload()->str.compare(other.str_payload()->str);
    }
    case Kind::kOid:
      return (rep_.o == other.rep_.o) ? 0 : (rep_.o < other.rep_.o ? -1 : 1);
    case Kind::kTuple: {
      if (rep_.p == other.rep_.p) return 0;  // shared payload ⇒ equal
      const TuplePayload* a = tuple_payload();
      const TuplePayload* b = other.tuple_payload();
      if (a->size != b->size) return a->size < b->size ? -1 : 1;
      const Value* av = a->values();
      const Value* bv = b->values();
      if (a->shape == b->shape) {
        // Interning turns "same field names in the same order" — the
        // overwhelmingly common case — into a pointer check.
        for (uint32_t i = 0; i < a->size; ++i) {
          int c = av[i].Compare(bv[i]);
          if (c != 0) return c;
        }
        return 0;
      }
      // Attribute order is irrelevant to tuple identity (relational
      // convention): compare via the shapes' precomputed name-sorted
      // permutations.
      const std::vector<uint32_t>& ia = a->shape->sorted_order();
      const std::vector<uint32_t>& ib = b->shape->sorted_order();
      for (uint32_t i = 0; i < a->size; ++i) {
        int c = a->shape->name(ia[i]).compare(b->shape->name(ib[i]));
        if (c != 0) return c < 0 ? -1 : 1;
        c = av[ia[i]].Compare(bv[ib[i]]);
        if (c != 0) return c;
      }
      return 0;
    }
    case Kind::kSet: {
      if (rep_.p == other.rep_.p) return 0;
      const std::vector<Value>& a = set_payload()->elems;
      const std::vector<Value>& b = other.set_payload()->elems;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

bool Value::operator==(const Value& other) const {
  // Same kind and same bits: identical atom or shared payload pointer.
  if (kind_ == other.kind_ && rep_.raw == other.rep_.raw) return true;
  return Compare(other) == 0;
}

namespace {

// hash_memo uses 0 as the "not yet computed" sentinel; a computed hash
// that lands on 0 is remapped so it stays cacheable.
constexpr uint64_t kHashZeroRemap = 0x9e3779b97f4a7c15ULL;

uint64_t Memoize(std::atomic<uint64_t>& memo, uint64_t h) {
  if (h == 0) h = kHashZeroRemap;
  // Relaxed is enough: racing writers all store the same value, and
  // readers only consume the loaded value itself.
  memo.store(h, std::memory_order_relaxed);
  return h;
}

}  // namespace

uint64_t Value::Hash() const {
  switch (kind_) {
    case Kind::kNull:
      return 0x6e756c6cULL;
    case Kind::kBool:
      return rep_.b ? 0x74727565ULL : 0x66616c73ULL;
    case Kind::kInt:
      return Fnv1a(&rep_.i, sizeof(rep_.i));
    case Kind::kDouble: {
      // Hash integral doubles as their int64 so numeric equality implies
      // hash equality (Compare treats 1 and 1.0 as equal).
      double d = rep_.d;
      if (d == 0.0) d = 0.0;  // normalize -0.0
      if (std::floor(d) == d && d >= -9.2e18 && d <= 9.2e18) {
        int64_t as_int = static_cast<int64_t>(d);
        return Fnv1a(&as_int, sizeof(as_int));
      }
      return Fnv1a(&d, sizeof(d));
    }
    case Kind::kString: {
      const std::string& s = str_payload()->str;
      return Fnv1a(s.data(), s.size());
    }
    case Kind::kOid: {
      uint64_t mix = rep_.o ^ 0x6f696400ULL;
      return Fnv1a(&mix, sizeof(mix));
    }
    case Kind::kTuple: {
      const TuplePayload* p = tuple_payload();
      uint64_t h = p->hash_memo.load(std::memory_order_relaxed);
      if (h != 0) return h;
      // Commutative combination so field order does not affect the hash
      // (consistent with order-insensitive tuple equality).
      h = 0x7475706cULL + p->size;
      for (uint32_t i = 0; i < p->size; ++i) {
        h += HashCombine(p->shape->name_hash(i), p->values()[i].Hash());
      }
      return Memoize(p->hash_memo, h);
    }
    case Kind::kSet: {
      const SetPayload* p = set_payload();
      uint64_t h = p->hash_memo.load(std::memory_order_relaxed);
      if (h != 0) return h;
      h = 0x736574ULL;
      for (const Value& v : p->elems) h = HashCombine(h, v.Hash());
      return Memoize(p->hash_memo, h);
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return rep_.b ? "true" : "false";
    case Kind::kInt:
      return std::to_string(rep_.i);
    case Kind::kDouble: {
      std::string s = StrFormat("%g", rep_.d);
      return s;
    }
    case Kind::kString:
      return "\"" + str_payload()->str + "\"";
    case Kind::kOid:
      return StrFormat("@%u.%llu", OidClassId(rep_.o),
                       static_cast<unsigned long long>(OidSeq(rep_.o)));
    case Kind::kTuple: {
      const TuplePayload* p = tuple_payload();
      std::vector<std::string> parts;
      parts.reserve(p->size);
      for (uint32_t i = 0; i < p->size; ++i) {
        parts.push_back(p->shape->name(i) + " = " +
                        p->values()[i].ToString());
      }
      return "(" + Join(parts, ", ") + ")";
    }
    case Kind::kSet: {
      const std::vector<Value>& es = set_payload()->elems;
      std::vector<std::string> parts;
      parts.reserve(es.size());
      for (const Value& v : es) parts.push_back(v.ToString());
      return "{" + Join(parts, ", ") + "}";
    }
  }
  return "?";
}

size_t Value::ApproxBytes() const {
  switch (kind_) {
    case Kind::kNull:
    case Kind::kBool:
    case Kind::kInt:
    case Kind::kDouble:
    case Kind::kOid:
      return sizeof(Value);
    case Kind::kString:
      return sizeof(Value) + sizeof(StringPayload) + str_payload()->str.size();
    case Kind::kTuple: {
      // The payload is the header plus one 16-byte slot per field; each
      // child's ApproxBytes counts that slot together with whatever the
      // child owns. The interned shape is shared, not charged per tuple.
      size_t total = sizeof(Value) + sizeof(TuplePayload);
      for (const Value& v : tuple_values()) total += v.ApproxBytes();
      return total;
    }
    case Kind::kSet: {
      size_t total = sizeof(Value) + sizeof(SetPayload);
      for (const Value& v : set_payload()->elems) total += v.ApproxBytes();
      return total;
    }
  }
  return sizeof(Value);
}

}  // namespace n2j
