// Property-based tests of the Value algebra: canonical-form invariants,
// set-algebra laws, ordering laws, and hash/equality consistency on
// randomly generated nested values. These are the invariants everything
// above (joins, nest/unnest, the rewriter's equivalence arguments)
// silently relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "adl/value.h"
#include "common/rng.h"

namespace n2j {
namespace {

/// Random nested value: atoms, tuples, and sets up to `depth`.
Value RandomValue(Rng& rng, int depth) {
  int pick = static_cast<int>(rng.Uniform(0, depth > 0 ? 6 : 3));
  switch (pick) {
    case 0:
      return Value::Int(rng.Uniform(-5, 5));
    case 1:
      return Value::String(rng.NextString(2));
    case 2:
      return Value::Bool(rng.Bernoulli(0.5));
    case 3:
      return Value::Double(static_cast<double>(rng.Uniform(-4, 4)) / 2.0);
    case 4: {
      std::vector<Field> fields;
      int n = static_cast<int>(rng.Uniform(0, 3));
      for (int i = 0; i < n; ++i) {
        fields.emplace_back(std::string(1, static_cast<char>('a' + i)),
                            RandomValue(rng, depth - 1));
      }
      return Value::Tuple(std::move(fields));
    }
    default: {
      std::vector<Value> elems;
      int n = static_cast<int>(rng.Uniform(0, 4));
      for (int i = 0; i < n; ++i) {
        elems.push_back(RandomValue(rng, depth - 1));
      }
      return Value::Set(std::move(elems));
    }
  }
}

Value RandomSet(Rng& rng, int depth = 2) {
  std::vector<Value> elems;
  int n = static_cast<int>(rng.Uniform(0, 6));
  for (int i = 0; i < n; ++i) elems.push_back(RandomValue(rng, depth));
  return Value::Set(std::move(elems));
}

class ValuePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ValuePropertyTest, SetCanonicalFormIsSortedAndUnique) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 50; ++round) {
    Value s = RandomSet(rng);
    const std::vector<Value>& es = s.elements();
    for (size_t i = 1; i < es.size(); ++i) {
      EXPECT_LT(es[i - 1].Compare(es[i]), 0);
    }
  }
}

TEST_P(ValuePropertyTest, CompareIsATotalOrder) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  for (int round = 0; round < 40; ++round) {
    Value a = RandomValue(rng, 2);
    Value b = RandomValue(rng, 2);
    Value c = RandomValue(rng, 2);
    // Antisymmetry.
    EXPECT_EQ(a.Compare(b) == 0, b.Compare(a) == 0);
    if (a.Compare(b) < 0) {
      EXPECT_GT(b.Compare(a), 0);
    }
    // Transitivity (on the ≤ relation).
    if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
      EXPECT_LE(a.Compare(c), 0);
    }
    // Reflexivity.
    EXPECT_EQ(a.Compare(a), 0);
  }
}

TEST_P(ValuePropertyTest, HashAgreesWithEquality) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  for (int round = 0; round < 60; ++round) {
    Value a = RandomValue(rng, 2);
    Value b = RandomValue(rng, 2);
    if (a == b) {
      EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString();
    }
    EXPECT_EQ(a.Hash(), a.Hash());
  }
}

TEST_P(ValuePropertyTest, TupleEqualityIgnoresFieldOrder) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 300);
  for (int round = 0; round < 40; ++round) {
    Value v1 = RandomValue(rng, 1);
    Value v2 = RandomValue(rng, 1);
    Value ab = Value::Tuple({Field("a", v1), Field("b", v2)});
    Value ba = Value::Tuple({Field("b", v2), Field("a", v1)});
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.Hash(), ba.Hash());
  }
}

TEST_P(ValuePropertyTest, SetAlgebraLaws) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 400);
  for (int round = 0; round < 40; ++round) {
    Value a = RandomSet(rng);
    Value b = RandomSet(rng);
    Value c = RandomSet(rng);
    // Commutativity.
    EXPECT_EQ(a.SetUnion(b), b.SetUnion(a));
    EXPECT_EQ(a.SetIntersect(b), b.SetIntersect(a));
    // Associativity.
    EXPECT_EQ(a.SetUnion(b).SetUnion(c), a.SetUnion(b.SetUnion(c)));
    // Idempotence and identity.
    EXPECT_EQ(a.SetUnion(a), a);
    EXPECT_EQ(a.SetIntersect(a), a);
    EXPECT_EQ(a.SetUnion(Value::EmptySet()), a);
    EXPECT_EQ(a.SetIntersect(Value::EmptySet()), Value::EmptySet());
    // A − B ⊆ A; (A − B) ∩ B = ∅.
    EXPECT_TRUE(a.SetDifference(b).IsSubsetOf(a, false));
    EXPECT_EQ(a.SetDifference(b).SetIntersect(b), Value::EmptySet());
    // |A ∪ B| + |A ∩ B| = |A| + |B|.
    EXPECT_EQ(a.SetUnion(b).set_size() + a.SetIntersect(b).set_size(),
              a.set_size() + b.set_size());
    // De Morgan-ish: A − (B ∪ C) = (A − B) ∩ (A − C).
    EXPECT_EQ(a.SetDifference(b.SetUnion(c)),
              a.SetDifference(b).SetIntersect(a.SetDifference(c)));
  }
}

TEST_P(ValuePropertyTest, SubsetLaws) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  for (int round = 0; round < 40; ++round) {
    Value a = RandomSet(rng);
    Value b = RandomSet(rng);
    Value inter = a.SetIntersect(b);
    EXPECT_TRUE(inter.IsSubsetOf(a, false));
    EXPECT_TRUE(inter.IsSubsetOf(b, false));
    EXPECT_TRUE(a.IsSubsetOf(a.SetUnion(b), false));
    // Proper subset implies subset and inequality.
    if (a.IsSubsetOf(b, true)) {
      EXPECT_TRUE(a.IsSubsetOf(b, false));
      EXPECT_NE(a, b);
    }
    // Mutual inclusion implies equality.
    if (a.IsSubsetOf(b, false) && b.IsSubsetOf(a, false)) {
      EXPECT_EQ(a, b);
    }
    // Membership is consistent with inclusion of singletons.
    for (const Value& e : a.elements()) {
      EXPECT_TRUE(Value::Set({e}).IsSubsetOf(a, a.set_size() > 1));
      EXPECT_TRUE(a.SetContains(e));
    }
  }
}

TEST_P(ValuePropertyTest, ProjectConcatExceptRoundTrips) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 600);
  for (int round = 0; round < 40; ++round) {
    Value t = Value::Tuple({Field("a", RandomValue(rng, 1)),
                            Field("b", RandomValue(rng, 1)),
                            Field("c", RandomValue(rng, 1))});
    // Projection then concatenation restores the tuple (order-insensitive
    // equality).
    Value ab = t.ProjectTuple({"a", "b"});
    Value c = t.ProjectTuple({"c"});
    EXPECT_EQ(ab.ConcatTuple(c), t);
    // except with the original values is the identity.
    EXPECT_EQ(t.ExceptUpdate({Field("b", *t.FindField("b"))}), t);
  }
}

// Rows for the key-prefix sort, drawn from small pools so duplicates and
// equal keys are common. Families 0-6 qualify for the 16-byte record
// sort (one atom kind, or one tuple shape whose first field has one
// kind); 7 and 8 exercise its fallbacks to the plain sort.
constexpr int kKeySortFamilies = 9;

Value KeySortRow(Rng& rng, int family) {
  static const int64_t kInts[] = {INT64_MIN, INT64_MIN + 1, -1000, -1, 0,
                                  1,         7,             INT64_MAX - 1,
                                  INT64_MAX};
  static const char* const kPrefix = "abcdefgh";
  auto int_atom = [&] {
    if (rng.Bernoulli(0.5)) return Value::Int(rng.Uniform(-3, 3));
    return Value::Int(kInts[rng.Uniform(0, 8)]);
  };
  auto oid_atom = [&] {
    static const uint16_t kClasses[] = {0, 1, 0xffff};
    const uint64_t seq = static_cast<uint64_t>(rng.Uniform(0, 4))
                         << (rng.Uniform(0, 1) * 40);
    return Value::MakeOidValue(MakeOid(kClasses[rng.Uniform(0, 2)], seq));
  };
  auto string_atom = [&] {
    std::string str;
    switch (rng.Uniform(0, 5)) {
      case 0:
        break;  // empty
      case 1:  // shares the 8-byte prefix, differs after it
        str = std::string(kPrefix) +
              rng.NextString(static_cast<int>(rng.Uniform(0, 2)));
        break;
      case 2:  // a prefix of the prefix, or it with trailing NULs
        str = std::string(kPrefix, static_cast<size_t>(rng.Uniform(0, 8)));
        str.append(static_cast<size_t>(rng.Uniform(0, 2)), '\0');
        break;
      case 3:  // embedded NULs
        str = std::string("ab\0", 3) + rng.NextString(1);
        break;
      case 4:  // bytes >= 0x80 must sort after ASCII
        str = std::string(1, static_cast<char>(0x80 + rng.Uniform(0, 0x7f))) +
              rng.NextString(1);
        break;
      default:
        str = rng.NextString(static_cast<int>(rng.Uniform(1, 10)));
        break;
    }
    return Value::String(std::move(str));
  };
  auto keyed = [&](Value k) {
    return Value::Tuple({Field("k", std::move(k)),
                         Field("v", Value::Int(rng.Uniform(0, 2)))});
  };
  switch (family) {
    case 0:
      return int_atom();
    case 1:
      return oid_atom();
    case 2:
      return string_atom();
    case 3:
      return keyed(int_atom());
    case 4:
      return keyed(oid_atom());
    case 5:
      return keyed(string_atom());
    case 6:  // every key equal: Compare decides every pair
      return keyed(Value::String(std::string(kPrefix) + "tail"));
    case 7:  // int and double first fields: no single key kind
      return keyed(rng.Bernoulli(0.5)
                       ? int_atom()
                       : Value::Double(rng.Uniform(-2, 2) / 2.0));
    default:  // mixed shapes and kinds
      switch (rng.Uniform(0, 2)) {
        case 0:
          return keyed(string_atom());
        case 1:
          return Value::Tuple({Field("k", string_atom()),
                               Field("v", Value::Int(rng.Uniform(0, 2))),
                               Field("w", Value::Null())});
        default:
          return string_atom();
      }
  }
}

TEST_P(ValuePropertyTest, KeyPrefixSortMatchesStdSort) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 700);
  for (int round = 0; round < 20 * kKeySortFamilies; ++round) {
    const int family = round % kKeySortFamilies;
    std::vector<Value> rows;
    const int n = static_cast<int>(rng.Uniform(0, 40));
    for (int i = 0; i < n; ++i) rows.push_back(KeySortRow(rng, family));
    std::vector<Value> expected = rows;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());

    std::vector<Value> actual = rows;
    Value::Canonicalize(actual);
    ASSERT_EQ(actual.size(), expected.size()) << "family " << family;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].Compare(expected[i]), 0)
          << "family " << family << " row " << i << ": "
          << actual[i].ToString() << " vs " << expected[i].ToString();
      EXPECT_EQ(actual[i].ToString(), expected[i].ToString());
    }
    EXPECT_EQ(Value::Set(rows), Value::SetFromCanonical(expected));

    // Non-decreasing input only drops its duplicates, without a sort.
    std::vector<Value> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_FALSE(Value::Canonicalize(sorted));
    EXPECT_EQ(Value::SetFromCanonical(sorted),
              Value::SetFromCanonical(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValuePropertyTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace n2j
