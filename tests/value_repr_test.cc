// Property tests of the compact Value representation itself: the
// 16-byte tagged union, interned TupleShape identity (including across
// threads — this file runs under the TSan CI job), memoized hashing,
// and canonical-form stability under rebuild. value_property_test.cc
// checks the algebraic laws; this file checks the representation
// invariants those laws are implemented on top of.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "adl/tuple_shape.h"
#include "adl/value.h"
#include "common/rng.h"

namespace n2j {
namespace {

/// Random nested value (same distribution as value_property_test.cc).
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

/// Rebuilds `v` from scratch through the public factories: no payload
/// sharing with the original, all memo fields start unset. The rebuilt
/// value must be indistinguishable from the original.
Value Rebuild(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool:
      return Value::Bool(v.bool_value());
    case Value::Kind::kInt:
      return Value::Int(v.int_value());
    case Value::Kind::kDouble:
      return Value::Double(v.double_value());
    case Value::Kind::kString:
      return Value::String(std::string(v.string_value()));
    case Value::Kind::kOid:
      return Value::MakeOidValue(v.oid_value());
    case Value::Kind::kTuple: {
      std::vector<Field> fields;
      for (size_t i = 0; i < v.tuple_size(); ++i) {
        fields.emplace_back(v.field_name(i), Rebuild(v.field_value(i)));
      }
      return Value::Tuple(std::move(fields));
    }
    case Value::Kind::kSet: {
      std::vector<Value> elems;
      for (const Value& e : v.elements()) elems.push_back(Rebuild(e));
      return Value::Set(std::move(elems));
    }
  }
  N2J_CHECK(false);
}

TEST(ValueReprTest, ValueIsASixteenByteTaggedUnion) {
  // Also a static_assert in value.h; asserted here so a regression
  // shows up as a named test failure, not just a build break.
  EXPECT_LE(sizeof(Value), 16u);
  EXPECT_LE(sizeof(Field), sizeof(std::string) + sizeof(Value));
}

class ValueReprPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ValueReprPropertyTest, RebuildIsIndistinguishable) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  for (int round = 0; round < 60; ++round) {
    Value v = RandomValue(rng, 3);
    Value w = Rebuild(v);
    EXPECT_EQ(v, w);
    EXPECT_EQ(v.Compare(w), 0);
    EXPECT_EQ(v.Hash(), w.Hash());
    EXPECT_EQ(v.ToString(), w.ToString());
    if (v.is_set()) {
      // Canonical form is stable: element order survives the rebuild.
      ASSERT_EQ(v.set_size(), w.set_size());
      for (size_t i = 0; i < v.set_size(); ++i) {
        EXPECT_EQ(v.elements()[i], w.elements()[i]);
      }
    }
  }
}

TEST_P(ValueReprPropertyTest, MemoizedHashEqualsFreshRecompute) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  for (int round = 0; round < 60; ++round) {
    Value v = RandomValue(rng, 3);
    uint64_t first = v.Hash();         // computes and memoizes
    uint64_t memoized = v.Hash();      // served from the memo
    uint64_t fresh = Rebuild(v).Hash();  // recomputed on new payloads
    EXPECT_EQ(first, memoized);
    EXPECT_EQ(first, fresh) << v.ToString();
  }
}

TEST_P(ValueReprPropertyTest, CopiesSharePayloadAndCompareByIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 3000);
  for (int round = 0; round < 40; ++round) {
    Value v = RandomValue(rng, 2);
    Value copy = v;  // refcount bump, not a deep copy
    EXPECT_EQ(v, copy);
    EXPECT_EQ(v.Compare(copy), 0);
    EXPECT_EQ(v.Hash(), copy.Hash());
    if (v.is_tuple()) {
      EXPECT_EQ(v.tuple_shape(), copy.tuple_shape());
      EXPECT_EQ(v.tuple_values().data(), copy.tuple_values().data());
    }
    if (v.is_set()) {
      EXPECT_EQ(&v.elements(), &copy.elements());
    }
  }
}

TEST_P(ValueReprPropertyTest, EqualTuplesShareTheInternedShape) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 4000);
  for (int round = 0; round < 40; ++round) {
    std::vector<Field> f1, f2;
    int n = static_cast<int>(rng.Uniform(1, 4));
    for (int i = 0; i < n; ++i) {
      std::string name(1, static_cast<char>('a' + i));
      f1.emplace_back(name, RandomValue(rng, 1));
      f2.emplace_back(name, RandomValue(rng, 1));
    }
    Value t1 = Value::Tuple(std::move(f1));
    Value t2 = Value::Tuple(std::move(f2));
    // Same field names in the same order → the same shape pointer,
    // independently of the values.
    EXPECT_EQ(t1.tuple_shape(), t2.tuple_shape());
  }
}

TEST(ValueReprTest, ShapeInterningIsStableAcrossThreads) {
  // Hammer the intern registry and the derived-shape memos from many
  // threads; all threads must observe identical shape pointers. Run
  // under TSan (the CI thread-sanitizer job builds this test) this
  // also proves the registry locking is race-free.
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::string> base = {"a", "b", "c"};
  const TupleShape* expected = TupleShape::Intern(base);
  const TupleShape* expected_ext = expected->ExtendedWith("d");
  const TupleShape* expected_rem = expected->WithoutField("b");
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::string> names = {"a", "b", "c"};
        const TupleShape* s = TupleShape::Intern(std::move(names));
        if (s != expected) ++mismatches[t];
        if (s->ExtendedWith("d") != expected_ext) ++mismatches[t];
        if (s->WithoutField("b") != expected_rem) ++mismatches[t];
        // A per-thread-unique shape interned twice must also agree
        // with itself.
        std::vector<std::string> uniq = {"t" + std::to_string(t),
                                         "r" + std::to_string(r % 7)};
        if (TupleShape::Intern(uniq) != TupleShape::Intern(uniq)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(ValueReprTest, ConcurrentHashingOfASharedValueIsConsistent) {
  // The hash memo is written racily-but-idempotently (all writers store
  // the same value); under TSan this asserts the atomics are enough.
  Rng rng(99);
  Value v = RandomValue(rng, 3);
  while (!v.is_set() || v.set_size() == 0) v = RandomValue(rng, 3);
  const uint64_t expected = Rebuild(v).Hash();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<uint64_t> got(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = v.Hash(); });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected);
}

TEST(ValueReprTest, ApproxBytesCountsPayloadsOnce) {
  // Atoms are wholly inline.
  EXPECT_EQ(Value::Int(7).ApproxBytes(), sizeof(Value));
  EXPECT_EQ(Value::Bool(true).ApproxBytes(), sizeof(Value));
  // Containers charge their payload plus children; a copy adds nothing
  // (shared payload), so the estimate is per distinct allocation.
  Value t = Value::Tuple({Field("a", Value::Int(1))});
  Value copy = t;
  EXPECT_EQ(t.ApproxBytes(), copy.ApproxBytes());
  EXPECT_GT(t.ApproxBytes(), sizeof(Value));
  // Nesting grows the estimate monotonically.
  Value outer = Value::Tuple({Field("inner", t)});
  EXPECT_GT(outer.ApproxBytes(), t.ApproxBytes());
}

TEST(ValueReprTest, ApproxBytesChargesHeaderPlusSixteenBytesPerField) {
  // A tuple is one allocation: a 24-byte header (refcount, arity, shape
  // pointer, hash memo) followed by one 16-byte Value per field.
  const size_t empty = Value::Tuple({}).ApproxBytes();
  EXPECT_EQ(empty, sizeof(Value) + 24);
  Value three = Value::Tuple({Field("a", Value::Int(1)),
                              Field("b", Value::Double(2.5)),
                              Field("c", Value::Null())});
  EXPECT_EQ(three.ApproxBytes(), empty + 3 * sizeof(Value));
  // A field that owns a payload adds that payload on top of its slot.
  Value s = Value::String("abc");
  Value with_string = Value::Tuple({Field("a", Value::Int(1)), Field("s", s)});
  EXPECT_EQ(with_string.ApproxBytes(), empty + sizeof(Value) + s.ApproxBytes());
}

TEST(ValueReprTest, NewTupleFillsFieldsInPlace) {
  const TupleShape* shape = TupleShape::Intern({"a", "b"});
  Value* slots = nullptr;
  Value t = Value::NewTuple(shape, &slots);
  ASSERT_NE(slots, nullptr);
  // Fields start null and are written through the slot pointer.
  EXPECT_TRUE(t.field_value(0).is_null());
  EXPECT_TRUE(t.field_value(1).is_null());
  slots[0] = Value::Int(1);
  slots[1] = Value::String("x");
  Value built = Value::Tuple({Field("a", Value::Int(1)),
                              Field("b", Value::String("x"))});
  EXPECT_EQ(t.tuple_shape(), built.tuple_shape());
  EXPECT_EQ(t, built);
  EXPECT_EQ(t.Hash(), built.Hash());
  EXPECT_EQ(t.tuple_values().data(), slots);
  EXPECT_EQ(t.tuple_size(), 2u);
  // The empty shape gives the empty tuple.
  Value* none = nullptr;
  Value e = Value::NewTuple(TupleShape::Empty(), &none);
  EXPECT_EQ(e, Value::Tuple({}));
  EXPECT_EQ(e.tuple_size(), 0u);
}

TEST(ValueReprTest, DerivedTupleBuildersMatchTheirGeneralForms) {
  Value x = Value::Tuple({Field("a", Value::Int(1)),
                          Field("c", Value::Set({Value::Int(2)})),
                          Field("b", Value::String("s"))});
  Value y = Value::Tuple({Field("d", Value::Int(4))});
  const TupleShape* xy = x.tuple_shape()->ConcatWith(y.tuple_shape());
  EXPECT_EQ(x.ConcatTupleAs(xy, y), x.ConcatTuple(y));
  EXPECT_EQ(x.WithoutFieldAs(x.tuple_shape()->WithoutField("c"), 1),
            x.WithoutField("c"));
  const TupleShape* ext = x.tuple_shape()->ExtendedWith("g");
  EXPECT_EQ(x.AppendField(ext, Value::Int(9)),
            x.ExceptUpdate({Field("g", Value::Int(9))}));
}

TEST(ValueReprTest, SetOfIncreasingElementsKeepsThemAsGiven) {
  // Strictly increasing input is already canonical; anything else is
  // still sorted and deduplicated.
  std::vector<Value> increasing = {Value::Int(1), Value::Int(3),
                                   Value::String("a")};
  Value s = Value::Set(increasing);
  ASSERT_EQ(s.set_size(), 3u);
  for (size_t i = 0; i < increasing.size(); ++i) {
    EXPECT_EQ(s.elements()[i], increasing[i]);
  }
  Value dup = Value::Set({Value::Int(1), Value::Int(3), Value::Int(3)});
  EXPECT_EQ(dup, Value::Set({Value::Int(3), Value::Int(1)}));
  EXPECT_EQ(dup.set_size(), 2u);
  Value inverted = Value::Set({Value::Int(1), Value::Int(5), Value::Int(2)});
  EXPECT_EQ(inverted.elements()[1], Value::Int(2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueReprPropertyTest,
                         ::testing::Range(1, 6));

}  // namespace
}  // namespace n2j
