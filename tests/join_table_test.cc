// Tests for the nested executor's flat join build table
// (exec/join_table.h): chain order, key identity under Value equality,
// composite keys, growth, and the empty and missing cases.

#include "exec/join_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "exec/equi_join.h"

namespace n2j {
namespace {

std::vector<uint32_t> Rows(const JoinTable& t, const Value& key) {
  std::vector<uint32_t> rows;
  for (uint32_t row : t.Find(key)) rows.push_back(row);
  return rows;
}

TEST(JoinTableTest, ChainsKeepInsertionOrder) {
  JoinTable t(8);
  t.Insert(Value::Int(7), 4);
  t.Insert(Value::Int(3), 0);
  t.Insert(Value::Int(7), 1);
  t.Insert(Value::Int(7), 9);
  t.Insert(Value::Int(3), 2);
  EXPECT_EQ(Rows(t, Value::Int(7)), (std::vector<uint32_t>{4, 1, 9}));
  EXPECT_EQ(Rows(t, Value::Int(3)), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(t.num_keys(), 2u);
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST(JoinTableTest, DuplicateKeysShareOneKeyId) {
  JoinTable t;
  t.Insert(Value::String("a"), 0);
  t.Insert(Value::String("b"), 1);
  t.Insert(Value::String("a"), 2);
  JoinTable::Chain a = t.Find(Value::String("a"));
  JoinTable::Chain b = t.Find(Value::String("b"));
  EXPECT_EQ(a.key_id(), t.Find(Value::String("a")).key_id());
  EXPECT_NE(a.key_id(), b.key_id());
  EXPECT_LT(a.key_id(), t.num_keys());
  EXPECT_LT(b.key_id(), t.num_keys());
  EXPECT_EQ(Rows(t, Value::String("a")), (std::vector<uint32_t>{0, 2}));
}

TEST(JoinTableTest, IntAndIntegralDoubleMeetAsOneKey) {
  // Value equality treats 1 and 1.0 as equal and hashes them alike, so
  // the build side and the probe side may differ in numeric kind.
  JoinTable t;
  t.Insert(Value::Int(1), 0);
  t.Insert(Value::Double(1.0), 1);
  EXPECT_EQ(t.num_keys(), 1u);
  EXPECT_EQ(Rows(t, Value::Double(1.0)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Rows(t, Value::Int(1)), (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(t.Find(Value::Double(1.5)).empty());
}

TEST(JoinTableTest, TupleAndCompositeKeys) {
  // A projected key p[pid] is a one-field tuple; a composite equi key is
  // a tuple over the k0..kn shape. Equal tuples built separately (no
  // shared payload) are one key.
  JoinTable t;
  auto pid = [](int64_t v) {
    return Value::Tuple({Field("pid", Value::MakeOidValue(MakeOid(1, v)))});
  };
  auto composite = [](int64_t a, const char* b) {
    return JoinKeyFromParts({Value::Int(a), Value::String(b)});
  };
  t.Insert(pid(5), 0);
  t.Insert(composite(5, "x"), 1);
  t.Insert(pid(5), 2);
  t.Insert(composite(5, "y"), 3);
  t.Insert(composite(5, "x"), 4);
  EXPECT_EQ(t.num_keys(), 3u);
  EXPECT_EQ(Rows(t, pid(5)), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Rows(t, composite(5, "x")), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(Rows(t, composite(5, "y")), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(t.Find(pid(6)).empty());
  EXPECT_TRUE(t.Find(composite(6, "x")).empty());
}

TEST(JoinTableTest, GrowsAcrossRehashKeepingChains) {
  // Sized for nothing, so the slot array doubles many times; every chain
  // must survive each rehash intact and in order.
  JoinTable t;
  constexpr int kKeys = 5000;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      t.Insert(Value::Int(k), static_cast<uint32_t>(round * kKeys + k));
    }
  }
  EXPECT_EQ(t.num_keys(), static_cast<size_t>(kKeys));
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(3 * kKeys));
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_EQ(Rows(t, Value::Int(k)),
              (std::vector<uint32_t>{static_cast<uint32_t>(k),
                                     static_cast<uint32_t>(kKeys + k),
                                     static_cast<uint32_t>(2 * kKeys + k)}))
        << k;
  }
}

TEST(JoinTableTest, EmptyBuildFindsNothing) {
  JoinTable t(0);
  EXPECT_EQ(t.num_keys(), 0u);
  JoinTable::Chain c = t.Find(Value::Int(1));
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.key_id(), JoinTable::kEnd);
  EXPECT_FALSE(c.begin() != c.end());
}

TEST(JoinTableTest, MissingKeyFindsNothing) {
  JoinTable t(4);
  t.Insert(Value::Int(1), 0);
  t.Insert(Value::Null(), 1);
  EXPECT_TRUE(t.Find(Value::Int(2)).empty());
  EXPECT_TRUE(t.Find(Value::String("1")).empty());
  EXPECT_EQ(t.Find(Value::Int(2)).key_id(), JoinTable::kEnd);
  EXPECT_EQ(Rows(t, Value::Null()), (std::vector<uint32_t>{1}));
}

TEST(JoinTableTest, PrecomputedHashMatchesFind) {
  // The partitioned build passes hashes it already computed; Find with
  // or without the hash must agree.
  JoinTable t;
  Value k = Value::String("key");
  t.Insert(k, k.Hash(), 3);
  EXPECT_EQ(Rows(t, k), (std::vector<uint32_t>{3}));
  EXPECT_EQ(t.Find(k, k.Hash()).key_id(), t.Find(k).key_id());
}

}  // namespace
}  // namespace n2j
