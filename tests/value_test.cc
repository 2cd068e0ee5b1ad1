#include "adl/value.h"

#include <gtest/gtest.h>

namespace n2j {
namespace {

Value T2(const char* f1, int64_t v1, const char* f2, int64_t v2) {
  return Value::Tuple({Field(f1, Value::Int(v1)), Field(f2, Value::Int(v2))});
}

TEST(ValueTest, AtomBasics) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
  Oid oid = MakeOid(3, 17);
  EXPECT_EQ(Value::MakeOidValue(oid).oid_value(), oid);
  EXPECT_EQ(OidClassId(oid), 3);
  EXPECT_EQ(OidSeq(oid), 17u);
}

TEST(ValueTest, NumericComparisonAcrossKinds) {
  EXPECT_EQ(Value::Int(1), Value::Double(1.0));
  EXPECT_LT(Value::Int(1), Value::Double(1.5));
  EXPECT_LT(Value::Double(0.5), Value::Int(1));
  // Hash must agree with equality for integral doubles.
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
}

TEST(ValueTest, TupleFieldAccess) {
  Value t = T2("a", 1, "b", 2);
  ASSERT_TRUE(t.is_tuple());
  EXPECT_EQ(t.FindField("a")->int_value(), 1);
  EXPECT_EQ(t.FindField("b")->int_value(), 2);
  EXPECT_EQ(t.FindField("c"), nullptr);
  EXPECT_EQ(t.FieldNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(ValueTest, TupleProjectPreservesRequestedOrder) {
  Value t = T2("a", 1, "b", 2);
  Value p = t.ProjectTuple({"b", "a"});
  EXPECT_EQ(p.field_name(0), "b");
  EXPECT_EQ(p.field_name(1), "a");
}

TEST(ValueTest, TupleConcat) {
  Value t = T2("a", 1, "b", 2).ConcatTuple(
      Value::Tuple({Field("c", Value::Int(3))}));
  EXPECT_EQ(t.tuple_size(), 3u);
  EXPECT_EQ(t.FindField("c")->int_value(), 3);
}

TEST(ValueTest, ExceptUpdatesAndExtends) {
  Value t = T2("a", 1, "b", 2);
  Value u = t.ExceptUpdate(
      {Field("b", Value::Int(20)), Field("c", Value::Int(3))});
  EXPECT_EQ(u.FindField("a")->int_value(), 1);
  EXPECT_EQ(u.FindField("b")->int_value(), 20);
  EXPECT_EQ(u.FindField("c")->int_value(), 3);
}

TEST(ValueTest, SetCanonicalization) {
  Value s = Value::Set({Value::Int(3), Value::Int(1), Value::Int(3),
                        Value::Int(2)});
  ASSERT_EQ(s.set_size(), 3u);
  EXPECT_EQ(s.elements()[0].int_value(), 1);
  EXPECT_EQ(s.elements()[2].int_value(), 3);
  // Order-insensitive equality.
  EXPECT_EQ(s, Value::Set({Value::Int(2), Value::Int(3), Value::Int(1)}));
}

TEST(ValueTest, SetMembershipAndSubset) {
  Value s = Value::Set({Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_TRUE(s.SetContains(Value::Int(2)));
  EXPECT_FALSE(s.SetContains(Value::Int(9)));
  Value sub = Value::Set({Value::Int(1), Value::Int(3)});
  EXPECT_TRUE(sub.IsSubsetOf(s, false));
  EXPECT_TRUE(sub.IsSubsetOf(s, true));
  EXPECT_TRUE(s.IsSubsetOf(s, false));
  EXPECT_FALSE(s.IsSubsetOf(s, true));   // not a proper subset of itself
  EXPECT_FALSE(s.IsSubsetOf(sub, false));
}

TEST(ValueTest, EmptySetEdgeCases) {
  Value e = Value::EmptySet();
  Value s = Value::Set({Value::Int(1)});
  EXPECT_TRUE(e.IsSubsetOf(s, false));
  EXPECT_TRUE(e.IsSubsetOf(s, true));
  EXPECT_TRUE(e.IsSubsetOf(e, false));
  EXPECT_FALSE(e.IsSubsetOf(e, true));
  EXPECT_FALSE(s.IsSubsetOf(e, false));
  EXPECT_EQ(e.set_size(), 0u);
}

TEST(ValueTest, SetAlgebra) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(3)});
  EXPECT_EQ(a.SetUnion(b),
            Value::Set({Value::Int(1), Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(a.SetIntersect(b), Value::Set({Value::Int(2)}));
  EXPECT_EQ(a.SetDifference(b), Value::Set({Value::Int(1)}));
}

TEST(ValueTest, SetUnionMoveMatchesSetUnion) {
  auto ints = [](std::vector<int> xs) {
    std::vector<Value> v;
    for (int x : xs) v.push_back(Value::Int(x));
    return Value::Set(std::move(v));
  };
  // Unique owner, overlapping (merge path) and disjoint-after (append
  // path) right-hand sides, and empty operands on either side.
  const std::vector<std::pair<Value, Value>> cases = {
      {ints({1, 3, 5}), ints({2, 3, 6})}, {ints({1, 2}), ints({3, 4})},
      {ints({}), ints({1})},              {ints({1}), ints({})},
      {ints({5}), ints({1, 5})}};
  for (const auto& [a, b] : cases) {
    Value want = a.SetUnion(b);
    Value owned = Value::Set(a.elements());  // a payload nobody else holds
    Value got = std::move(owned).SetUnionMove(b);
    EXPECT_EQ(got, want) << a.ToString() << " u " << b.ToString();
    EXPECT_EQ(got.set_size(), want.set_size());
  }
  // A shared payload is never reused: the other holder keeps its set.
  Value shared = ints({1, 2});
  Value holder = shared;
  Value got = std::move(shared).SetUnionMove(ints({3}));
  EXPECT_EQ(got, ints({1, 2, 3}));
  EXPECT_EQ(holder, ints({1, 2}));
  EXPECT_EQ(holder.set_size(), 2u);
}

TEST(ValueTest, NestedSetEquality) {
  Value s1 = Value::Set({T2("a", 1, "b", 2), T2("a", 3, "b", 4)});
  Value s2 = Value::Set({T2("a", 3, "b", 4), T2("a", 1, "b", 2)});
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.Hash(), s2.Hash());
}

TEST(ValueTest, CompareIsTotalOrderOverKinds) {
  std::vector<Value> vals = {
      Value::Null(),  Value::Bool(false), Value::Int(1),
      Value::String("a"), Value::MakeOidValue(MakeOid(1, 1)),
      T2("a", 1, "b", 2), Value::Set({Value::Int(1)})};
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(vals[i].Compare(vals[i]), 0);
    for (size_t j = i + 1; j < vals.size(); ++j) {
      int ij = vals[i].Compare(vals[j]);
      int ji = vals[j].Compare(vals[i]);
      EXPECT_EQ(ij, -ji) << i << " vs " << j;
      EXPECT_NE(ij, 0) << i << " vs " << j;
    }
  }
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::String("x").ToString(), "\"x\"");
  EXPECT_EQ(T2("a", 1, "b", 2).ToString(), "(a = 1, b = 2)");
  EXPECT_EQ(Value::Set({Value::Int(2), Value::Int(1)}).ToString(), "{1, 2}");
  EXPECT_EQ(Value::EmptySet().ToString(), "{}");
}

TEST(ValueTest, SetsOfSets) {
  Value inner1 = Value::Set({Value::Int(1)});
  Value inner2 = Value::Set({Value::Int(2)});
  Value outer = Value::Set({inner2, inner1, inner1});
  EXPECT_EQ(outer.set_size(), 2u);
  EXPECT_TRUE(outer.SetContains(inner1));
  EXPECT_FALSE(outer.SetContains(Value::EmptySet()));
}

TEST(ValueTest, ApproxBytesGrowsWithContent) {
  Value small = Value::Int(1);
  Value big = Value::Set({T2("a", 1, "b", 2), T2("a", 3, "b", 4)});
  EXPECT_LT(small.ApproxBytes(), big.ApproxBytes());
}

}  // namespace
}  // namespace n2j
