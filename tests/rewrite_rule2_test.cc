// Rule 2 in its general form: a k-variable from-clause becomes one flat
// join graph, with each where-conjunct on the lowest range or join that
// binds it.

#include <gtest/gtest.h>

#include "adl/analysis.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::CheckEquivalence;
using testutil::EvalExpr;
using testutil::RewriteExpr;
using testutil::TranslateOrDie;

size_t CountKind(const ExprPtr& e, ExprKind kind) {
  size_t n = 0;
  VisitPreOrder(e, [&](const ExprPtr& x) { n += x->kind() == kind ? 1 : 0; });
  return n;
}

class Rule2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    XYConfig xy;
    xy.seed = 17;
    xy.x_rows = 30;
    xy.y_rows = 30;
    ASSERT_TRUE(AddRandomXY(db_.get(), xy).ok());
    xy.seed = 19;
    ASSERT_TRUE(AddRandomXY(db_.get(), xy, "Z", "W").ok());
  }
  std::unique_ptr<Database> db_;
};

TEST_F(Rule2Test, ChainOfThreeBecomesTwoJoins) {
  // X, Y and W all have an attribute a, Y and W share e: the joins run
  // over (x = x)-wrapped ranges, so nothing collides.
  ExprPtr e = TranslateOrDie(
      *db_,
      "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
      "where x.a = y.a and y.e = w.a");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("Rule2-MapNestingToJoin")) << r.TraceToString();
  EXPECT_EQ(CountKind(r.expr, ExprKind::kJoin), 2u) << AlgebraStr(r.expr);
  EXPECT_EQ(CountKind(r.expr, ExprKind::kNestJoin), 0u) << AlgebraStr(r.expr);
  EXPECT_EQ(CountKind(r.expr, ExprKind::kFlatten), 0u) << AlgebraStr(r.expr);
  EXPECT_FALSE(testutil::HasNestedBaseTable(r.expr)) << AlgebraStr(r.expr);
}

TEST_F(Rule2Test, ConjunctsLandOnTheLowestBindingRange) {
  ExprPtr e = TranslateOrDie(
      *db_,
      "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
      "where x.a = y.a and w.e > 2 and y.e = w.a and x.a < 6");
  RewriteResult r = CheckEquivalence(*db_, e);
  // x.a < 6 filters X and w.e > 2 filters W below their wraps; each
  // join predicate is one equality.
  EXPECT_NE(AlgebraStr(r.expr).find("σ[x : x.a < 6](X)"), std::string::npos)
      << AlgebraStr(r.expr);
  EXPECT_NE(AlgebraStr(r.expr).find("σ[w : w.e > 2](W)"), std::string::npos)
      << AlgebraStr(r.expr);
  VisitPreOrder(r.expr, [](const ExprPtr& n) {
    if (n->kind() == ExprKind::kJoin) {
      EXPECT_EQ(SplitConjuncts(n->pred()).size(), 1u) << AlgebraStr(n);
    }
  });
}

TEST_F(Rule2Test, UnlinkedRangeStaysNestedOverTheJoin) {
  // No conjunct links W: joining it would be a product, so it stays a
  // nested range over the X–Y join.
  ExprPtr e = TranslateOrDie(*db_,
                             "select (p = x.a, q = y.e, r = w.e) "
                             "from x in X, y in Y, w in W where x.a = y.a");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_EQ(CountKind(r.expr, ExprKind::kJoin), 1u) << AlgebraStr(r.expr);
  EXPECT_EQ(CountKind(r.expr, ExprKind::kFlatten), 1u) << AlgebraStr(r.expr);
}

TEST_F(Rule2Test, DependentRangeTakesItsOuterConjunctAlong) {
  // Example Query 3.1's shape: t.sname-style conjuncts over the outer
  // variable leave the dependent range for a σ on the outer one.
  ExprPtr e = TranslateOrDie(
      *db_, "select z from x in X, z in x.c where x.a = 3 and z.d > 1");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("Rule2-PlaceConjuncts")) << r.TraceToString();
  EXPECT_EQ(AlgebraStr(r.expr),
            "⋃(α[x : σ[z : z.d > 1](x.c)](σ[x : x.a = 3](X)))");
}

TEST_F(Rule2Test, IndependentRangesJoinBeforeADependentOne) {
  ExprPtr e = TranslateOrDie(
      *db_,
      "select (a = x.a, d = z.d) from x in X, z in x.c, y in Y "
      "where z.d = x.a and x.a = y.a and y.e > 0");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("Rule2-MapNestingToJoin")) << r.TraceToString();
  EXPECT_EQ(CountKind(r.expr, ExprKind::kJoin), 1u) << AlgebraStr(r.expr);
}

TEST_F(Rule2Test, ConjunctThatMayRaiseStaysWhereTheNaivePlanRunsIt) {
  // 10 / (x.a - 5) divides by zero for x.a = 5, which has no Q partner:
  // the naive plan never evaluates it there. Pushing it onto P would
  // raise, so it filters the join's output instead, and selection
  // pushdown leaves it there.
  Database db;
  for (const char* t : {"P", "Q"}) {
    ASSERT_TRUE(db.CreateTable(t, Type::Tuple({{"a", Type::Int()},
                                               {"e", Type::Int()}}))
                    .ok());
  }
  auto row = [](int a, int e) {
    return Value::Tuple({Field("a", Value::Int(a)), Field("e", Value::Int(e))});
  };
  ASSERT_TRUE(db.Insert("P", row(1, 0)).ok());
  ASSERT_TRUE(db.Insert("P", row(5, 0)).ok());
  ASSERT_TRUE(db.Insert("P", row(7, 0)).ok());
  ASSERT_TRUE(db.Insert("Q", row(1, 2)).ok());
  ASSERT_TRUE(db.Insert("Q", row(7, 3)).ok());
  ExprPtr e = TranslateOrDie(
      db,
      "select (a = x.a, e = y.e) from x in P, y in Q "
      "where x.a = y.a and 10 / (x.a - 5) > 0");
  RewriteResult r = CheckEquivalence(db, e);
  EXPECT_TRUE(r.Fired("Rule2-MapNestingToJoin")) << r.TraceToString();
  EXPECT_FALSE(r.Fired("PushSelectionIntoJoin(left)")) << r.TraceToString();
  bool division_over_join = false;
  VisitPreOrder(r.expr, [&](const ExprPtr& n) {
    if (n->kind() == ExprKind::kSelect &&
        n->child(0)->kind() == ExprKind::kJoin) {
      division_over_join = true;
    }
  });
  EXPECT_TRUE(division_over_join) << AlgebraStr(r.expr);
  EXPECT_EQ(EvalExpr(db, r.expr).set_size(), 1u);
}

TEST_F(Rule2Test, DisabledWithMapJoin) {
  RewriteOptions opts;
  opts.enable_map_join = false;
  ExprPtr e = TranslateOrDie(
      *db_,
      "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
      "where x.a = y.a and y.e = w.a");
  RewriteResult r = CheckEquivalence(*db_, e, opts);
  EXPECT_FALSE(r.Fired("Rule2-MapNestingToJoin")) << r.TraceToString();
  EXPECT_FALSE(r.Fired("Rule2-PlaceConjuncts")) << r.TraceToString();
}

TEST_F(Rule2Test, RewriteIsAFixpoint) {
  ExprPtr e = TranslateOrDie(
      *db_,
      "select (xa = x.a, d = z.d) from x in X, y in Y, z in x.c "
      "where x.a = y.a and z.d = y.e");
  RewriteResult once = RewriteExpr(*db_, e);
  RewriteResult twice = RewriteExpr(*db_, once.expr);
  EXPECT_TRUE(twice.expr->Equals(*once.expr))
      << AlgebraStr(once.expr) << "\n" << AlgebraStr(twice.expr);
}

}  // namespace
}  // namespace n2j
