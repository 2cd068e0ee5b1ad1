// Selection pushdown through the join family.

#include <gtest/gtest.h>

#include "adl/analysis.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::CheckEquivalence;
using testutil::TranslateOrDie;

class PushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    XYConfig config;
    config.seed = 83;
    config.x_rows = 30;
    config.y_rows = 30;
    ASSERT_TRUE(AddRandomXY(db_.get(), config).ok());
  }
  std::unique_ptr<Database> db_;
};

/// True if somewhere a Select sits directly on the given table.
bool SelectsDirectlyOn(const ExprPtr& e, const std::string& table) {
  bool found = false;
  VisitPreOrder(e, [&](const ExprPtr& n) {
    if (n->kind() == ExprKind::kSelect &&
        n->child(0)->kind() == ExprKind::kGetTable &&
        n->child(0)->name() == table) {
      found = true;
    }
  });
  return found;
}

TEST_F(PushdownTest, LeftOnlyConjunctMovesBelowSemiJoin) {
  // x.a > 1 applies to X alone; the quantifier becomes the semijoin and
  // the scalar conjunct pushes below it.
  ExprPtr e = TranslateOrDie(
      *db_,
      "select x from x in X where x.a > 1 and "
      "(exists y in Y : y.a = x.a)");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("PushSelectionIntoJoin(left)")) << r.TraceToString();
  EXPECT_TRUE(SelectsDirectlyOn(r.expr, "X")) << AlgebraStr(r.expr);
  // The top of the plan is the semijoin itself, no residual selection.
  EXPECT_EQ(r.expr->kind(), ExprKind::kSemiJoin);
}

TEST_F(PushdownTest, BothSidesOfARegularJoin) {
  // Hand-built: σ[z : z.xa > 0 ∧ z.e > 1](X' ⋈ Y) with X' = α[(xa=a)](X).
  ExprPtr renamed = Expr::Map(
      "x0", Expr::TupleConstruct({"xa"},
                                 {Expr::Access(Expr::Var("x0"), "a")}),
      Expr::Table("X"));
  ExprPtr join = Expr::Join(renamed, Expr::Table("Y"), "x", "y",
                            Expr::Eq(Expr::Access(Expr::Var("x"), "xa"),
                                     Expr::Access(Expr::Var("y"), "a")));
  ExprPtr e = Expr::Select(
      "z",
      Expr::And(Expr::Bin(BinOp::kGt, Expr::Access(Expr::Var("z"), "xa"),
                          Expr::Const(Value::Int(0))),
                Expr::Bin(BinOp::kGt, Expr::Access(Expr::Var("z"), "e"),
                          Expr::Const(Value::Int(1)))),
      join);
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("PushSelectionIntoJoin(left)")) << r.TraceToString();
  EXPECT_TRUE(r.Fired("PushSelectionIntoJoin(right)")) << r.TraceToString();
  // No residual selection remains above the join.
  EXPECT_EQ(r.expr->kind(), ExprKind::kJoin) << AlgebraStr(r.expr);
  EXPECT_TRUE(SelectsDirectlyOn(r.expr, "Y")) << AlgebraStr(r.expr);
}

TEST_F(PushdownTest, MultiRangePairingQueryBecomesFlatJoinAndPlaces) {
  // The surface form of the same query: Rule 2 turns the from-clause
  // into one flat join and puts each one-variable conjunct on its own
  // range, below the (x = x) / (y = y) wraps that keep X.a and Y.a apart.
  ExprPtr e = TranslateOrDie(
      *db_,
      "select (xa = x.a, ye = y.e) from x in X, y in Y "
      "where x.a = y.a and x.a > 0 and y.e > 1");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("Rule2-MapNestingToJoin")) << r.TraceToString();
  EXPECT_FALSE(r.Fired("NestJoinRewrite")) << r.TraceToString();
  EXPECT_TRUE(SelectsDirectlyOn(r.expr, "X")) << AlgebraStr(r.expr);
  EXPECT_TRUE(SelectsDirectlyOn(r.expr, "Y")) << AlgebraStr(r.expr);
}

TEST_F(PushdownTest, GroupAttributeConjunctStaysAboveNestJoin) {
  // count(Yp) > 0 needs the nestjoin's group attribute: it must stay
  // above; the x-only conjunct pushes below.
  ExprPtr e = TranslateOrDie(
      *db_,
      "select x from x in X where x.a >= 0 and count(Yp) >= 1 "
      "with Yp = select y from y in Y where y.a = x.a");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("NestJoinRewrite")) << r.TraceToString();
  EXPECT_TRUE(r.Fired("PushSelectionIntoJoin(left)")) << r.TraceToString();
  // There is still a selection above the nestjoin (for the count).
  bool select_above_nestjoin = false;
  VisitPreOrder(r.expr, [&](const ExprPtr& n) {
    if (n->kind() == ExprKind::kSelect &&
        n->child(0)->kind() == ExprKind::kNestJoin) {
      select_above_nestjoin = true;
    }
  });
  EXPECT_TRUE(select_above_nestjoin) << AlgebraStr(r.expr);
}

TEST_F(PushdownTest, WholeTupleUseBlocksPushdown) {
  // x ∈ {…} uses the tuple wholesale: not pushable through the semijoin
  // output, must stay residual. (Still correct.)
  ExprPtr in_pred = Expr::Bin(
      BinOp::kIn, Expr::Var("z"),
      Expr::Const(Value::Set({Value::Tuple(
          {Field("a", Value::Int(1)), Field("c", Value::EmptySet())})})));
  ExprPtr semijoin = Expr::SemiJoin(
      Expr::Table("X"), Expr::Table("Y"), "x", "y",
      Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
               Expr::Access(Expr::Var("y"), "a")));
  ExprPtr e = Expr::Select("z", in_pred, semijoin);
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_FALSE(r.Fired("PushSelectionIntoJoin(left)")) << r.TraceToString();
}

TEST_F(PushdownTest, DisabledByOption) {
  RewriteOptions opts;
  opts.enable_pushdown = false;
  ExprPtr e = TranslateOrDie(
      *db_,
      "select x from x in X where x.a > 1 and "
      "(exists y in Y : y.a = x.a)");
  RewriteResult r = CheckEquivalence(*db_, e, opts);
  EXPECT_FALSE(r.Fired("PushSelectionIntoJoin(left)"));
}

TEST_F(PushdownTest, AntiJoinPushdownIsEquivalent) {
  ExprPtr e = TranslateOrDie(
      *db_,
      "select x from x in X where x.a <> 3 and "
      "not exists y in Y : y.a = x.a");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("PushSelectionIntoJoin(left)")) << r.TraceToString();
  EXPECT_EQ(r.expr->kind(), ExprKind::kAntiJoin);
}

TEST_F(PushdownTest, JoinPredicateOneSidedConjunctsPush) {
  // p.price-style conjuncts inside the join predicate move into the
  // operands (right side for all join kinds; left side only for ⋈/⋉).
  ExprPtr e = TranslateOrDie(
      *db_,
      "select x from x in X where exists y in Y : "
      "y.a = x.a and y.e > 1 and x.a < 5");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("PushJoinPredicate(right)") ||
              r.Fired("PushSelectionIntoJoin(right)"))
      << r.TraceToString();
  EXPECT_TRUE(SelectsDirectlyOn(r.expr, "Y")) << AlgebraStr(r.expr);
}

TEST_F(PushdownTest, AntiJoinNeverPushesLeftConjunctsFromPredicate) {
  // X ▷_{q(x) ∧ p} Y keeps x when q(x) is false; pushing q into X would
  // drop it. The rewriter must not do that — and the query must agree
  // with nested loops (which CheckEquivalence asserts).
  ExprPtr pred = Expr::And(
      Expr::Bin(BinOp::kGt, Expr::Access(Expr::Var("x"), "a"),
                Expr::Const(Value::Int(2))),
      Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
               Expr::Access(Expr::Var("y"), "a")));
  ExprPtr e =
      Expr::AntiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y", pred);
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_FALSE(r.Fired("PushJoinPredicate(left)")) << r.TraceToString();
  EXPECT_FALSE(SelectsDirectlyOn(r.expr, "X")) << AlgebraStr(r.expr);
}

TEST_F(PushdownTest, NestJoinPushesRightButNotLeft) {
  ExprPtr pred = Expr::AndAll(
      {Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
                Expr::Access(Expr::Var("y"), "a")),
       Expr::Bin(BinOp::kGt, Expr::Access(Expr::Var("y"), "e"),
                 Expr::Const(Value::Int(1))),
       Expr::Bin(BinOp::kGt, Expr::Access(Expr::Var("x"), "a"),
                 Expr::Const(Value::Int(0)))});
  ExprPtr e = Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                             pred, "ys");
  RewriteResult r = CheckEquivalence(*db_, e);
  EXPECT_TRUE(r.Fired("PushJoinPredicate(right)")) << r.TraceToString();
  EXPECT_FALSE(r.Fired("PushJoinPredicate(left)")) << r.TraceToString();
  EXPECT_TRUE(SelectsDirectlyOn(r.expr, "Y")) << AlgebraStr(r.expr);
  EXPECT_FALSE(SelectsDirectlyOn(r.expr, "X")) << AlgebraStr(r.expr);
}

TEST(JoinPredicatePushdown, MayRaiseConjunctStaysInTheResidual) {
  // s.sname = p.pname never holds, so the nested loop never reaches the
  // division. Pushed below the semijoin, the conjunct would run on every
  // part and raise division by zero.
  std::unique_ptr<Database> db = testutil::SmallSupplierDb();
  ExprPtr e = TranslateOrDie(
      *db,
      "select s.sname from s in SUPPLIER where exists p in PART : "
      "s.sname = p.pname and 1 / (p.price - p.price) = 1");
  Evaluator naive(*db);
  Result<Value> expected = naive.Eval(e);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected->set_size(), 0u);

  RewriteResult r = testutil::RewriteExpr(*db, e);
  EXPECT_FALSE(r.Fired("PushJoinPredicate(right)")) << r.TraceToString();
  Evaluator ev(*db);
  Result<Value> actual = ev.Eval(r.expr);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString() << "\n"
                           << AlgebraStr(r.expr);
  EXPECT_EQ(*expected, *actual);
}

}  // namespace
}  // namespace n2j
