// Physical join alternatives (Section 6): the same logical join must
// produce identical results under nested-loop, hash, sort-merge and
// index implementations — "the join can be implemented as an index
// nested-loop join, a sort-merge join, a hash join, etc."

#include <gtest/gtest.h>

#include "opt/optimizer.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::EvalExpr;

class JoinAlgorithmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    XYConfig config;
    config.seed = 41;
    config.x_rows = 60;
    config.y_rows = 80;
    config.key_domain = 12;
    ASSERT_TRUE(AddRandomXY(db_.get(), config).ok());
    ASSERT_TRUE(db_->CreateIndex("Y", "a").ok());
  }

  static EvalOptions Opts(JoinAlgorithm algo) {
    EvalOptions opts;
    opts.join_algorithm = algo;
    return opts;
  }

  ExprPtr EqPred() {
    return Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
                    Expr::Access(Expr::Var("y"), "a"));
  }
  ExprPtr ResidualPred() {
    return Expr::And(EqPred(),
                     Expr::Bin(BinOp::kGe, Expr::Access(Expr::Var("y"), "e"),
                               Expr::Const(Value::Int(2))));
  }

  std::unique_ptr<Database> db_;
};

// Every algorithm × every join kind × plain/residual predicates.
class JoinAlgoParam
    : public JoinAlgorithmsTest,
      public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(JoinAlgoParam, AgreesWithNestedLoop) {
  JoinAlgorithm algo =
      static_cast<JoinAlgorithm>(std::get<0>(GetParam()));
  int kind_index = std::get<1>(GetParam());

  for (ExprPtr pred : {EqPred(), ResidualPred()}) {
    ExprPtr join;
    switch (kind_index) {
      case 0: {
        // Full joins over X/Y would collide on attribute a; rename the
        // left key first and equi-join on it.
        ExprPtr renamed = Expr::Map(
            "x0",
            Expr::TupleConstruct({"xa"},
                                 {Expr::Access(Expr::Var("x0"), "a")}),
            Expr::Table("X"));
        ExprPtr jpred = Expr::Eq(Expr::Access(Expr::Var("x"), "xa"),
                                 Expr::Access(Expr::Var("y"), "a"));
        if (pred->Equals(*ResidualPred())) {
          jpred = Expr::And(
              jpred, Expr::Bin(BinOp::kGe, Expr::Access(Expr::Var("y"), "e"),
                               Expr::Const(Value::Int(2))));
        }
        join = Expr::Join(renamed, Expr::Table("Y"), "x", "y", jpred);
        break;
      }
      case 1:
        join = Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                              pred);
        break;
      case 2:
        join = Expr::AntiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                              pred);
        break;
      default:
        join = Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                              pred, "ys");
        break;
    }
    EvalOptions nl;
    nl.use_hash_joins = false;
    Value expected = EvalExpr(*db_, join, nl);
    Value actual = EvalExpr(*db_, join, Opts(algo));
    EXPECT_EQ(expected, actual) << "algo=" << static_cast<int>(algo)
                                << " kind=" << kind_index;
  }
}

std::string JoinAlgoParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kAlgos[] = {"Hash", "SortMerge", "Index",
                                 "NestedLoop"};
  static const char* kKinds[] = {"Join", "SemiJoin", "AntiJoin",
                                 "NestJoin"};
  return std::string(kAlgos[std::get<0>(info.param)]) +
         kKinds[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, JoinAlgoParam,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(JoinAlgorithm::kHash),
                          static_cast<int>(JoinAlgorithm::kSortMerge),
                          static_cast<int>(JoinAlgorithm::kIndex),
                          static_cast<int>(JoinAlgorithm::kNestedLoop)),
        ::testing::Range(0, 4)),
    JoinAlgoParamName);

TEST_F(JoinAlgorithmsTest, SortMergeCountsSortedRows) {
  // Tables are sets: duplicate generated rows collapse, so compare
  // against the canonical set sizes.
  size_t nx = EvalExpr(*db_, Expr::Table("X")).set_size();
  size_t ny = EvalExpr(*db_, Expr::Table("Y")).set_size();
  Evaluator ev(*db_, Opts(JoinAlgorithm::kSortMerge));
  ASSERT_TRUE(ev.Eval(Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"),
                                     "x", "y", EqPred()))
                  .ok());
  EXPECT_EQ(ev.stats().rows_sorted, nx + ny);
  EXPECT_EQ(ev.stats().hash_inserts, 0u);
}

TEST_F(JoinAlgorithmsTest, IndexJoinProbesTheIndex) {
  size_t nx = EvalExpr(*db_, Expr::Table("X")).set_size();
  Evaluator ev(*db_, Opts(JoinAlgorithm::kIndex));
  ASSERT_TRUE(ev.Eval(Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"),
                                     "x", "y", EqPred()))
                  .ok());
  EXPECT_EQ(ev.stats().index_probes, nx);
  EXPECT_EQ(ev.stats().hash_inserts, 0u);  // no build phase at all
}

TEST_F(JoinAlgorithmsTest, IndexJoinFallsBackToHashWithoutIndex) {
  // X has no index on a; right side X → falls back to a hash join.
  Evaluator ev(*db_, Opts(JoinAlgorithm::kIndex));
  ASSERT_TRUE(ev.Eval(Expr::SemiJoin(Expr::Table("Y"), Expr::Table("X"),
                                     "y", "x", EqPred()))
                  .ok());
  EXPECT_EQ(ev.stats().index_probes, 0u);
  EXPECT_GT(ev.stats().hash_inserts, 0u);
}

TEST_F(JoinAlgorithmsTest, IndexJoinRequiresPlainAttributeKey) {
  // Right key y.a + 0 is not a plain attribute: index unusable, hash
  // fallback still answers correctly.
  ExprPtr pred = Expr::Eq(
      Expr::Access(Expr::Var("x"), "a"),
      Expr::Bin(BinOp::kAdd, Expr::Access(Expr::Var("y"), "a"),
                Expr::Const(Value::Int(0))));
  EvalOptions nl;
  nl.use_hash_joins = false;
  ExprPtr join =
      Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y", pred);
  Value expected = EvalExpr(*db_, join, nl);
  Evaluator ev(*db_, Opts(JoinAlgorithm::kIndex));
  Result<Value> actual = ev.Eval(join);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(expected, *actual);
  EXPECT_EQ(ev.stats().index_probes, 0u);
}

TEST_F(JoinAlgorithmsTest, MembershipJoinEngagesForInPredicates) {
  // f(y) ∈ x.c and x.c ∋ f(y): no equi key, but hashable by the
  // membership join.
  ExprPtr elem =
      Expr::TupleConstruct({"d"}, {Expr::Access(Expr::Var("y"), "e")});
  ExprPtr attr = Expr::Access(Expr::Var("x"), "c");
  for (ExprPtr pred : {Expr::Bin(BinOp::kIn, elem, attr),
                       Expr::Bin(BinOp::kContains, attr, elem)}) {
    for (int kind = 1; kind <= 3; ++kind) {
      ExprPtr join;
      if (kind == 1) {
        join = Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                              pred);
      } else if (kind == 2) {
        join = Expr::AntiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                              pred);
      } else {
        join = Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                              pred, "ys");
      }
      EvalOptions nl;
      nl.use_hash_joins = false;
      Value expected = EvalExpr(*db_, join, nl);
      Evaluator ev(*db_);
      Result<Value> actual = ev.Eval(join);
      ASSERT_TRUE(actual.ok()) << kind;
      EXPECT_EQ(expected, *actual) << kind;
      // It really hashed: probes happened, and far fewer predicate
      // evaluations than |X|·|Y|.
      EXPECT_GT(ev.stats().hash_inserts, 0u) << kind;
      EXPECT_GT(ev.stats().hash_probes, 0u) << kind;
      EXPECT_EQ(ev.stats().predicate_evals, 0u) << kind;
      EXPECT_EQ(ev.stats().joins_membership, 1u) << kind;
    }
  }
}

// The OOSQL `contains` form of Example Query 6 runs as a membership
// join under both planner strategies — the cost planner labels it so,
// and the executor runs what the label says — with the result of the
// `in` form bit for bit.
TEST(MembershipJoinStrategies, ContainsRunsLikeIn) {
  auto db = testutil::SmallSupplierDb();
  const char* in_form =
      "select (sname = s.sname, ps = select p.pname from p in PART "
      "where p[pid] in s.parts) from s in SUPPLIER";
  const char* contains_form =
      "select (sname = s.sname, ps = select p.pname from p in PART "
      "where s.parts contains p[pid]) from s in SUPPLIER";
  for (PlanStrategy strategy :
       {PlanStrategy::kHeuristic, PlanStrategy::kCost}) {
    SCOPED_TRACE(PlanStrategyName(strategy));
    PlannerOptions popts;
    popts.strategy = strategy;
    QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(), popts);
    Result<QueryReport> in = engine.Run(in_form);
    Result<QueryReport> contains = engine.Run(contains_form);
    ASSERT_TRUE(in.ok()) << in.status().ToString();
    ASSERT_TRUE(contains.ok()) << contains.status().ToString();
    EXPECT_EQ(contains->result, in->result);
    EXPECT_EQ(contains->exec_stats.joins_membership, 1u);
    EXPECT_EQ(contains->exec_stats.joins_nested_loop, 0u);
    if (strategy == PlanStrategy::kCost) {
      ASSERT_NE(contains->plan, nullptr);
      EXPECT_NE(contains->plan->Describe().find("nestjoin[membership]"),
                std::string::npos)
          << contains->plan->Describe();
    }
  }
}

TEST_F(JoinAlgorithmsTest, MembershipJoinHandlesResidualConjuncts) {
  ExprPtr pred = Expr::And(
      Expr::Bin(BinOp::kIn,
                Expr::TupleConstruct({"d"},
                                     {Expr::Access(Expr::Var("y"), "e")}),
                Expr::Access(Expr::Var("x"), "c")),
      Expr::Bin(BinOp::kGe, Expr::Access(Expr::Var("y"), "a"),
                Expr::Access(Expr::Var("x"), "a")));
  ExprPtr join =
      Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y", pred);
  EvalOptions nl;
  nl.use_hash_joins = false;
  Value expected = EvalExpr(*db_, join, nl);
  Evaluator ev(*db_);
  Result<Value> actual = ev.Eval(join);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(expected, *actual);
  EXPECT_GT(ev.stats().predicate_evals, 0u);  // residual evaluated
}

TEST_F(JoinAlgorithmsTest, NonEquiPredicatesFallBackEverywhere) {
  ExprPtr pred = Expr::Bin(BinOp::kLt, Expr::Access(Expr::Var("x"), "a"),
                           Expr::Access(Expr::Var("y"), "e"));
  ExprPtr join =
      Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y", pred);
  EvalOptions nl;
  nl.use_hash_joins = false;
  Value expected = EvalExpr(*db_, join, nl);
  for (JoinAlgorithm algo : {JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge,
                             JoinAlgorithm::kIndex}) {
    EXPECT_EQ(expected, EvalExpr(*db_, join, Opts(algo)))
        << static_cast<int>(algo);
  }
}

TEST_F(JoinAlgorithmsTest, IndexIgnoresRowsInsertedAfterBuild) {
  // Documented behaviour: indexes are built after load.
  ASSERT_TRUE(db_->Insert("Y", Value::Tuple({Field("a", Value::Int(99)),
                                             Field("e", Value::Int(1))}))
                  .ok());
  const HashIndex* index = db_->FindIndex("Y", "a");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Lookup(Value::Int(99)), nullptr);
  ASSERT_TRUE(db_->CreateIndex("Y", "a").ok());  // rebuild picks it up
  EXPECT_NE(db_->FindIndex("Y", "a")->Lookup(Value::Int(99)), nullptr);
}

TEST_F(JoinAlgorithmsTest, CreateIndexValidation) {
  EXPECT_FALSE(db_->CreateIndex("NOPE", "a").ok());
  EXPECT_FALSE(db_->CreateIndex("Y", "nope").ok());
}

}  // namespace
}  // namespace n2j
