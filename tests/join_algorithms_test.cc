// Physical join alternatives (Section 6): the same logical join must
// produce identical results under the nested-loop, hash and index
// implementations.

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

// The first parameter is an algorithm code: 0 hash, 2 index, 3 nested
// loop. The instantiated test names carry the code, so a retired
// algorithm's code (1) stays unused rather than renumbering the rest.
JoinAlgorithm AlgoOfCode(int code) {
  switch (code) {
    case 0: return JoinAlgorithm::kHash;
    case 2: return JoinAlgorithm::kIndex;
    default: return JoinAlgorithm::kNestedLoop;
  }
}

const char* AlgoNameOfCode(int code) {
  switch (code) {
    case 0: return "Hash";
    case 2: return "Index";
    default: return "NestedLoop";
  }
}

TEST_P(JoinAlgoParam, AgreesWithNestedLoop) {
  JoinAlgorithm algo = AlgoOfCode(std::get<0>(GetParam()));
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
  static const char* kKinds[] = {"Join", "SemiJoin", "AntiJoin",
                                 "NestJoin"};
  return std::string(AlgoNameOfCode(std::get<0>(info.param))) +
         kKinds[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, JoinAlgoParam,
    ::testing::Combine(::testing::Values(0, 2, 3), ::testing::Range(0, 4)),
    JoinAlgoParamName);

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
  for (JoinAlgorithm algo : {JoinAlgorithm::kHash, JoinAlgorithm::kIndex}) {
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

// Raw probe rows and identity nestjoin groups (canonical sets by
// construction): an antijoin probed by unnest's raw rows, and nestjoins
// whose inner is the bare right variable, return the identical value
// under every physical join and thread count. PART's rows are inserted
// out of canonical order, so the index join's matches (insertion order)
// are not canonical; two suppliers that differ only in `parts` share a
// part, so the unnest would repeat a row and must canonicalize it away
// before the consumer sees it.
TEST(JoinParityTest, RawProbesAndIdentityGroupsAgreeAcrossJoins) {
  Database db;
  TypePtr pid_tuple = Type::Tuple({{"pid", Type::Int()}});
  ASSERT_TRUE(db.CreateTable("PART", Type::Tuple({{"pname", Type::String()},
                                                  {"pid", Type::Int()}}))
                  .ok());
  ASSERT_TRUE(
      db.CreateTable(
            "SUPP",
            Type::Tuple({{"name", Type::String()},
                         {"parts", Type::Set(Type::Tuple(
                                       {{"pid", Type::Int()},
                                        {"alts", Type::Set(pid_tuple)}}))}}))
          .ok());
  // Canonical PART order is by pname, which is not pid order, and the
  // two rows of pid 3 are inserted in reverse canonical order.
  const std::pair<const char*, int> kParts[] = {
      {"n1", 9}, {"n5", 1}, {"z3", 3}, {"n7", 8},
      {"n4", 3}, {"n8", 6}, {"n9", 4}};
  for (const auto& [pname, pid] : kParts) {
    ASSERT_TRUE(db.Insert("PART",
                          Value::Tuple({Field("pname", Value::String(pname)),
                                        Field("pid", Value::Int(pid))}))
                    .ok());
  }
  ASSERT_TRUE(db.CreateIndex("PART", "pid").ok());
  auto part = [](int pid, std::vector<int> alts) {
    std::vector<Value> alt_rows;
    for (int a : alts) {
      alt_rows.push_back(Value::Tuple({Field("pid", Value::Int(a))}));
    }
    return Value::Tuple({Field("pid", Value::Int(pid)),
                         Field("alts", Value::Set(std::move(alt_rows)))});
  };
  auto supplier = [](const char* name, std::vector<Value> parts) {
    return Value::Tuple({Field("name", Value::String(name)),
                         Field("parts", Value::Set(std::move(parts)))});
  };
  // Part 2 matches no PART row by pid or by alts, so both copies of
  // (pid = 2, alts = {(pid = 2)}, name = "s1") survive the antijoins.
  ASSERT_TRUE(db.Insert("SUPP", supplier("s1", {part(2, {2}), part(3, {3, 4}),
                                                part(9, {1, 9})}))
                  .ok());
  ASSERT_TRUE(db.Insert("SUPP", supplier("s1", {part(2, {2}), part(5, {6}),
                                                part(8, {})}))
                  .ok());
  ASSERT_TRUE(db.Insert("SUPP", supplier("s2", {part(7, {8, 7}),
                                                part(1, {9, 1})}))
                  .ok());
  ASSERT_TRUE(db.Insert("SUPP", supplier("s3", {})).ok());
  // A canonical probe side for the membership nestjoin: SUPP's part ids.
  ASSERT_TRUE(
      db.CreateTable("SP", Type::Tuple({{"name", Type::String()},
                                        {"pids", Type::Set(pid_tuple)}}))
          .ok());
  for (const Value& s : db.FindTable("SUPP")->rows()) {
    std::vector<Value> pids;
    for (const Value& p : s.FindField("parts")->elements()) {
      pids.push_back(p.ProjectTuple({"pid"}));
    }
    Value row = Value::Tuple({Field("name", *s.FindField("name")),
                              Field("pids", Value::Set(std::move(pids)))});
    ASSERT_TRUE(db.Insert("SP", std::move(row)).ok());
  }

  ExprPtr mu = Expr::Unnest(Expr::Table("SUPP"), "parts");
  ASSERT_EQ(EvalExpr(db, mu).set_size(), 7u);  // 8 unnested, one repeated
  ExprPtr eq = Expr::Eq(Expr::Access(Expr::Var("z"), "pid"),
                        Expr::Access(Expr::Var("p"), "pid"));
  ExprPtr member =
      Expr::Bin(BinOp::kIn, Expr::TupleProject(Expr::Var("p"), {"pid"}),
                Expr::Access(Expr::Var("z"), "alts"));
  std::vector<ExprPtr> queries;
  for (ExprPtr pred : {eq, member}) {
    ExprPtr anti = Expr::AntiJoin(mu, Expr::Table("PART"), "z", "p", pred);
    queries.push_back(anti);
    queries.push_back(
        Expr::Map("w", Expr::Access(Expr::Var("w"), "name"), anti));
    queries.push_back(
        Expr::NestJoin(mu, Expr::Table("PART"), "z", "p", pred, "ps"));
  }
  queries.push_back(Expr::NestJoin(
      Expr::Table("SP"), Expr::Table("PART"), "z", "p",
      Expr::Bin(BinOp::kIn, Expr::TupleProject(Expr::Var("p"), {"pid"}),
                Expr::Access(Expr::Var("z"), "pids")),
      "ps"));
  EvalStats ran;  // which physical joins the runs below exercised
  for (const ExprPtr& q : queries) {
    EvalOptions reference;
    reference.use_hash_joins = false;
    reference.compiled = false;
    Value expected = EvalExpr(db, q, reference);
    for (JoinAlgorithm algo :
         {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash,
          JoinAlgorithm::kIndex}) {
      for (int threads : {1, 4}) {
        for (bool compiled : {false, true}) {
          EvalOptions opts;
          opts.join_algorithm = algo;
          opts.num_threads = threads;
          opts.compiled = compiled;
          Evaluator ev(db, opts);
          Result<Value> run = ev.Eval(q);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          ran.Merge(ev.stats());
          const Value& actual = *run;
          EXPECT_EQ(actual, expected)
              << AlgebraStr(q) << " algo=" << static_cast<int>(algo)
              << " threads=" << threads << " compiled=" << compiled;
          EXPECT_EQ(actual.ToString(), expected.ToString());
        }
      }
    }
  }
  EXPECT_GT(ran.joins_nested_loop, 0u);
  EXPECT_GT(ran.joins_hash, 0u);
  EXPECT_GT(ran.joins_index, 0u);
  EXPECT_GT(ran.joins_membership, 0u);
  // Both antijoins keep the repeated unnest row exactly once.
  for (size_t i : {size_t{0}, size_t{3}}) {
    Value anti = EvalExpr(db, queries[i]);
    size_t twos = 0;
    for (const Value& row : anti.elements()) {
      if (row.FindField("pid")->int_value() == 2) ++twos;
    }
    EXPECT_EQ(twos, 1u) << AlgebraStr(queries[i]);
  }
}

// Operators that can map two rows to one (α, ⋃, and μ over tuples that
// agree outside the unnested attribute) canonicalize before a consumer
// iterates their output, so the consumer runs once per distinct row.
TEST(JoinParityTest, ConsumersRunOncePerDistinctRow) {
  Database db;
  ASSERT_TRUE(db.CreateTable("T", Type::Tuple({{"a", Type::Int()},
                                               {"k", Type::Int()}}))
                  .ok());
  for (int i = 0; i < 30; ++i) {  // 30 rows, 3 values of a
    ASSERT_TRUE(db.Insert("T", Value::Tuple({Field("a", Value::Int(i % 3)),
                                             Field("k", Value::Int(i))}))
                    .ok());
  }
  TypePtr b_tuple = Type::Tuple({{"b", Type::Int()}});
  ASSERT_TRUE(db.CreateTable("U", Type::Tuple({{"k", Type::Int()},
                                               {"bs", Type::Set(b_tuple)}}))
                  .ok());
  auto b = [](int v) { return Value::Tuple({Field("b", Value::Int(v))}); };
  for (int i = 0; i < 10; ++i) {
    // Rows 2j and 2j + 1 share k = j and the element (b = 7): μ_bs makes
    // 20 rows, 15 of them distinct.
    ASSERT_TRUE(db.Insert("U", Value::Tuple({Field("k", Value::Int(i / 2)),
                                             Field("bs", Value::Set({b(i % 2),
                                                                     b(7)}))}))
                    .ok());
  }
  auto x = [](const char* f) { return Expr::Access(Expr::Var("x"), f); };
  auto nonneg = [&](const char* f, ExprPtr in) {
    return Expr::Select(
        "x", Expr::Bin(BinOp::kGe, x(f), Expr::Const(Value::Int(0))),
        std::move(in));
  };
  ExprPtr a_of_t = Expr::Map(
      "t", Expr::TupleConstruct({"a"}, {Expr::Access(Expr::Var("t"), "a")}),
      Expr::Table("T"));
  // {(a = t.a), (a = 9)} per row: the three sets overlap on (a = 9).
  ExprPtr a_sets = Expr::Map(
      "t",
      Expr::SetConstruct(
          {Expr::TupleConstruct({"a"}, {Expr::Access(Expr::Var("t"), "a")}),
           Expr::TupleConstruct({"a"}, {Expr::Const(Value::Int(9))})}),
      Expr::Table("T"));
  struct Case {
    const char* name;
    ExprPtr query;
    size_t rows;  // distinct rows the consumer reads
  };
  const Case cases[] = {
      {"select over map", nonneg("a", a_of_t), 3},
      {"select over flatten", nonneg("a", Expr::Flatten(a_sets)), 4},
      {"select over unnest",
       nonneg("b", Expr::Unnest(Expr::Table("U"), "bs")), 15},
  };
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      EvalOptions opts;
      opts.num_threads = threads;
      Evaluator ev(db, opts);
      Result<Value> r = ev.Eval(c.query);
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
      EXPECT_EQ(r->set_size(), c.rows) << c.name;
      EXPECT_EQ(ev.stats().predicate_evals, c.rows)
          << c.name << " threads=" << threads;
    }
  }
  // A join probes once per distinct row of a repeating probe side.
  ExprPtr nest = Expr::NestJoin(
      a_of_t, Expr::Table("T"), "x", "y",
      Expr::Eq(x("a"), Expr::Access(Expr::Var("y"), "a")), "g");
  for (int threads : {1, 4}) {
    EvalOptions opts;
    opts.num_threads = threads;
    Evaluator ev(db, opts);
    Result<Value> r = ev.Eval(nest);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->set_size(), 3u);
    EXPECT_EQ(ev.stats().joins_hash, 1u);
    EXPECT_EQ(ev.stats().hash_probes, 3u) << "threads=" << threads;
  }
}

TEST_F(JoinAlgorithmsTest, CreateIndexValidation) {
  EXPECT_FALSE(db_->CreateIndex("NOPE", "a").ok());
  EXPECT_FALSE(db_->CreateIndex("Y", "nope").ok());
}

}  // namespace
}  // namespace n2j
