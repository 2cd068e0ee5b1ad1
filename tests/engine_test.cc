// Integration tests of the QueryEngine façade: option plumbing, explain
// output, error propagation, and the interaction of rewrite and
// execution options.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace n2j {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::SmallSupplierDb();
    ASSERT_TRUE(AddRandomXY(db_.get(), XYConfig()).ok());
  }
  std::unique_ptr<Database> db_;
};

TEST_F(EngineTest, RunProducesResultAndPlan) {
  QueryEngine engine(db_.get());
  Result<QueryReport> r = engine.Run(
      "select p.pname from p in PART where p.color = \"red\"");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->translated, nullptr);
  EXPECT_NE(r->optimized, nullptr);
  EXPECT_TRUE(r->result.is_set());
  EXPECT_TRUE(r->type->is_set());
}

TEST_F(EngineTest, ParseErrorsPropagate) {
  QueryEngine engine(db_.get());
  Result<QueryReport> r = engine.Run("select select");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(EngineTest, TypeErrorsPropagate) {
  QueryEngine engine(db_.get());
  Result<QueryReport> r = engine.Run("select p.nope from p in PART");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, RewriteOptionsChangeThePlan) {
  RewriteOptions none;
  none.enable_setcmp = false;
  none.enable_quantifier = false;
  none.enable_map_join = false;
  none.enable_unnest_attr = false;
  none.enable_hoist = false;
  none.grouping = GroupingMode::kNone;
  QueryEngine nested(db_.get(), none);
  QueryEngine full(db_.get());
  const char* q =
      "select x from x in X where exists y in Y : y.a = x.a";
  Result<QueryReport> a = nested.Run(q);
  Result<QueryReport> b = full.Run(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->result, b->result);
  EXPECT_FALSE(a->optimized->Equals(*b->optimized));
  // The nested plan does strictly more per-tuple work.
  EXPECT_GT(a->exec_stats.predicate_evals, b->exec_stats.predicate_evals);
}

TEST_F(EngineTest, EvalOptionsControlHashJoins) {
  EvalOptions nl;
  nl.use_hash_joins = false;
  QueryEngine hash_engine(db_.get());
  QueryEngine nl_engine(db_.get(), RewriteOptions(), nl);
  const char* q =
      "select x from x in X where exists y in Y : y.a = x.a";
  Result<QueryReport> h = hash_engine.Run(q);
  Result<QueryReport> n = nl_engine.Run(q);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(h->result, n->result);
  EXPECT_GT(h->exec_stats.hash_inserts, 0u);
  EXPECT_EQ(n->exec_stats.hash_inserts, 0u);
}

TEST_F(EngineTest, RunAdlSkipsTheFrontEnd) {
  QueryEngine engine(db_.get());
  ExprPtr adl = Expr::Agg(AggKind::kCount, Expr::Table("PART"));
  Result<QueryReport> r = engine.RunAdl(adl);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result, Value::Int(40));
}

TEST_F(EngineTest, TranslateOnlyDoesNotExecute) {
  QueryEngine engine(db_.get());
  Result<QueryReport> r =
      engine.Translate("select p from p in PART where p.price > 5");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->translated, nullptr);
  EXPECT_EQ(r->optimized, nullptr);
  EXPECT_TRUE(r->result.is_null());
}

TEST_F(EngineTest, AggregationQueriesEndToEnd) {
  QueryEngine engine(db_.get());
  Result<QueryReport> r = engine.Run(
      "select (s = s.sname, n = count(s.parts)) from s in SUPPLIER");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.set_size(), 12u);
}

TEST_F(EngineTest, SetLiteralsAndArithmetic) {
  QueryEngine engine(db_.get());
  Result<QueryReport> r = engine.Run(
      "select p.pname from p in PART "
      "where p.price % 2 = 0 and p.price / 2 in {1, 2, 3}");
  ASSERT_TRUE(r.ok());
  // Verify against a direct scan.
  size_t expected = 0;
  for (const Value& p : db_->FindTable("PART")->rows()) {
    int64_t price = p.FindField("price")->int_value();
    if (price % 2 == 0 && (price / 2 >= 1 && price / 2 <= 3)) ++expected;
  }
  size_t names = 0;
  std::set<std::string> distinct;
  for (const Value& p : db_->FindTable("PART")->rows()) {
    int64_t price = p.FindField("price")->int_value();
    if (price % 2 == 0 && price / 2 >= 1 && price / 2 <= 3) {
      distinct.insert(p.FindField("pname")->string_value());
    }
  }
  names = distinct.size();
  EXPECT_EQ(r->result.set_size(), names);
}

TEST_F(EngineTest, RuntimeErrorsSurfaceCleanly) {
  QueryEngine engine(db_.get());
  Result<QueryReport> r =
      engine.Run("select p.price / (p.price - p.price) from p in PART");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
}

// `1 + 1 + … + 1` as a left-deep ADL chain `depth` levels deep. `levels`
// keeps every node, root last, so the caller can free the chain one level
// at a time (FreeChain): dropping a 100,000-deep chain at its root would
// recurse through the destructors and overflow the stack.
ExprPtr PlusChain(int depth, std::vector<ExprPtr>* levels) {
  ExprPtr chain = Expr::Const(Value::Int(1));
  levels->push_back(chain);
  for (int i = 1; i < depth; ++i) {
    chain = Expr::Bin(BinOp::kAdd, chain, Expr::Const(Value::Int(1)));
    levels->push_back(chain);
  }
  return chain;
}

void FreeChain(std::vector<ExprPtr>* levels) {
  while (!levels->empty()) levels->pop_back();
}

// Past QueryEngine::kMaxAdlDepth, RunAdl fails with InvalidArgument before
// the printer, rewriter, typechecker or evaluator recurse over the tree
// (a 100,000-deep chain used to overflow the stack).
TEST(AdlDepthTest, RunAdlRejectsTooDeepTrees) {
  auto db = testutil::SmallSupplierDb();
  QueryEngine engine(db.get());
  std::vector<ExprPtr> levels;
  for (int depth : {100000, static_cast<int>(QueryEngine::kMaxAdlDepth) + 1}) {
    Status s = engine.RunAdl(PlusChain(depth, &levels)).status();
    FreeChain(&levels);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << depth;
    EXPECT_NE(s.message().find("deeper than " +
                               std::to_string(QueryEngine::kMaxAdlDepth)),
              std::string::npos)
        << s.ToString();
  }
}

// The limit is not tighter than the recursive passes need: a chain at the
// limit rewrites, type-checks and evaluates.
TEST(AdlDepthTest, RunAdlRunsTreesAtTheLimit) {
  auto db = testutil::SmallSupplierDb();
  QueryEngine engine(db.get());
  std::vector<ExprPtr> levels;
  const int depth = static_cast<int>(QueryEngine::kMaxAdlDepth);
  Result<QueryReport> r = engine.RunAdl(PlusChain(depth, &levels));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result, Value::Int(depth));
}

}  // namespace
}  // namespace n2j
