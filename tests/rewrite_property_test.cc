// Property-based testing of the rewrite engine: on many random databases
// and a family of query templates, the optimized plan must (a) evaluate
// to exactly the nested-loop result, (b) preserve the inferred type, and
// (c) never *increase* the number of base-table scans inside iterator
// parameters.

#include <gtest/gtest.h>

#include "adl/analysis.h"
#include "adl/typecheck.h"
#include "tests/test_util.h"

namespace n2j {
namespace {

using testutil::EvalExpr;
using testutil::RewriteExpr;
using testutil::TranslateOrDie;

struct Template {
  const char* name;
  const char* query;
};

// Query templates over the random X/Y tables (X : (a, c:{(d)}), Y : (a,e)).
const Template kTemplates[] = {
    {"semijoin",
     "select x from x in X where exists y in Y : y.a = x.a"},
    {"antijoin",
     "select x from x in X where not exists y in Y : y.a = x.a"},
    {"membership",
     "select x.a from x in X where x.a in (select y.a from y in Y)"},
    {"correlated_membership",
     "select x from x in X where x.a in "
     "(select y.e from y in Y where y.a = x.a)"},
    {"subseteq_grouping",
     "select x from x in X where x.c subseteq "
     "(select (d = y.e) from y in Y where y.a = x.a)"},
    {"supseteq_antijoin",
     "select x from x in X where x.c supseteq "
     "(select (d = y.e) from y in Y where y.a = x.a)"},
    {"proper_subset",
     "select x from x in X where x.c subset "
     "(select (d = y.e) from y in Y where y.a = x.a)"},
    {"set_equality",
     "select x from x in X where x.c = "
     "(select (d = y.e) from y in Y where y.a = x.a)"},
    {"count_compare",
     "select x from x in X where count(x.c) = "
     "count(select y from y in Y where y.a = x.a)"},
    {"empty_subquery",
     "select x from x in X where "
     "count(select y from y in Y where y.a = x.a) = 0"},
    {"nested_select_clause",
     "select (a = x.a, es = select y.e from y in Y where y.a = x.a) "
     "from x in X"},
    {"double_nesting",
     "select x from x in X where exists y in Y : y.a = x.a and "
     "(exists w in Y : w.e = y.e and w.a >= y.a)"},
    {"disjunction_stays_nested",
     "select x from x in X where (exists y in Y : y.a = x.a) or x.a = 0"},
    {"forall_over_attribute",
     "select x from x in X where forall z in x.c : "
     "exists y in Y : y.e = z.d"},
    {"uncorrelated_constant",
     "select x from x in X where x.a in (select y.a from y in Y)"},
};

class RewritePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RewritePropertyTest, OptimizedPlanIsEquivalent) {
  int seed = std::get<0>(GetParam());
  int template_index = std::get<1>(GetParam());
  const Template& tmpl = kTemplates[template_index];

  XYConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.x_rows = 12 + seed;
  config.y_rows = 10 + 2 * seed;
  config.key_domain = 5 + seed % 4;
  config.value_domain = 4 + seed % 3;
  config.empty_set_prob = 0.3;
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(AddRandomXY(db.get(), config).ok());

  ExprPtr e = TranslateOrDie(*db, tmpl.query);

  // (a) result equivalence against the naive nested-loop evaluation.
  EvalOptions nested_loop;
  nested_loop.use_hash_joins = false;
  Value expected = EvalExpr(*db, e, nested_loop);
  RewriteResult r = RewriteExpr(*db, e);
  Value actual_nl = EvalExpr(*db, r.expr, nested_loop);
  Value actual_hash = EvalExpr(*db, r.expr);
  EXPECT_EQ(expected, actual_nl)
      << tmpl.name << "\nplan: " << AlgebraStr(r.expr) << "\n"
      << r.TraceToString();
  EXPECT_EQ(expected, actual_hash)
      << tmpl.name << " (hash execution)\nplan: " << AlgebraStr(r.expr);

  // (b) the rewrite preserves the inferred type.
  TypeChecker checker(db->schema(), db.get());
  Result<TypePtr> before = checker.Infer(e);
  Result<TypePtr> after = checker.Infer(r.expr);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(after.ok())
      << tmpl.name << ": " << after.status().ToString() << "\nplan: "
      << AlgebraStr(r.expr);
  EXPECT_TRUE(before->get()->Equals(**after)) << tmpl.name;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RewritePropertyTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Range(0, static_cast<int>(
                                               std::size(kTemplates)))),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kTemplates[std::get<1>(info.param)].name) +
             "_seed" + std::to_string(std::get<0>(info.param));
    });

TEST(RewriteDeterminism, SameInputSamePlan) {
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(AddRandomXY(db.get(), XYConfig()).ok());
  ExprPtr e = TranslateOrDie(
      *db, "select x from x in X where exists y in Y : y.a = x.a");
  RewriteResult a = RewriteExpr(*db, e);
  RewriteResult b = RewriteExpr(*db, e);
  EXPECT_TRUE(a.expr->Equals(*b.expr));
}

// The rewrite ends at a fixpoint: rewriting its output fires no rule.
TEST(RewriteIdempotence, SecondRewriteIsNoOp) {
  SupplierPartConfig config;
  config.num_parts = 50;
  config.num_suppliers = 20;
  auto db = MakeSupplierPartDatabase(config);
  ASSERT_TRUE(AddRandomXY(db.get(), XYConfig()).ok());
  std::vector<Template> queries(std::begin(kTemplates), std::end(kTemplates));
  const Template kPaperQueries[] = {
      {"Q1",
       "select (sname = s.sname, pnames = select p.pname from p in PART "
       "where p[pid] in s.parts and p.color = \"red\") from s in SUPPLIER"},
      {"Q2",
       "select d from d in (select e from e in DELIVERY "
       "where e.supplier.sname = \"s1\") where d.date > 940600"},
      {"Q3.1",
       "select s.sname from s in SUPPLIER where s.parts supseteq "
       "(select x from t in SUPPLIER, x in t.parts where t.sname = \"s1\")"},
      {"Q3.2",
       "select d from d in DELIVERY where "
       "exists x in d.supply : x.part.color = \"red\""},
      {"Q4",
       "select s.eid from s in SUPPLIER where "
       "exists z in s.parts : not exists p in PART : z.pid = p.pid"},
      {"Q5",
       "select s.sname from s in SUPPLIER where "
       "exists x in s.parts : exists p in PART : "
       "x.pid = p.pid and p.color = \"red\""},
      {"Q6",
       "select (sname = s.sname, partssuppl = select p from p in PART "
       "where p[pid] in s.parts) from s in SUPPLIER"},
  };
  queries.insert(queries.end(), std::begin(kPaperQueries),
                 std::end(kPaperQueries));
  for (const Template& q : queries) {
    ExprPtr e = TranslateOrDie(*db, q.query);
    RewriteResult once = RewriteExpr(*db, e);
    RewriteResult twice = RewriteExpr(*db, once.expr);
    EXPECT_TRUE(once.expr->Equals(*twice.expr)) << q.name;
    EXPECT_TRUE(twice.trace.empty())
        << q.name << "\n" << twice.TraceToString();
  }
}

}  // namespace
}  // namespace n2j
