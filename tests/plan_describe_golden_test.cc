// Byte-golden EXPLAIN text of the cost planner on the paper's queries
// Q1-Q6 at |PART| = 100 (the paper-small database of perfbench/README.md):
// each query's PhysicalPlan::Describe() block, its number of fired
// rules and the rule trace, exactly as QueryReport::Explain() prints
// them. Planning, estimation and rewriting may get cheaper; what they
// print may not change. golden_plans_test pins the rewritten algebra
// under the heuristic strategy; this file pins the planner's view.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.h"
#include "storage/datagen.h"

namespace n2j {
namespace {

class PlanDescribeGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SupplierPartConfig config;
    config.seed = 1;
    config.num_parts = 100;
    config.num_suppliers = 25;
    config.parts_per_supplier = 8;
    config.red_fraction = 0.2;
    config.match_fraction = 0.92;
    config.num_deliveries = 50;
    db_ = MakeSupplierPartDatabase(config);
    PlannerOptions popts;
    popts.strategy = PlanStrategy::kCost;
    engine_ = std::make_unique<QueryEngine>(db_.get(), RewriteOptions(),
                                            EvalOptions(), popts);
  }

  /// "rules_fired=N", the planner block and one line per fired rule.
  std::string Render(const std::string& query) {
    Result<QueryReport> r = engine_->Run(query);
    EXPECT_TRUE(r.ok()) << query << "\n" << r.status().ToString();
    if (!r.ok() || r->plan == nullptr) return "<error>";
    std::string out = "rules_fired=" + std::to_string(r->trace.size()) + "\n";
    out += r->plan->Describe();
    for (const RuleApplication& a : r->trace) {
      out += "  [" + a.rule + "] " + a.detail() + "\n";
    }
    return out;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(PlanDescribeGoldenTest, Query1SelectClauseNesting) {
  EXPECT_EQ(Render(
      "select (sname = s.sname, pnames = select p.pname "
      "from p in PART where p[pid] in s.parts and "
      "p.color = \"red\") from s in SUPPLIER"),
            R"(rules_fired=2
est_cost=0.021ms
  map est_rows=25
    nestjoin[membership] est_rows=25 est_cost=0.021ms
      scan SUPPLIER est_rows=25
      select est_rows=14
        scan PART est_rows=100
  [NestJoinRewrite] α[p : p.pname](σ[p : p[pid] ∈ s.parts ∧ p.color = "red"](PART))
  [PushJoinPredicate(right)] p1.color = "red"
)");
}

TEST_F(PlanDescribeGoldenTest, Query2FromClauseNesting) {
  EXPECT_EQ(Render(
      "select d from d in (select e from e in DELIVERY "
      "where e.supplier.sname = \"s1\") where d.date > 940600"),
            R"(rules_fired=3
est_cost=0.000ms
  select est_rows=14
    scan DELIVERY est_rows=50
  [Simplify-IdentityMap] α[e : e](σ[e : deref<Supplier>(e.supplier).sname = "s1"](DELIVERY))
  [Simplify-SelectFusion] σ[d : d.date > 940600](σ[e : deref<Supplier>(e.supplier).sname = "s1"](DELIVERY))
  [Simplify-IdentityMap] α[d : d](σ[e : deref<Supplier>(e.supplier).sname = "s1" ∧ e.date > 940600](DELIVERY))
)");
}

TEST_F(PlanDescribeGoldenTest, Query31SetComparison) {
  EXPECT_EQ(Render(
      "select s.sname from s in SUPPLIER where s.parts supseteq "
      "(select x from t in SUPPLIER, x in t.parts where t.sname = \"s1\")"),
            R"(rules_fired=3
est_cost=0.000ms
  map est_rows=2
    flatten est_rows=8
      map est_rows=1
        select est_rows=1
          scan SUPPLIER est_rows=25
    select est_rows=2
      scan SUPPLIER est_rows=25
  [Simplify-IdentityMap] α[x : x](σ[x : t.sname = "s1"](t.parts))
  [HoistUncorrelated] ⋃(α[t : σ[x : t.sname = "s1"](t.parts)](SUPPLIER))
  [Rule2-PlaceConjuncts] ⋃(α[t : σ[x : t.sname = "s1"](t.parts)](SUPPLIER))
)");
}

TEST_F(PlanDescribeGoldenTest, Query32ExistsOverSetAttribute) {
  EXPECT_EQ(Render(
      "select d from d in DELIVERY where "
      "exists x in d.supply : x.part.color = \"red\""),
            R"(rules_fired=1
est_cost=0.000ms
  select est_rows=50
    scan DELIVERY est_rows=50
  [Simplify-IdentityMap] α[d : d](σ[d : ∃x ∈ d.supply · deref<Part>(x.part).color = "red"](DELIVERY))
)");
}

TEST_F(PlanDescribeGoldenTest, Query4ReferentialIntegrity) {
  EXPECT_EQ(Render(
      "select s.eid from s in SUPPLIER where "
      "exists z in s.parts : not exists p in PART : z.pid = p.pid"),
            R"(rules_fired=2
est_cost=0.034ms
  map est_rows=25
    antijoin[hash] est_rows=195 est_cost=0.034ms
      unnest est_rows=195
        scan SUPPLIER est_rows=25
      scan PART est_rows=100
  [UnnestAttribute] σ[s : ∃z ∈ s.parts · ¬(∃p ∈ PART · z.pid = p.pid)](SUPPLIER)
  [Rule1-AntiJoin] ¬(∃p ∈ PART · s1[pid].pid = p.pid)
)");
}

TEST_F(PlanDescribeGoldenTest, Query5SemijoinViaExchange) {
  EXPECT_EQ(Render(
      "select s.sname from s in SUPPLIER where "
      "exists x in s.parts : exists p in PART : "
      "x.pid = p.pid and p.color = \"red\""),
            R"(rules_fired=4
est_cost=0.020ms
  map est_rows=0
    semijoin[membership] est_rows=0 est_cost=0.020ms
      scan SUPPLIER est_rows=25
      select est_rows=14
        scan PART est_rows=100
  [ExchangeQuantifiers] ∃x ∈ s.parts · ∃p ∈ PART · x.pid = p.pid ∧ p.color = "red"
  [ExtractIndependentConjuncts] ∃x ∈ s.parts · x.pid = p.pid ∧ p.color = "red"
  [Rule1-SemiJoin] ∃p ∈ PART · p.color = "red" ∧ (∃x ∈ s.parts · x.pid = p.pid)
  [PushJoinPredicate(right)] p1.color = "red"
)");
}

TEST_F(PlanDescribeGoldenTest, Query6NestjoinGrouping) {
  EXPECT_EQ(Render(
      "select (sname = s.sname, partssuppl = select p from p in PART "
      "where p[pid] in s.parts) from s in SUPPLIER"),
            R"(rules_fired=2
est_cost=0.029ms
  map est_rows=25
    nestjoin[membership] est_rows=25 est_cost=0.029ms
      scan SUPPLIER est_rows=25
      scan PART est_rows=100
  [Simplify-IdentityMap] α[p : p](σ[p : p[pid] ∈ s.parts](PART))
  [NestJoinRewrite] σ[p : p[pid] ∈ s.parts](PART)
)");
}

}  // namespace
}  // namespace n2j
