// Plan-quality harness for the cost-based optimizer.
//
// Three layers of assertion, all on deterministic EvalStats counters,
// never on wall time, so a loaded host cannot fail them:
//
//  1. Sweep choice — on the database bench_join_algorithms.cc sweeps
//     (n ∈ {64, 256, 1024}), every forced physical variant (nested,
//     hash, index) runs in-process, and the variant the planner picks
//     must do within 10% of the least work among them.
//
//  2. Measured plan choice — for the paper's Fig. 1 / Fig. 3 / Query 4 /
//     Query 6 shapes across four datagen configurations (uniform, skewed
//     fanout, low match rate, tight PNHL memory budget), every physical
//     alternative runs in-process and the cost-based plan's work must be
//     within 10% of the best alternative's.
//
//  3. Planned work — a pinned join must be the operator the executor
//     runs: paper Query 5 under the cost planner does exactly the
//     heuristic run's deterministic work (EvalStats).

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "adl/type.h"
#include "adl/value.h"
#include "core/engine.h"
#include "exec/eval.h"
#include "fuzz/oracle.h"
#include "opt/optimizer.h"
#include "storage/datagen.h"

namespace n2j {
namespace {

using fuzz::JoinWork;
using fuzz::PlanWork;

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

Value MustEval(const Database& db, const ExprPtr& e,
               const EvalOptions& opts = EvalOptions()) {
  Evaluator ev(db, opts);
  Result<Value> r = ev.Eval(e);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Value::Null();
}

/// The counters of one evaluation.
EvalStats MustEvalStats(const Database& db, const ExprPtr& e,
                        const EvalOptions& opts) {
  Evaluator ev(db, opts);
  Result<Value> r = ev.Eval(e);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return ev.stats();
}

PhysicalPlan MustPlan(const Database& db, const ExprPtr& e) {
  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  Planner planner(db, popts);
  Result<PhysicalPlan> pp = planner.Plan(e);
  EXPECT_TRUE(pp.ok()) << pp.status().ToString();
  return *std::move(pp);
}

/// First join-family node in pre-order (left-deep roots come first).
const Expr* FindJoinNode(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kJoin:
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
    case ExprKind::kNestJoin:
      return e.get();
    default:
      break;
  }
  for (const ExprPtr& c : e->children()) {
    if (const Expr* j = FindJoinNode(c)) return j;
  }
  return nullptr;
}

/// Maps the planner's algorithm pin to the bench's variant name.
const char* VariantName(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop: return "nested";
    case JoinAlgorithm::kHash: return "hash";
    case JoinAlgorithm::kIndex: return "index";
  }
  return "?";
}

// ---------------------------------------------------------------------
// Layer 1: the planner's pick on the join-algorithm sweep
// ---------------------------------------------------------------------

/// The exact database bench_join_algorithms.cc measures: X/Y with n rows
/// each, keys uniform in [0, n), and a prebuilt index on Y.a.
std::unique_ptr<Database> MakeSweepDb(int n) {
  auto db = std::make_unique<Database>();
  XYConfig config;
  config.seed = 47;
  config.x_rows = n;
  config.y_rows = n;
  config.key_domain = n;
  EXPECT_TRUE(AddRandomXY(db.get(), config).ok());
  EXPECT_TRUE(db->CreateIndex("Y", "a").ok());
  return db;
}

ExprPtr SweepSemiJoin() {
  return Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                        Expr::Eq(Expr::Access(Expr::Var("y"), "a"),
                                 Expr::Access(Expr::Var("x"), "a")));
}

ExprPtr SweepNestJoin() {
  return Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                        Expr::Eq(Expr::Access(Expr::Var("y"), "a"),
                                 Expr::Access(Expr::Var("x"), "a")),
                        "ys");
}

void CheckSweepChoice(const char* sweep, const ExprPtr& plan) {
  for (int n : {64, 256, 1024}) {
    SCOPED_TRACE(std::string(sweep) + " n=" + std::to_string(n));
    auto db = MakeSweepDb(n);
    PhysicalPlan pp = MustPlan(*db, plan);
    const Expr* join = FindJoinNode(pp.root);
    ASSERT_NE(join, nullptr);
    const PlanAnnotation* pa = pp.annotations.Find(join);
    ASSERT_NE(pa, nullptr);
    ASSERT_TRUE(pa->algorithm.has_value());
    const JoinAlgorithm chosen = *pa->algorithm;

    uint64_t chosen_work = 0;
    uint64_t best_work = UINT64_MAX;
    std::string best;
    for (JoinAlgorithm a : {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash,
                            JoinAlgorithm::kIndex}) {
      EvalOptions opts;
      opts.join_algorithm = a;
      uint64_t work = PlanWork(MustEvalStats(*db, plan, opts));
      if (a == chosen) chosen_work = work;
      if (work < best_work) {
        best_work = work;
        best = VariantName(a);
      }
    }
    EXPECT_LE(chosen_work, best_work + best_work / 10)
        << "planner chose " << VariantName(chosen) << " (" << chosen_work
        << " units) but " << best << " did " << best_work << "\n"
        << pp.Describe();
  }
}

TEST(OptimizerGoldenChoice, SemiJoinWithinTenPercentOfLeastWork) {
  CheckSweepChoice("semijoin", SweepSemiJoin());
}

TEST(OptimizerGoldenChoice, NestJoinWithinTenPercentOfLeastWork) {
  CheckSweepChoice("nestjoin", SweepNestJoin());
}

// ---------------------------------------------------------------------
// Layer 2: plan choice by measured work on the paper workloads × configs
// ---------------------------------------------------------------------

struct WorkloadShape {
  const char* tag;
  const char* oosql;
};

// Fig. 1 (nested query → semijoin), Fig. 3 (nestjoin grouping), Example
// Query 4 (dangling set-attribute references), Example Query 6 shape
// (set comparison against a correlated subquery).
const WorkloadShape kShapes[] = {
    {"fig1", "select x from x in X where exists y in Y : y.a = x.a"},
    {"fig3",
     "select (a = x.a, ys = (select y.e from y in Y where y.a = x.a)) "
     "from x in X"},
    {"q4",
     "select s.eid from s in SUPPLIER where "
     "exists z in s.parts : not exists p in PART : z.pid = p.pid"},
    {"q6",
     "select x from x in X where x.c subseteq "
     "(select (d = y.e) from y in Y where y.a = x.a)"},
};

struct DatagenConfig {
  const char* name;
  SupplierPartConfig sp;
  XYConfig xy;
  size_t pnhl_budget = SIZE_MAX;
};

std::vector<DatagenConfig> MakeConfigs() {
  std::vector<DatagenConfig> configs;
  {
    DatagenConfig c;
    c.name = "uniform";
    c.sp.seed = 11;
    c.sp.num_parts = 256;
    c.sp.num_suppliers = 64;
    c.sp.parts_per_supplier = 6;
    c.xy.seed = 13;
    c.xy.x_rows = 256;
    c.xy.y_rows = 256;
    c.xy.key_domain = 256;
    c.xy.value_domain = 64;
    configs.push_back(c);
  }
  {
    DatagenConfig c;
    c.name = "skewed-fanout";
    c.sp.seed = 17;
    c.sp.num_parts = 256;
    c.sp.num_suppliers = 64;
    c.sp.parts_per_supplier = 14;
    c.sp.skew = 1.1;
    c.xy.seed = 19;
    c.xy.x_rows = 256;
    c.xy.y_rows = 256;
    c.xy.key_domain = 32;  // heavy key duplication
    c.xy.max_set_size = 8;
    configs.push_back(c);
  }
  {
    DatagenConfig c;
    c.name = "low-match";
    c.sp.seed = 23;
    c.sp.num_parts = 256;
    c.sp.num_suppliers = 64;
    c.sp.parts_per_supplier = 6;
    c.sp.match_fraction = 0.25;
    c.xy.seed = 29;
    c.xy.x_rows = 256;
    c.xy.y_rows = 256;
    c.xy.key_domain = 2048;  // most probes miss
    configs.push_back(c);
  }
  {
    DatagenConfig c;
    c.name = "tight-pnhl-budget";
    c.sp.seed = 31;
    c.sp.num_parts = 256;
    c.sp.num_suppliers = 64;
    c.sp.parts_per_supplier = 6;
    c.xy.seed = 37;
    c.xy.x_rows = 256;
    c.xy.y_rows = 256;
    c.xy.key_domain = 256;
    c.pnhl_budget = 512;
    configs.push_back(c);
  }
  return configs;
}

std::unique_ptr<Database> MakeConfigDb(const DatagenConfig& c) {
  auto db = MakeSupplierPartDatabase(c.sp);
  EXPECT_TRUE(AddRandomXY(db.get(), c.xy).ok());
  EXPECT_TRUE(db->CreateIndex("Y", "a").ok());
  return db;
}

TEST(OptimizerMeasuredChoice, WithinTenPercentOfBestAlternative) {
  for (const DatagenConfig& config : MakeConfigs()) {
    auto db = MakeConfigDb(config);
    QueryEngine engine(db.get());
    for (const WorkloadShape& shape : kShapes) {
      SCOPED_TRACE(std::string(config.name) + "/" + shape.tag);
      Result<QueryReport> translated = engine.Translate(shape.oosql);
      ASSERT_TRUE(translated.ok()) << translated.status().ToString();
      Result<RewriteResult> rewritten =
          engine.Optimize(translated->translated);
      ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
      ExprPtr plan = rewritten->expr;

      // The physical alternatives: the paper's inventory, forced.
      struct Alternative {
        const char* name;
        EvalOptions opts;
      };
      std::vector<Alternative> alts;
      {
        Alternative nested{"nested", EvalOptions()};
        nested.opts.use_hash_joins = false;
        nested.opts.enable_pnhl = false;
        alts.push_back(nested);
      }
      for (JoinAlgorithm a : {JoinAlgorithm::kHash, JoinAlgorithm::kIndex}) {
        Alternative alt{VariantName(a), EvalOptions()};
        alt.opts.join_algorithm = a;
        alt.opts.pnhl_memory_budget = config.pnhl_budget;
        alts.push_back(alt);
      }

      PhysicalPlan pp = MustPlan(*db, plan);
      EvalOptions planned_opts;
      planned_opts.plan = &pp.annotations;
      planned_opts.pnhl_memory_budget = config.pnhl_budget;

      // Correctness first: every alternative and the planned execution
      // agree bit-for-bit.
      Value expected = MustEval(*db, plan, alts[0].opts);
      for (size_t i = 1; i < alts.size(); ++i) {
        ASSERT_EQ(MustEval(*db, plan, alts[i].opts), expected)
            << alts[i].name;
      }
      ASSERT_EQ(MustEval(*db, pp.root, planned_opts), expected);

      uint64_t best_work = UINT64_MAX;
      std::string best;
      for (const Alternative& alt : alts) {
        uint64_t work = PlanWork(MustEvalStats(*db, plan, alt.opts));
        if (work < best_work) {
          best_work = work;
          best = alt.name;
        }
      }
      EvalStats planned = MustEvalStats(*db, pp.root, planned_opts);
      // Acceptance: within 10% of the best physical alternative's work.
      EXPECT_LE(PlanWork(planned), best_work + best_work / 10)
          << "cost-based plan did " << PlanWork(planned) << " units ("
          << planned.Compact() << ") but " << best << " did " << best_work
          << "\n"
          << pp.Describe();
    }
  }
}

// The planner must also *report* its decisions: Describe() carries one
// line per priced operator with estimates, and reordering stays off for
// single joins.
TEST(OptimizerMeasuredChoice, DescribeListsPricedOperators) {
  auto db = MakeSweepDb(128);
  PhysicalPlan pp = MustPlan(*db, SweepSemiJoin());
  EXPECT_FALSE(pp.lines.empty());
  std::string desc = pp.Describe();
  EXPECT_NE(desc.find("semijoin["), std::string::npos) << desc;
  EXPECT_NE(desc.find("est_rows="), std::string::npos) << desc;
  EXPECT_NE(desc.find("est_cost="), std::string::npos) << desc;
  EXPECT_FALSE(pp.reordered);
}

// A pure-equi chain of three base tables exercises the Selinger-style
// join-order DP: joining the two small tables first beats starting from
// the big one. The reordered plan must stay bit-identical.
TEST(OptimizerMeasuredChoice, JoinOrderDpReordersSkewedChain) {
  // Three plain tables with disjoint attribute names (flat join concat
  // needs them unique): A is big, B and C are small. Keys are all drawn
  // from [0, 64) so every join has matches.
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(db->CreateTable("A", Type::Tuple({{"a1", Type::Int()},
                                                {"a2", Type::Int()}}))
                  .ok());
  ASSERT_TRUE(db->CreateTable("B", Type::Tuple({{"b1", Type::Int()},
                                                {"b2", Type::Int()}}))
                  .ok());
  ASSERT_TRUE(
      db->CreateTable("C", Type::Tuple({{"c1", Type::Int()}})).ok());
  for (int i = 0; i < 2048; ++i) {
    ASSERT_TRUE(db->Insert("A", Value::Tuple({Field("a1", Value::Int(i % 64)),
                                              Field("a2", Value::Int(i))}))
                    .ok());
  }
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(db->Insert("B", Value::Tuple({Field("b1", Value::Int(i % 64)),
                                              Field("b2", Value::Int(i % 64))}))
                    .ok());
    ASSERT_TRUE(
        db->Insert("C", Value::Tuple({Field("c1", Value::Int(i % 64))})).ok());
  }

  // (A ⋈ B) ⋈ C on A.a1=B.b1, B.b2=C.c1 — a left-deep chain whose
  // cheapest order starts with the two small tables.
  ExprPtr inner =
      Expr::Join(Expr::Table("A"), Expr::Table("B"), "x", "y",
                 Expr::Eq(Expr::Access(Expr::Var("x"), "a1"),
                          Expr::Access(Expr::Var("y"), "b1")));
  ExprPtr chain =
      Expr::Join(inner, Expr::Table("C"), "v", "z",
                 Expr::Eq(Expr::Access(Expr::Var("v"), "b2"),
                          Expr::Access(Expr::Var("z"), "c1")));

  EvalOptions nested;
  nested.use_hash_joins = false;
  Value expected = MustEval(*db, chain, nested);

  PhysicalPlan pp = MustPlan(*db, chain);
  EvalOptions planned_opts;
  planned_opts.plan = &pp.annotations;
  EXPECT_EQ(MustEval(*db, pp.root, planned_opts), expected);
  EXPECT_TRUE(pp.reordered) << pp.Describe();
}

// The same skewed chain written in OOSQL, with attribute names the three
// tables share: Rule 2 turns the from-clause into a join tree over
// (x = x)-wrapped ranges, and the DP resolves every key by variable
// (t.x.a) rather than by attribute name, so it still reorders.
TEST(OptimizerMeasuredChoice, JoinOrderDpReordersOosqlChain) {
  auto db = std::make_unique<Database>();
  for (const char* name : {"A", "B", "C"}) {
    ASSERT_TRUE(db->CreateTable(name, Type::Tuple({{"k", Type::Int()},
                                                   {"v", Type::Int()}}))
                    .ok());
  }
  for (int i = 0; i < 2048; ++i) {
    ASSERT_TRUE(db->Insert("A", Value::Tuple({Field("k", Value::Int(i % 64)),
                                              Field("v", Value::Int(i))}))
                    .ok());
  }
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(db->Insert("B", Value::Tuple({Field("k", Value::Int(i % 64)),
                                              Field("v", Value::Int(i % 64))}))
                    .ok());
    ASSERT_TRUE(db->Insert("C", Value::Tuple({Field("k", Value::Int(i % 64)),
                                              Field("v", Value::Int(i))}))
                    .ok());
  }
  const char* q =
      "select (a = x.v, c = z.v) from x in A, y in B, z in C "
      "where x.k = y.k and y.v = z.k";

  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  QueryEngine cost(db.get(), RewriteOptions(), EvalOptions(), popts);
  Result<QueryReport> c = cost.Run(q);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_NE(c->plan, nullptr);
  EXPECT_TRUE(c->plan->reordered) << c->Explain();

  QueryEngine heuristic(db.get());
  Result<QueryReport> h = heuristic.Run(q);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(c->result, h->result);
  // Two hash joins either way.
  const EvalStats& cs = c->exec_stats;
  EXPECT_EQ(cs.joins_nested_loop, 0u) << c->Explain();
  EXPECT_EQ(cs.joins_hash, 2u) << c->Explain();
  EXPECT_EQ(h->exec_stats.joins_hash, 2u);

  RewriteOptions naive = RewriteOptions();
  naive.enable_map_join = false;
  QueryEngine nested(db.get(), naive);
  Result<QueryReport> n = nested.Run(q);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(c->result, n->result);
}

// ---------------------------------------------------------------------
// Layer 3: the planner prices exactly the operator the executor runs
// ---------------------------------------------------------------------

// Paper Example Query 5 rewrites to
//   SUPPLIER ⋉_{s,p : ∃x ∈ s.parts · x.pid = p.pid} σ[p : red](PART).
// The heuristic dispatch runs that ∃ form as a membership join; the
// cost planner matches the node with the same JoinShape, so it must pin
// the membership join too and then do exactly the heuristic run's work.
TEST(OptimizerPlannedWork, Query5PinsTheMembershipJoin) {
  SupplierPartConfig config;
  config.seed = 1;
  config.num_parts = 800;
  config.num_suppliers = 200;
  config.parts_per_supplier = 8;
  config.red_fraction = 0.2;
  config.match_fraction = 0.92;
  config.num_deliveries = 400;
  auto db = MakeSupplierPartDatabase(config);
  const char* q5 =
      "select s.sname from s in SUPPLIER where "
      "exists x in s.parts : exists p in PART : "
      "x.pid = p.pid and p.color = \"red\"";

  QueryEngine heuristic(db.get());
  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  QueryEngine cost(db.get(), RewriteOptions(), EvalOptions(), popts);
  Result<QueryReport> h = heuristic.Run(q5);
  Result<QueryReport> c = cost.Run(q5);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_NE(c->plan, nullptr);

  const Expr* semi = FindJoinNode(c->plan->root);
  ASSERT_NE(semi, nullptr);
  ASSERT_EQ(semi->kind(), ExprKind::kSemiJoin);
  const PlanAnnotation* pa = c->plan->annotations.Find(semi);
  ASSERT_NE(pa, nullptr);
  EXPECT_TRUE(pa->algorithm.has_value()) << c->plan->Describe();
  EXPECT_EQ(pa->label, "membership") << c->plan->Describe();

  EXPECT_EQ(c->result, h->result);
  const EvalStats& cs = c->exec_stats;
  const EvalStats& hs = h->exec_stats;
  EXPECT_EQ(cs.joins_membership, 1u);
  EXPECT_EQ(cs.joins_nested_loop, 0u);
  EXPECT_EQ(cs.tuples_scanned, hs.tuples_scanned);
  EXPECT_EQ(cs.predicate_evals, hs.predicate_evals);
  EXPECT_EQ(cs.hash_probes, hs.hash_probes);
  EXPECT_EQ(cs.joins_membership, hs.joins_membership);
  EXPECT_EQ(cs.joins_nested_loop, hs.joins_nested_loop);
}

// Paper Example Query 1 rewrites to a nestjoin of SUPPLIER with
// σ[p : red](PART) on the direct membership p[pid] ∈ s.parts. A nested
// loop pays a projection and a binary search of s.parts per pair; priced
// as one plain predicate evaluation, the cost planner pinned it at
// |PART| = 100 (550 pair evaluations). Priced per pair, it pins the
// membership join and does exactly the heuristic run's work.
TEST(OptimizerPlannedWork, Query1PinsTheMembershipJoin) {
  SupplierPartConfig config;
  config.seed = 1;
  config.num_parts = 100;
  config.num_suppliers = 25;
  config.parts_per_supplier = 8;
  config.red_fraction = 0.2;
  config.match_fraction = 0.92;
  config.num_deliveries = 50;
  auto db = MakeSupplierPartDatabase(config);
  const char* q1 =
      "select (sname = s.sname, pnames = select p.pname from p in PART "
      "where p[pid] in s.parts and p.color = \"red\") from s in SUPPLIER";

  QueryEngine heuristic(db.get());
  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  QueryEngine cost(db.get(), RewriteOptions(), EvalOptions(), popts);
  Result<QueryReport> h = heuristic.Run(q1);
  Result<QueryReport> c = cost.Run(q1);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_NE(c->plan, nullptr);

  const Expr* nest = FindJoinNode(c->plan->root);
  ASSERT_NE(nest, nullptr);
  ASSERT_EQ(nest->kind(), ExprKind::kNestJoin);
  const PlanAnnotation* pa = c->plan->annotations.Find(nest);
  ASSERT_NE(pa, nullptr);
  EXPECT_TRUE(pa->algorithm.has_value()) << c->plan->Describe();
  EXPECT_EQ(pa->label, "membership") << c->plan->Describe();

  EXPECT_EQ(c->result, h->result);
  const EvalStats& cs = c->exec_stats;
  const EvalStats& hs = h->exec_stats;
  EXPECT_EQ(cs.joins_membership, 1u);
  EXPECT_EQ(cs.joins_nested_loop, 0u);
  EXPECT_EQ(cs.tuples_scanned, hs.tuples_scanned);
  EXPECT_EQ(cs.predicate_evals, hs.predicate_evals);
  EXPECT_EQ(cs.hash_probes, hs.hash_probes);
  EXPECT_EQ(cs.joins_membership, hs.joins_membership);
  EXPECT_EQ(cs.joins_nested_loop, hs.joins_nested_loop);
}

/// Creates table `name` with int columns `cols` and one row per entry of
/// `rows`.
void AddIntTable(Database* db, const std::string& name,
                 const std::vector<std::string>& cols,
                 const std::vector<std::vector<int>>& rows) {
  std::vector<TypeField> fields;
  for (const std::string& c : cols) fields.push_back({c, Type::Int()});
  N2J_CHECK(db->CreateTable(name, Type::Tuple(fields)).ok());
  for (const std::vector<int>& row : rows) {
    std::vector<Field> vals;
    for (size_t i = 0; i < cols.size(); ++i) {
      vals.emplace_back(cols[i], Value::Int(row[i]));
    }
    N2J_CHECK(db->Insert(name, Value::Tuple(std::move(vals))).ok());
  }
}

/// Runs `q` under both planners and checks that the cost planner keeps
/// the query's one join off the nested loop, with no more deterministic
/// work than the heuristic's hash join.
void ExpectCostPlanAvoidsNestedLoop(Database* db, const char* q) {
  QueryEngine heuristic(db);
  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  QueryEngine cost(db, RewriteOptions(), EvalOptions(), popts);
  Result<QueryReport> h = heuristic.Run(q);
  Result<QueryReport> c = cost.Run(q);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_NE(c->plan, nullptr);
  const Expr* join = FindJoinNode(c->plan->root);
  ASSERT_NE(join, nullptr);
  const PlanAnnotation* pa = c->plan->annotations.Find(join);
  ASSERT_NE(pa, nullptr);
  EXPECT_NE(pa->label, "nested-loop") << c->plan->Describe();

  EXPECT_EQ(c->result, h->result);
  EXPECT_EQ(h->exec_stats.joins_hash, 1u);
  EXPECT_EQ(c->exec_stats.joins_nested_loop, 0u);
  EXPECT_LE(JoinWork(c->exec_stats), JoinWork(h->exec_stats))
      << "cost: " << c->exec_stats.Compact()
      << "\nheuristic: " << h->exec_stats.Compact();
}

// A join key that scans a table per left row. The nestjoin of the one
// constant row with F2 keys on max(select v0.d from v2 in F1) = v1.b.
// Priced at one predicate evaluation per pair, the cost planner pinned a
// nested loop (est_cost 0.001 ms) that rescans F1 for every F2 row; the
// hash join scans it once.
TEST(OptimizerPlannedWork, TableScanningJoinKeyAvoidsNestedLoop) {
  auto db = std::make_unique<Database>();
  AddIntTable(db.get(), "F1", {"a"},
              {{0}, {3}, {5}, {3}, {1}, {4}, {6}, {7}});
  AddIntTable(db.get(), "F2", {"a", "b"},
              {{4, 5}, {2, 2}, {2, 3}, {4, 2}, {1, 1}, {3, 5}, {0, 1},
               {0, 2}, {1, 3}, {3, 1}, {4, 3}, {0, 0}, {2, 4}, {2, 6},
               {4, 7}});
  ExpectCostPlanAvoidsNestedLoop(
      db.get(),
      "select v0 from v0 in {(d = 0)} where ((d = 0) in "
      "select (d = count(F1)) from v1 in F2 "
      "where max(select v0.d from v2 in F1) = v1.b)");
}

// Both keys hold a subquery: min(select 0 from v2 in v1.c) reads the
// right row's set, count(select 0 from v4 in F0 where v0.a <> 0) scans
// F0 per left row. The nested loop evaluated both per pair.
TEST(OptimizerPlannedWork, SubqueryKeysOnBothSidesAvoidNestedLoop) {
  auto db = std::make_unique<Database>();
  TypePtr elem = Type::Tuple({{"d", Type::Int()}});
  ASSERT_TRUE(db->CreateTable("F0", Type::Tuple({{"a", Type::Int()},
                                                 {"c", Type::Set(elem)}}))
                  .ok());
  auto d = [](int v) { return Value::Tuple({Field("d", Value::Int(v))}); };
  const int as[] = {0, 0, 0, 4, 4, 3, 0, 2, 3};
  for (size_t i = 0; i < std::size(as); ++i) {
    Value c = i == 6 ? Value::Set({d(3), d(4)}) : Value::EmptySet();
    ASSERT_TRUE(db->Insert("F0", Value::Tuple({Field("a", Value::Int(as[i])),
                                               Field("c", c)}))
                    .ok());
  }
  AddIntTable(db.get(), "F2", {"a"}, {{1}});
  ExpectCostPlanAvoidsNestedLoop(
      db.get(),
      "select v1 from v0 in F2, v1 in F0 "
      "where min(select 0 from v2 in v1.c) = "
      "count(select 0 from v4 in F0 where v0.a <> 0)");
}

// Counter golden for bench_strategy_ablation's chain3-join at n = 1024
// (the bench's X, Y, W generator settings). Before general Rule 2 the
// Y–W join was correlated on x and ran 960 hash joins over 3,813,169
// scanned tuples; the flat join tree runs exactly two under both
// strategies.
TEST(OptimizerPlannedWork, Chain3JoinRunsTwoHashJoins) {
  const int n = 1024;
  auto db = std::make_unique<Database>();
  XYConfig xy;
  xy.seed = 31;
  xy.x_rows = n;
  xy.y_rows = n;
  xy.key_domain = n;
  ASSERT_TRUE(AddRandomXY(db.get(), xy).ok());
  XYConfig zw;
  zw.seed = 37;
  zw.x_rows = n / 2;
  zw.y_rows = n * 2;
  zw.key_domain = n;
  zw.value_domain = n;
  ASSERT_TRUE(AddRandomXY(db.get(), zw, "Z", "W").ok());
  const char* q =
      "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
      "where x.a = y.a and y.e = w.a";

  for (PlanStrategy strategy : {PlanStrategy::kHeuristic, PlanStrategy::kCost}) {
    SCOPED_TRACE(PlanStrategyName(strategy));
    PlannerOptions popts;
    popts.strategy = strategy;
    QueryEngine engine(db.get(), RewriteOptions(), EvalOptions(), popts);
    Result<QueryReport> r = engine.Run(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->result.set_size(), 767u);
    const EvalStats& s = r->exec_stats;
    EXPECT_EQ(s.joins_hash, 2u) << r->Explain();
    EXPECT_EQ(s.joins_nested_loop, 0u);
    EXPECT_EQ(s.tuples_scanned, 9984u) << r->Explain();
  }
}

}  // namespace
}  // namespace n2j
