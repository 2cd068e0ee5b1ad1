// Property tests for the statistics module and cardinality estimator
// (ISSUE 6): estimates must track trace-span actuals within a Q-error
// bound on datagen-generated extents — including set-valued attribute
// fanout — and Database::Append must invalidate extent statistics the
// same way it invalidates Table::AsSetValue() memoization.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "adl/type.h"
#include "adl/value.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "stats/cardinality.h"
#include "stats/stats.h"
#include "storage/datagen.h"

namespace n2j {
namespace {

/// Smoothed Q-error: symmetric ratio of estimate to actual with +1
/// smoothing so empty results stay comparable.
double QError(double est, double act) {
  double e = est + 1.0, a = act + 1.0;
  return e > a ? e / a : a / e;
}

/// Worst Q-error over the trace's estimated operators. Spans sharing
/// (op, detail) aggregate first — a correlated subplan node re-executes
/// per outer row with the same per-node estimate, so summing both sides
/// compares like with like (the way EXPLAIN ANALYZE aggregates loops).
double WorstSpanQError(const TraceCollector& tc, std::string* worst_label) {
  struct Cell {
    double est = 0.0;
    double act = 0.0;
  };
  std::map<std::string, Cell> cells;
  for (const TraceSpan& s : tc.spans()) {
    if (s.est_rows < 0) continue;
    Cell& c = cells[s.op + " [" + s.detail + "]"];
    c.est += s.est_rows;
    c.act += static_cast<double>(s.rows_out);
  }
  double worst = 1.0;
  for (const auto& [label, c] : cells) {
    double q = QError(c.est, c.act);
    if (q > worst) {
      worst = q;
      if (worst_label != nullptr) {
        *worst_label = label + " est=" + std::to_string(c.est) +
                       " act=" + std::to_string(c.act);
      }
    }
  }
  return worst;
}

struct WorkloadShape {
  const char* tag;
  const char* oosql;
};

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

struct DatagenCase {
  const char* name;
  SupplierPartConfig sp;
  XYConfig xy;
};

std::vector<DatagenCase> MakeCases() {
  std::vector<DatagenCase> cases;
  {
    DatagenCase c;
    c.name = "uniform";
    c.sp.seed = 3;
    c.sp.num_parts = 200;
    c.sp.num_suppliers = 50;
    c.xy.seed = 5;
    c.xy.x_rows = 200;
    c.xy.y_rows = 200;
    c.xy.key_domain = 200;
    cases.push_back(c);
  }
  {
    DatagenCase c;
    c.name = "skewed-fanout";
    c.sp.seed = 7;
    c.sp.num_parts = 200;
    c.sp.num_suppliers = 50;
    c.sp.parts_per_supplier = 12;
    c.sp.skew = 1.2;
    c.xy.seed = 9;
    c.xy.x_rows = 200;
    c.xy.y_rows = 200;
    c.xy.key_domain = 25;  // duplicated keys
    c.xy.max_set_size = 8;
    cases.push_back(c);
  }
  {
    DatagenCase c;
    c.name = "low-match";
    c.sp.seed = 11;
    c.sp.num_parts = 200;
    c.sp.num_suppliers = 50;
    c.sp.match_fraction = 0.25;
    c.xy.seed = 13;
    c.xy.x_rows = 200;
    c.xy.y_rows = 200;
    c.xy.key_domain = 1600;  // most probes miss
    cases.push_back(c);
  }
  {
    DatagenCase c;
    c.name = "dense-sets";
    c.sp.seed = 17;
    c.sp.num_parts = 200;
    c.sp.num_suppliers = 50;
    c.sp.parts_per_supplier = 16;
    c.xy.seed = 19;
    c.xy.x_rows = 200;
    c.xy.y_rows = 200;
    c.xy.key_domain = 200;
    c.xy.max_set_size = 10;
    c.xy.empty_set_prob = 0.4;
    cases.push_back(c);
  }
  return cases;
}

std::unique_ptr<Database> MakeCaseDb(const DatagenCase& c) {
  auto db = MakeSupplierPartDatabase(c.sp);
  EXPECT_TRUE(AddRandomXY(db.get(), c.xy).ok());
  return db;
}

// Acceptance bound: EXPLAIN's estimated-vs-actual rows stay within
// Q-error <= 4 on the paper workloads, every datagen case.
TEST(CardinalityQError, WorkloadSpansWithinBound) {
  for (const DatagenCase& c : MakeCases()) {
    auto db = MakeCaseDb(c);
    TraceCollector collector;
    EvalOptions eval_opts;
    eval_opts.trace = &collector;
    PlannerOptions popts;
    popts.strategy = PlanStrategy::kCost;
    QueryEngine engine(db.get(), RewriteOptions(), eval_opts, popts);
    for (const WorkloadShape& shape : kShapes) {
      SCOPED_TRACE(std::string(c.name) + "/" + shape.tag);
      Result<QueryReport> r = engine.Run(shape.oosql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_NE(r->plan, nullptr);
      std::string worst_label;
      double worst = WorstSpanQError(collector, &worst_label);
      EXPECT_LE(worst, 4.0) << "worst span: " << worst_label << "\n"
                            << r->plan->Describe();
    }
  }
}

// The estimator's set-attribute fanout: |flatten(map s.parts)| is
// rows × avg_fanout, which the stats module measures exactly.
TEST(CardinalityQError, SetAttributeFanout) {
  for (const DatagenCase& c : MakeCases()) {
    SCOPED_TRACE(c.name);
    auto db = MakeCaseDb(c);
    ExprPtr flat = Expr::Flatten(
        Expr::Map("s", Expr::Access(Expr::Var("s"), "parts"),
                  Expr::Table("SUPPLIER")));
    CardinalityEstimator est(*db);
    double estimated = est.Estimate(flat).rows;
    ASSERT_GE(estimated, 0.0);
    Evaluator ev(*db);
    Result<Value> v = ev.Eval(flat);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    // Flatten de-duplicates (set semantics): the estimate must cap the
    // multiset element count (rows × avg_fanout) at the measured
    // distinct element count, so it can never exceed the raw element
    // count and must track the flattened size even under heavy skew.
    auto es = db->stats().Get(*db, "SUPPLIER");
    ASSERT_NE(es, nullptr);
    const AttrStats* parts = es->Find("parts");
    ASSERT_NE(parts, nullptr);
    EXPECT_TRUE(parts->set_valued);
    EXPECT_LE(estimated, static_cast<double>(parts->element_count) + 0.5);
    EXPECT_LE(QError(estimated, static_cast<double>(v->set_size())), 4.0);
  }
}

// Equi-join output estimates: X ⋈-family ops on generated keys.
TEST(CardinalityQError, SemiJoinEstimate) {
  for (const DatagenCase& c : MakeCases()) {
    SCOPED_TRACE(c.name);
    auto db = MakeCaseDb(c);
    ExprPtr semi =
        Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                       Expr::Eq(Expr::Access(Expr::Var("y"), "a"),
                                Expr::Access(Expr::Var("x"), "a")));
    CardinalityEstimator est(*db);
    double estimated = est.Estimate(semi).rows;
    ASSERT_GE(estimated, 0.0);
    Evaluator ev(*db);
    Result<Value> v = ev.Eval(semi);
    ASSERT_TRUE(v.ok());
    EXPECT_LE(QError(estimated, static_cast<double>(v->set_size())), 4.0)
        << "est=" << estimated << " act=" << v->set_size();
  }
}

// ---------------------------------------------------------------------
// Stale-stats regression (ISSUE 6 satellite): Append must invalidate
// extent statistics exactly like it invalidates AsSetValue memoization.
// ---------------------------------------------------------------------

void InsertRows(Database* db, const std::string& table, int from, int to) {
  for (int i = from; i < to; ++i) {
    ASSERT_TRUE(db->Insert(table,
                           Value::Tuple({Field("k", Value::Int(i % 97)),
                                         Field("v", Value::Int(i))}))
                    .ok());
  }
}

TEST(StaleStats, AppendRefreshesCatalogWithoutAnalyze) {
  Database db;
  ASSERT_TRUE(db.CreateTable("T", Type::Tuple({{"k", Type::Int()},
                                               {"v", Type::Int()}}))
                  .ok());
  InsertRows(&db, "T", 0, 4);
  auto before = db.stats().Get(db, "T");
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->row_count, 4u);

  // Bulk append — the catalog entry must refresh lazily on next Get,
  // with no explicit Analyze call.
  InsertRows(&db, "T", 4, 2000);
  auto after = db.stats().Get(db, "T");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->row_count, 2000u);
  const AttrStats* k = after->Find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->distinct, 97u);
}

TEST(StaleStats, PlanChoiceTracksBulkAppend) {
  Database db;
  ASSERT_TRUE(db.CreateTable("L", Type::Tuple({{"k", Type::Int()},
                                               {"v", Type::Int()}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable("R", Type::Tuple({{"k2", Type::Int()},
                                               {"v2", Type::Int()}}))
                  .ok());
  auto insert = [&](const std::string& table, const char* kf, const char* vf,
                    int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(db.Insert(table,
                            Value::Tuple({Field(kf, Value::Int(i % 97)),
                                          Field(vf, Value::Int(i))}))
                      .ok());
    }
  };
  insert("L", "k", "v", 0, 2);
  insert("R", "k2", "v2", 0, 2);

  ExprPtr join = Expr::Join(Expr::Table("L"), Expr::Table("R"), "l", "r",
                            Expr::Eq(Expr::Access(Expr::Var("l"), "k"),
                                     Expr::Access(Expr::Var("r"), "k2")));
  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  Planner planner(db, popts);

  auto annotation = [&]() -> PlanAnnotation {
    Result<PhysicalPlan> pp = planner.Plan(join);
    EXPECT_TRUE(pp.ok());
    const PlanAnnotation* pa = pp->annotations.Find(join.get());
    EXPECT_NE(pa, nullptr);
    return pa == nullptr ? PlanAnnotation() : *pa;
  };

  PlanAnnotation small = annotation();
  // 2×2 rows: estimates must reflect the tiny extent.
  EXPECT_LE(small.est_rows, 8.0);

  insert("L", "k", "v", 2, 2000);
  insert("R", "k2", "v2", 2, 2000);
  // The catalog still holds the 2-row snapshots; one cost-planned run
  // refreshes every extent it prices, with no Analyze call.
  ASSERT_NE(db.stats().Peek("L"), nullptr);
  EXPECT_EQ(db.stats().Peek("L")->row_count, 2u);
  QueryEngine engine(&db, RewriteOptions(), EvalOptions(), popts);
  ASSERT_TRUE(engine.RunAdl(join).ok());
  for (const char* table : {"L", "R"}) {
    SCOPED_TRACE(table);
    std::shared_ptr<const ExtentStats> peeked = db.stats().Peek(table);
    ASSERT_NE(peeked, nullptr);
    EXPECT_EQ(peeked->row_count, db.FindTable(table)->size());
  }
  PlanAnnotation large = annotation();
  // Stale statistics would still claim ~2 rows and keep pricing for the
  // tiny inputs; the refreshed catalog must see the bulk append and
  // switch to a scalable algorithm.
  EXPECT_GE(large.est_rows, 1000.0);
  ASSERT_TRUE(large.algorithm.has_value());
  EXPECT_NE(*large.algorithm, JoinAlgorithm::kNestedLoop);
}

}  // namespace
}  // namespace n2j
