// Profiled execution (EXPLAIN ANALYZE): golden span trees for the
// paper's worked queries, the span-sum invariant (exclusive deltas over
// the whole trace reconstruct the global EvalStats exactly, serial and
// parallel), tracing as a pure observer, Chrome-trace structure, and
// the process-wide metrics registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/engine.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "storage/datagen.h"

namespace n2j {
namespace {

// Example Query 4: "suppliers supplying non-existing parts" — the
// unnest + antijoin plan (paper_queries_test pins the plan shape; here
// we pin its profile).
constexpr char kQuery4[] =
    "select s.eid from s in SUPPLIER where "
    "exists z in s.parts : not exists p in PART : z.pid = p.pid";

// Example Query 6: select-clause nesting — the nestjoin plan.
constexpr char kQuery6[] =
    "select (sname = s.sname, "
    "        partssuppl = select p from p in PART "
    "                     where p[pid] in s.parts) "
    "from s in SUPPLIER";

/// The Figure 1 query σ[x : x.c ⊆ σ[y : x.a = y.a](Y)](X) as ADL.
ExprPtr Fig1Query() {
  ExprPtr subq = Expr::Map(
      "y", Expr::TupleConstruct({"d"}, {Expr::Access(Expr::Var("y"), "e")}),
      Expr::Select("y",
                   Expr::Eq(Expr::Access(Expr::Var("x"), "a"),
                            Expr::Access(Expr::Var("y"), "a")),
                   Expr::Table("Y")));
  return Expr::Select(
      "x",
      Expr::Bin(BinOp::kSubsetEq, Expr::Access(Expr::Var("x"), "c"), subq),
      Expr::Table("X"));
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SupplierPartConfig config;
    config.seed = 21;
    config.num_parts = 50;
    config.num_suppliers = 20;
    config.parts_per_supplier = 6;
    config.red_fraction = 0.25;
    config.match_fraction = 0.85;
    config.num_deliveries = 30;
    db_ = MakeSupplierPartDatabase(config);

    xy_db_ = std::make_unique<Database>();
    XYConfig xy;
    xy.seed = 5;
    xy.x_rows = 50;
    xy.y_rows = 50;
    xy.key_domain = 26;
    xy.empty_set_prob = 0.2;
    N2J_CHECK(AddRandomXY(xy_db_.get(), xy).ok());
  }

  /// Runs `oosql` with tracing attached and returns the deterministic
  /// (time-masked) rendering of the span tree.
  std::string Profile(const std::string& oosql, int num_threads = 1) {
    EvalOptions eval;
    eval.num_threads = num_threads;
    eval.trace = &collector_;
    QueryEngine engine(db_.get(), RewriteOptions(), eval);
    Result<QueryReport> r = engine.Run(oosql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    EXPECT_EQ(r->profile, &collector_);
    return collector_.Render({.show_time = false});
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Database> xy_db_;
  TraceCollector collector_;
};

TEST_F(ExplainAnalyzeTest, GoldenProfileQuery4) {
  std::string rendered = Profile(kQuery4);
  EXPECT_EQ(rendered,
            "query                       in=0 out=11 | nodes=1\n"
            "  map                       in=19 out=11 | scanned=19 nodes=1"
            " compiled=19\n"
            "    antijoin [hash keys=1]  in=117 build=50 out=19 peak_hash=50"
            " | scanned=167 h_ins=50 h_probe=117 nodes=2 compiled=167"
            " hash_joins=1\n"
            "      unnest                in=20 out=117 | scanned=20"
            " nodes=1\n")
      << "actual:\n" << rendered;
}

TEST_F(ExplainAnalyzeTest, GoldenProfileQuery6) {
  std::string rendered = Profile(kQuery6);
  EXPECT_EQ(rendered,
            "query                                 in=0 out=20 | nodes=1\n"
            "  map                                 in=20 out=20 |"
            " scanned=20 set_sorted=20 nodes=1 compiled=20\n"
            "    nestjoin [membership attr=parts]  in=20 build=50 out=20"
            " peak_hash=50 | scanned=70 h_ins=50 h_probe=117 nodes=2"
            " compiled=50 mem_joins=1\n")
      << "actual:\n" << rendered;
}

TEST_F(ExplainAnalyzeTest, GoldenProfileFig1NestedQuery) {
  TraceCollector tc;
  EvalOptions eval;
  eval.trace = &tc;
  QueryEngine engine(xy_db_.get(), RewriteOptions(), eval);
  Result<QueryReport> r = engine.RunAdl(Fig1Query());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string rendered = tc.Render({.show_time = false});
  EXPECT_EQ(rendered,
            "query                         in=0 out=17 | nodes=1\n"
            "  project                     in=17 out=17 | scanned=17"
            " nodes=1\n"
            "    select                    in=44 out=17 | scanned=44"
            " preds=44 nodes=1 compiled=44\n"
            "      nestjoin [hash keys=1]  in=44 build=45 out=44"
            " peak_hash=21 | scanned=89 h_ins=45 h_probe=44 nodes=2"
            " compiled=176 hash_joins=1\n")
      << "actual:\n" << rendered;
}

TEST_F(ExplainAnalyzeTest, ExplainGrowsProfileSectionWhenTraced) {
  EvalOptions eval;
  eval.trace = &collector_;
  QueryEngine engine(db_.get(), RewriteOptions(), eval);
  Result<QueryReport> r = engine.Run(kQuery4);
  ASSERT_TRUE(r.ok());
  std::string explain = r->Explain();
  EXPECT_NE(explain.find("profile:\n"), std::string::npos) << explain;
  EXPECT_NE(explain.find("stats:"), std::string::npos);
  EXPECT_NE(explain.find("antijoin"), std::string::npos) << explain;

  // Untraced engines keep the classic explain: no profile section.
  QueryEngine plain(db_.get());
  Result<QueryReport> p = plain.Run(kQuery4);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->Explain().find("profile:"), std::string::npos);
}

// A plan that stays correlated: the semijoin's residual reads the outer
// x, so it is rebuilt once per X row. EXPLAIN and the flight recorder
// report one q-error entry per plan node with est and actual summed over
// the loops (not one per invocation), and the planner says how many
// operators its est_cost leaves unpriced.
TEST_F(ExplainAnalyzeTest, CorrelatedPlanReportsOneQErrorPerPlanNode) {
  EvalOptions eval;
  eval.trace = &collector_;
  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  QueryEngine engine(xy_db_.get(), RewriteOptions(), eval, popts);
  Result<QueryReport> r = engine.Run(
      "select (a = x.a, ys = select y.e from y in Y where "
      "exists z in Y : z.a = y.e and z.e > y.a + x.a) from x in X");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->plan, nullptr);
  EXPECT_EQ(r->plan->unpriced_correlated, 1);
  std::string explain = r->Explain();
  EXPECT_NE(explain.find("est_cost=0.000ms +1 unpriced correlated"),
            std::string::npos)
      << explain;

  std::vector<NodeEstimate> nodes = collector_.EstimatesByPlanNode();
  size_t qerror_lines = 0;
  for (size_t pos = explain.find("qerror:"); pos != std::string::npos;
       pos = explain.find("qerror:", pos + 1)) {
    ++qerror_lines;
  }
  EXPECT_EQ(qerror_lines, nodes.size()) << explain;
  const NodeEstimate* semi = nullptr;
  for (const NodeEstimate& n : nodes) {
    if (n.op.rfind("semijoin", 0) == 0) semi = &n;
  }
  ASSERT_NE(semi, nullptr) << explain;
  size_t semi_loops = 0;
  uint64_t semi_rows = 0;
  for (const TraceSpan& s : collector_.spans()) {
    if (s.op != "semijoin") continue;
    ++semi_loops;
    semi_rows += s.rows_out;
  }
  EXPECT_GT(semi_loops, 1u);
  EXPECT_EQ(semi->loops, semi_loops);
  EXPECT_EQ(semi->actual, semi_rows);
  EXPECT_NE(explain.find(semi->op + " loops=" + std::to_string(semi_loops)),
            std::string::npos)
      << explain;

  std::vector<obs::QueryLogRecord> last = obs::QueryLog::Global().Snapshot(1);
  ASSERT_EQ(last.size(), 1u);
  ASSERT_EQ(last[0].roots.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(last[0].roots[i].op, nodes[i].op);
    EXPECT_DOUBLE_EQ(last[0].roots[i].est, nodes[i].est);
    EXPECT_EQ(last[0].roots[i].actual, nodes[i].actual);
  }
}

// Span `in=`/`out=` counts are set cardinalities on every edge, also
// where an operator hands its consumer rows before canonicalization.
// Two suppliers that differ only in `parts` share part 2, so unnesting
// them would repeat the row (name = "s1", pid = 2): unnest must notice
// and emit the 6-row set (set_sorted=7), not 7 rows. Without the shared
// part the unnest's 7 rows are distinct and reach the antijoin unsorted.
TEST_F(ExplainAnalyzeTest, RawEdgesCountSetCardinalities) {
  for (bool shared_part : {true, false}) {
    Database db;
    TypePtr pid_tuple = Type::Tuple({{"pid", Type::Int()}});
    ASSERT_TRUE(db.CreateTable("PART", pid_tuple).ok());
    ASSERT_TRUE(db.CreateTable("SUPP", Type::Tuple({{"name", Type::String()},
                                                   {"parts", Type::Set(
                                                                 pid_tuple)}}))
                    .ok());
    for (int pid : {3, 5}) {
      ASSERT_TRUE(
          db.Insert("PART", Value::Tuple({Field("pid", Value::Int(pid))}))
              .ok());
    }
    auto supplier = [](const char* name, std::vector<int> pids) {
      std::vector<Value> parts;
      for (int pid : pids) {
        parts.push_back(Value::Tuple({Field("pid", Value::Int(pid))}));
      }
      return Value::Tuple({Field("name", Value::String(name)),
                           Field("parts", Value::Set(std::move(parts)))});
    };
    ASSERT_TRUE(db.Insert("SUPP", supplier("s2", {9, 1})).ok());
    ASSERT_TRUE(db.Insert("SUPP", supplier("s1", {2, 3, 4})).ok());
    ASSERT_TRUE(db.Insert("SUPP", supplier(shared_part ? "s1" : "s0",
                                           {2, 5}))
                    .ok());
    ExprPtr q = Expr::Map(
        "w", Expr::Access(Expr::Var("w"), "name"),
        Expr::AntiJoin(Expr::Unnest(Expr::Table("SUPP"), "parts"),
                       Expr::Table("PART"), "z", "p",
                       Expr::Eq(Expr::Access(Expr::Var("z"), "pid"),
                                Expr::Access(Expr::Var("p"), "pid"))));
    TraceCollector tc;
    EvalOptions opts;
    opts.trace = &tc;
    Evaluator ev(db, opts);
    Result<Value> r = ev.Eval(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::string rendered = tc.Render({.show_time = false});
    if (shared_part) {
      EXPECT_EQ(rendered,
                "query                       in=0 out=2 | nodes=1\n"
                "  map                       in=4 out=2 | scanned=4"
                " set_sorted=4 nodes=1 compiled=4\n"
                "    antijoin [hash keys=1]  in=6 build=2 out=4 peak_hash=2"
                " | scanned=8 h_ins=2 h_probe=6 nodes=2 compiled=8"
                " hash_joins=1\n"
                "      unnest                in=3 out=6 | scanned=3"
                " set_sorted=7 nodes=1\n")
          << "actual:\n" << rendered;
    } else {
      // The map's rows arrive in name order: no sort is needed.
      EXPECT_EQ(rendered,
                "query                       in=0 out=3 | nodes=1\n"
                "  map                       in=5 out=3 | scanned=5"
                " nodes=1 compiled=5\n"
                "    antijoin [hash keys=1]  in=7 build=2 out=5 peak_hash=2"
                " | scanned=9 h_ins=2 h_probe=7 nodes=2 compiled=9"
                " hash_joins=1\n"
                "      unnest                in=3 out=7 | scanned=3"
                " nodes=1\n")
          << "actual:\n" << rendered;
    }
  }
}

// The tentpole invariant: the exclusive EvalStats deltas over the whole
// span tree sum exactly to the evaluator's global counters — per query,
// serial and 4-thread, interpreted and compiled.
TEST_F(ExplainAnalyzeTest, SpanStatsSumToGlobalStats) {
  const std::vector<std::string> queries = {kQuery4, kQuery6,
                                            "select s from s in SUPPLIER"};
  for (const std::string& q : queries) {
    for (int threads : {1, 4}) {
      for (bool compiled : {false, true}) {
        TraceCollector tc;
        EvalOptions eval;
        eval.num_threads = threads;
        eval.compiled = compiled;
        eval.trace = &tc;
        QueryEngine engine(db_.get(), RewriteOptions(), eval);
        Result<QueryReport> r = engine.Run(q);
        ASSERT_TRUE(r.ok()) << q;
        EXPECT_EQ(tc.SumExclusiveStats().Compact(),
                  r->exec_stats.Compact())
            << q << " threads=" << threads << " compiled=" << compiled
            << "\n" << tc.Render();
      }
    }
  }
}

// Tracing must be a pure observer: identical result values and identical
// global counters with and without a collector attached.
TEST_F(ExplainAnalyzeTest, TracingChangesNeitherResultsNorStats) {
  for (int threads : {1, 4}) {
    EvalOptions plain;
    plain.num_threads = threads;
    QueryEngine untraced(db_.get(), RewriteOptions(), plain);
    Result<QueryReport> base = untraced.Run(kQuery6);
    ASSERT_TRUE(base.ok());

    TraceCollector tc;
    EvalOptions traced_opts = plain;
    traced_opts.trace = &tc;
    QueryEngine traced(db_.get(), RewriteOptions(), traced_opts);
    Result<QueryReport> prof = traced.Run(kQuery6);
    ASSERT_TRUE(prof.ok());

    EXPECT_EQ(base->result, prof->result) << "threads=" << threads;
    EXPECT_EQ(base->exec_stats.Compact(), prof->exec_stats.Compact())
        << "threads=" << threads;
  }
}

TEST_F(ExplainAnalyzeTest, ChromeTraceHasOperatorAndWorkerTracks) {
  TraceCollector tc;
  EvalOptions eval;
  eval.num_threads = 4;
  eval.trace = &tc;
  QueryEngine engine(db_.get(), RewriteOptions(), eval);
  ASSERT_TRUE(engine.Run(kQuery6).ok());

  // 4 worker threads over 20 suppliers: the parallel operators must have
  // recorded morsel timestamps.
  ASSERT_FALSE(tc.spans().empty());
  ASSERT_FALSE(tc.worker_spans().empty());

  std::string json = ChromeTraceJson(tc);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc)) << json;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr) << json;
  size_t x_events = 0;
  bool saw_tid1 = false;
  std::vector<std::string> track_names;
  for (const JsonValue& e : events->items) {
    std::string ph, track;
    uint64_t tid = 0;
    ASSERT_TRUE(e.Get("ph", &ph) && e.Get("tid", &tid)) << json;
    if (ph == "X") ++x_events;
    if (tid == 1) saw_tid1 = true;
    const JsonValue* args = e.Find("args");
    if (ph == "M" && args != nullptr && args->Get("name", &track)) {
      track_names.push_back(track);
    }
  }
  for (const char* track : {"evaluator", "worker 0"}) {
    EXPECT_NE(std::find(track_names.begin(), track_names.end(), track),
              track_names.end())
        << track;
  }
  // Every operator span and worker morsel became one complete event.
  EXPECT_EQ(x_events, tc.spans().size() + tc.worker_spans().size());
  // Worker morsels land on tids 1+w, separate from the evaluator's 0.
  EXPECT_TRUE(saw_tid1);
}

TEST_F(ExplainAnalyzeTest, MetricsRegistryCountsQueries) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  QueryEngine engine(db_.get());
  ASSERT_TRUE(engine.Run(kQuery4).ok());
  ASSERT_TRUE(engine.Run(kQuery6).ok());
  EXPECT_FALSE(engine.Run("select (").ok());

  EXPECT_EQ(reg.GetCounter("n2j_queries_total").value(), 3u);
  EXPECT_EQ(reg.GetCounter("n2j_query_errors_total").value(), 1u);
  // Query 4 runs a hash antijoin; Query 6's nestjoin executes as a
  // membership join (`p[pid] in s.parts`).
  EXPECT_GE(reg.GetCounter("n2j_joins_hash_total").value(), 1u);
  EXPECT_GE(reg.GetCounter("n2j_joins_membership_total").value(), 1u);
  EXPECT_EQ(reg.GetHistogram("n2j_query_ms").count(), 3u);
  EXPECT_EQ(reg.GetHistogram("n2j_eval_ms").count(), 2u);

  std::string rendered = reg.Render();
  EXPECT_NE(rendered.find("n2j_queries_total"), std::string::npos);
  EXPECT_NE(rendered.find("n2j_query_ms"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, CollectorClearsBetweenQueries) {
  EvalOptions eval;
  eval.trace = &collector_;
  QueryEngine engine(db_.get(), RewriteOptions(), eval);
  ASSERT_TRUE(engine.Run(kQuery4).ok());
  size_t first = collector_.spans().size();
  ASSERT_TRUE(engine.Run(kQuery4).ok());
  // The engine clears the collector per query — spans do not accumulate.
  EXPECT_EQ(collector_.spans().size(), first);
}

}  // namespace
}  // namespace n2j
