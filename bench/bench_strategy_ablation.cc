// Experiment: Section 4 — the priority strategy, ablated.
//
// The paper orders its optimization options: (1) rewrite into relational
// join operators, (2) unnest set-valued attributes, (3) use new
// operators (nestjoin), (4) fall back to nested loops. This binary runs
// a mixed workload of the paper's query shapes with each option disabled
// in turn, reporting total wall time and how many queries end up with
// residual nested base tables (i.e. nested-loop execution).
//
// It also compares the paper's fixed priority strategy against the
// cost-based planner (opt/optimizer.h): every shape is executed under
// both strategies, results are asserted bit-identical, and both
// variants land in the trajectory JSON. --strategy=cost|heuristic pins
// the strategy for the google-benchmark timed loops (the comparison
// section always runs both).

#include <benchmark/benchmark.h>

#include <cstring>

#include "adl/analysis.h"
#include "bench/bench_util.h"
#include "oosql/translate.h"
#include "opt/optimizer.h"

namespace n2j {
namespace {

using bench::MustEval;
using bench::MustRewrite;
using bench::Section;
using bench::TimeMs;

const char* kWorkload[] = {
    // Rule 1 shapes.
    "select x from x in X where exists y in Y : y.a = x.a",
    "select x from x in X where not exists y in Y : y.a = x.a",
    "select x.a from x in X where x.a in "
    "(select y.e from y in Y where y.a = x.a)",
    // Attribute unnesting (Example Query 4 shape).
    "select s.eid from s in SUPPLIER where "
    "exists z in s.parts : not exists p in PART : z.pid = p.pid",
    // Quantifier exchange (Example Query 5 shape).
    "select s.sname from s in SUPPLIER where "
    "exists z in s.parts : exists p in PART : "
    "z.pid = p.pid and p.color = \"red\"",
    // Grouping-requiring shapes (nestjoin).
    "select x from x in X where x.c subseteq "
    "(select (d = y.e) from y in Y where y.a = x.a)",
    "select (a = x.a, k = count(select y from y in Y where y.a = x.a)) "
    "from x in X",
    // Constant subquery.
    "select x from x in X where x.a in (select y.a from y in Y)",
};

struct Config {
  const char* name;
  RewriteOptions options;
};

std::vector<Config> MakeConfigs() {
  std::vector<Config> configs;
  configs.push_back({"full strategy", RewriteOptions()});

  RewriteOptions no_joins;
  no_joins.enable_setcmp = false;
  no_joins.enable_quantifier = false;
  no_joins.enable_map_join = false;
  configs.push_back({"no relational rewrites (opt 1 off)", no_joins});

  RewriteOptions no_unnest;
  no_unnest.enable_unnest_attr = false;
  configs.push_back({"no attribute unnesting (opt 2 off)", no_unnest});

  RewriteOptions no_nestjoin;
  no_nestjoin.grouping = GroupingMode::kNone;
  configs.push_back({"no nestjoin (opt 3 off)", no_nestjoin});

  RewriteOptions no_hoist;
  no_hoist.enable_hoist = false;
  configs.push_back({"no constant hoisting", no_hoist});

  RewriteOptions nothing = bench::AllRewritesOff();
  configs.push_back({"nested loops only (all off)", nothing});
  return configs;
}

std::unique_ptr<Database> MakeDb(int n) {
  SupplierPartConfig sp;
  sp.seed = 29;
  sp.num_parts = n;
  sp.num_suppliers = n / 4;
  sp.parts_per_supplier = 6;
  sp.match_fraction = 0.9;
  sp.red_fraction = 0.2;
  auto db = MakeSupplierPartDatabase(sp);
  XYConfig xy;
  xy.seed = 31;
  xy.x_rows = n;
  xy.y_rows = n;
  xy.key_domain = n;
  N2J_CHECK(AddRandomXY(db.get(), xy).ok());
  return db;
}

bool HasNestedBaseTable(const ExprPtr& e);  // below

/// Process-wide planner-strategy selection for the timed loops
/// (--strategy=cost|heuristic; default heuristic, the engine default).
PlanStrategy& BenchStrategy() {
  static PlanStrategy strategy = PlanStrategy::kHeuristic;
  return strategy;
}

/// Plans `e` with the cost-based planner, aborting on error.
PhysicalPlan MustPlan(const Database& db, const ExprPtr& e) {
  PlannerOptions popts;
  popts.strategy = PlanStrategy::kCost;
  Planner planner(db, popts);
  Result<PhysicalPlan> pp = planner.Plan(e);
  if (!pp.ok()) {
    std::fprintf(stderr, "bench planning failed: %s\n",
                 pp.status().ToString().c_str());
    std::abort();
  }
  return *std::move(pp);
}

/// Evaluates a pre-planned physical plan (annotation-driven dispatch).
Value EvalPlanned(const Database& db, const PhysicalPlan& pp,
                  EvalStats* stats = nullptr) {
  EvalOptions opts;
  opts.plan = &pp.annotations;
  return MustEval(db, pp.root, opts, stats);
}

// The strategy-comparison workload: the join-heavy shapes where the
// physical algorithm and join order actually matter. The 3-table chain
// exercises the Selinger-style reordering DP.
struct StrategyQuery {
  const char* tag;
  const char* oosql;
};

const StrategyQuery kStrategyWorkload[] = {
    {"fig1-semijoin",
     "select x from x in X where exists y in Y : y.a = x.a"},
    {"antijoin",
     "select x from x in X where not exists y in Y : y.a = x.a"},
    {"q4-dangling",
     "select s.eid from s in SUPPLIER where "
     "exists z in s.parts : not exists p in PART : z.pid = p.pid"},
    {"q6-nestjoin",
     "select x from x in X where x.c subseteq "
     "(select (d = y.e) from y in Y where y.a = x.a)"},
    {"chain3-join",
     "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
     "where x.a = y.a and y.e = w.a"},
};

std::unique_ptr<Database> MakeStrategyDb(int n) {
  auto db = MakeDb(n);
  XYConfig zw;
  zw.seed = 37;
  zw.x_rows = n / 2;
  zw.y_rows = n * 2;
  zw.key_domain = n;
  zw.value_domain = n;
  N2J_CHECK(AddRandomXY(db.get(), zw, "Z", "W").ok());
  return db;
}

void RunStrategyComparison(bench::Trajectory* traj) {
  Section("Planner strategy — paper heuristic vs cost-based "
          "(both recorded in the trajectory)");
  std::printf("%-16s %6s %14s %12s %8s %10s\n", "query", "n",
              "heuristic (ms)", "cost (ms)", "ratio", "reordered");
  for (int n : {256, 1024}) {
    auto db = MakeStrategyDb(n);
    Translator tr(db->schema(), db.get());
    for (const StrategyQuery& q : kStrategyWorkload) {
      Result<TypedExpr> typed = tr.TranslateString(q.oosql);
      N2J_CHECK(typed.ok());
      ExprPtr plan = MustRewrite(*db, typed->expr).expr;
      PhysicalPlan pp = MustPlan(*db, plan);

      // Correctness gate: the two strategies must agree bit-for-bit.
      EvalStats h_stats, c_stats;
      Value heuristic = MustEval(*db, plan, EvalOptions(), &h_stats);
      Value cost = EvalPlanned(*db, pp, &c_stats);
      N2J_CHECK(heuristic == cost);

      double h_ms = TimeMs([&] { MustEval(*db, plan); }, 50);
      double c_ms = TimeMs([&] { EvalPlanned(*db, pp); }, 50);
      std::printf("%-16s %6d %14.3f %12.3f %7.2fx %10s\n", q.tag, n, h_ms,
                  c_ms, c_ms / h_ms, pp.reordered ? "yes" : "no");
      traj->Add(q.tag, "heuristic", n, h_ms, h_stats);
      traj->Add(q.tag, "cost", n, c_ms, c_stats);
      if (n == 1024) {
        // One traced run per strategy, outside the timed loops, feeds the
        // trajectory's operator_profile.
        bench::ProfileOnce(traj, *db, plan, q.tag, "heuristic", n);
        EvalOptions cost_opts;
        cost_opts.plan = &pp.annotations;
        bench::ProfileOnce(traj, *db, pp.root, q.tag, "cost", n, cost_opts);
      }
    }
  }
  std::printf(
      "\n'cost' plans once (outside the timed loop) and executes the\n"
      "planner's annotated tree; 'heuristic' is the paper's priority\n"
      "strategy with auto physical dispatch. Results are asserted\n"
      "bit-identical before timing.\n");
}

void RunAblation() {
  Section("Section 4 priority strategy — ablation (workload of 8 queries)");
  int n = 400;
  auto db = MakeDb(n);
  Translator tr(db->schema(), db.get());

  std::vector<ExprPtr> queries;
  for (const char* q : kWorkload) {
    Result<TypedExpr> typed = tr.TranslateString(q);
    N2J_CHECK(typed.ok());
    queries.push_back(typed->expr);
  }
  // Reference results from the full strategy.
  std::vector<Value> reference;
  for (const ExprPtr& q : queries) {
    reference.push_back(MustEval(*db, MustRewrite(*db, q).expr));
  }

  std::printf("%-38s %12s %10s %12s\n", "configuration", "total (ms)",
              "residual", "vs full");
  double full_ms = 0;
  for (const Config& config : MakeConfigs()) {
    std::vector<ExprPtr> plans;
    int residual = 0;
    for (const ExprPtr& q : queries) {
      ExprPtr plan = MustRewrite(*db, q, config.options).expr;
      plans.push_back(plan);
      if (HasNestedBaseTable(plan)) ++residual;
    }
    // Correctness under ablation: all configurations agree.
    for (size_t i = 0; i < plans.size(); ++i) {
      N2J_CHECK(MustEval(*db, plans[i]) == reference[i]);
    }
    double total = TimeMs(
        [&] {
          for (const ExprPtr& p : plans) MustEval(*db, p);
        },
        100);
    if (full_ms == 0) full_ms = total;
    std::printf("%-38s %12.2f %10d %11.1fx\n", config.name, total, residual,
                total / full_ms);
  }
  std::printf(
      "\n'residual' counts queries whose final plan still scans a base\n"
      "table inside an iterator parameter (the paper's definition of\n"
      "remaining nested-loop processing).\n");
}

bool HasNestedBaseTable(const ExprPtr& e) {
  bool found = false;
  std::function<void(const ExprPtr&, bool)> walk = [&](const ExprPtr& n,
                                                       bool in_param) {
    if (n->kind() == ExprKind::kGetTable && in_param) {
      found = true;
      return;
    }
    for (size_t i = 0; i < n->num_children(); ++i) {
      bool param = in_param;
      switch (n->kind()) {
        case ExprKind::kMap:
        case ExprKind::kSelect:
        case ExprKind::kQuantifier:
          if (i == 1) param = true;
          break;
        case ExprKind::kJoin:
        case ExprKind::kSemiJoin:
        case ExprKind::kAntiJoin:
          if (i == 2) param = true;
          break;
        case ExprKind::kNestJoin:
          if (i >= 2) param = true;
          break;
        default:
          break;
      }
      walk(n->child(i), param);
    }
  };
  walk(e, false);
  return found;
}

void BM_FullStrategyWorkload(benchmark::State& state) {
  auto db = MakeDb(static_cast<int>(state.range(0)));
  Translator tr(db->schema(), db.get());
  std::vector<ExprPtr> plans;
  for (const char* q : kWorkload) {
    Result<TypedExpr> typed = tr.TranslateString(q);
    N2J_CHECK(typed.ok());
    plans.push_back(MustRewrite(*db, typed->expr).expr);
  }
  // --strategy=cost: plan once up front, time annotation-driven
  // execution (plan time is BM_RewriterItself's concern, not this loop's).
  std::vector<PhysicalPlan> physical;
  if (BenchStrategy() == PlanStrategy::kCost) {
    for (const ExprPtr& p : plans) physical.push_back(MustPlan(*db, p));
  }
  for (auto _ : state) {
    if (BenchStrategy() == PlanStrategy::kCost) {
      for (const PhysicalPlan& pp : physical) {
        benchmark::DoNotOptimize(EvalPlanned(*db, pp));
      }
    } else {
      for (const ExprPtr& p : plans) {
        benchmark::DoNotOptimize(MustEval(*db, p));
      }
    }
  }
}
BENCHMARK(BM_FullStrategyWorkload)->Arg(128)->Arg(512);

void BM_RewriterItself(benchmark::State& state) {
  // Cost of optimization (plan-time, not run-time).
  auto db = MakeDb(64);
  Translator tr(db->schema(), db.get());
  std::vector<ExprPtr> queries;
  for (const char* q : kWorkload) {
    Result<TypedExpr> typed = tr.TranslateString(q);
    N2J_CHECK(typed.ok());
    queries.push_back(typed->expr);
  }
  for (auto _ : state) {
    for (const ExprPtr& q : queries) {
      benchmark::DoNotOptimize(MustRewrite(*db, q).expr);
    }
  }
}
BENCHMARK(BM_RewriterItself);

}  // namespace
}  // namespace n2j

int main(int argc, char** argv) {
  n2j::bench::Trajectory traj("strategy_ablation", &argc, argv);
  // Strip --strategy=cost|heuristic before google-benchmark parses argv.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--strategy=", 11) == 0) {
      const char* v = argv[i] + 11;
      if (std::strcmp(v, "cost") == 0) {
        n2j::BenchStrategy() = n2j::PlanStrategy::kCost;
      } else if (std::strcmp(v, "heuristic") == 0) {
        n2j::BenchStrategy() = n2j::PlanStrategy::kHeuristic;
      } else {
        std::fprintf(stderr, "unknown --strategy=%s (cost|heuristic)\n", v);
        return 1;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  std::printf("timed-loop strategy: %s\n",
              n2j::PlanStrategyName(n2j::BenchStrategy()));
  n2j::RunAblation();
  n2j::RunStrategyComparison(&traj);
  traj.WriteIfRequested();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
