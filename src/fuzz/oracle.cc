#include "fuzz/oracle.h"

#include <functional>

#include "adl/analysis.h"
#include "adl/printer.h"
#include "adl/typecheck.h"
#include "core/engine.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "oosql/translate.h"
#include "opt/optimizer.h"
#include "shred/shred.h"

namespace n2j {
namespace fuzz {

uint64_t JoinWork(const EvalStats& s) {
  return s.tuples_scanned + s.predicate_evals + s.hash_probes;
}

uint64_t PlanWork(const EvalStats& s) {
  return JoinWork(s) + s.hash_inserts + s.index_probes + s.set_sorted_rows;
}

namespace {

/// The cost-based cell's work bound: the cost plan may do at most
/// kWorkRatio × the heuristic plan's PlanWork plus kWorkFloor units.
/// docs/FUZZING.md justifies both numbers.
constexpr uint64_t kWorkRatio = 4;
constexpr uint64_t kWorkFloor = 64;

/// A flat from-clause may do at most kLinearRatio × FlatJoinWorkBound
/// plus kWorkFloor units of work. docs/FUZZING.md justifies the ratio.
constexpr uint64_t kLinearRatio = 4;

/// Scalar: no subquery, quantifier or aggregate anywhere below.
bool IsScalar(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return !e->const_value().is_set();
    case ExprKind::kVar:
    case ExprKind::kFieldAccess:
    case ExprKind::kTupleProject:
    case ExprKind::kTupleConstruct:
    case ExprKind::kTupleConcat:
    case ExprKind::kUnary:
    case ExprKind::kBinary:
      for (const ExprPtr& c : e->children()) {
        if (!IsScalar(c)) return false;
      }
      return true;
    default:
      return false;
  }
}

/// `e` is v.a for one of `vars`: sets *var and *attr.
bool VarAttr(const ExprPtr& e, const std::vector<std::string>& vars,
             size_t* var, std::string* attr) {
  if (e->kind() != ExprKind::kFieldAccess ||
      e->child(0)->kind() != ExprKind::kVar) {
    return false;
  }
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == e->child(0)->name()) {
      *var = i;
      *attr = e->name();
      return true;
    }
  }
  return false;
}

OracleConfig Cell(const char* name,
                  RewriteOptions rewrite = RewriteOptions(),
                  EvalOptions eval = EvalOptions()) {
  OracleConfig c;
  c.name = name;
  c.rewrite = rewrite;
  c.eval = eval;
  return c;
}

}  // namespace

uint64_t FlatJoinWorkBound(const Database& db, const ExprPtr& naive) {
  std::vector<std::string> vars;
  std::vector<std::vector<Value>> rows;
  ExprPtr cur = naive;
  auto add_range = [&](const std::string& v, const ExprPtr& range) {
    const Table* t = range->kind() == ExprKind::kGetTable
                         ? db.FindTable(range->name())
                         : nullptr;
    if (t == nullptr) return false;
    vars.push_back(v);
    Value set = t->AsSetValue();
    rows.emplace_back(set.elements().begin(), set.elements().end());
    return true;
  };
  while (cur->kind() == ExprKind::kFlatten &&
         cur->input()->kind() == ExprKind::kMap) {
    if (!add_range(cur->input()->var(), cur->input()->input())) return 0;
    cur = cur->input()->body();
  }
  if (vars.empty() || cur->kind() != ExprKind::kMap || !IsScalar(cur->body())) {
    return 0;
  }
  ExprPtr in = cur->input();
  std::vector<ExprPtr> conjuncts;
  if (in->kind() == ExprKind::kSelect && in->var() == cur->var()) {
    conjuncts = SplitConjuncts(in->body());
    in = in->input();
  }
  if (!add_range(cur->var(), in)) return 0;

  struct Equality {
    size_t l, r;
    std::string la, ra;
  };
  std::vector<Equality> eqs;
  for (const ExprPtr& c : conjuncts) {
    if (!IsScalar(c)) return 0;
    size_t used = 0;
    for (const std::string& v : vars) used += IsFreeIn(v, c) ? 1 : 0;
    if (used < 2) continue;
    Equality eq;
    if (c->kind() != ExprKind::kBinary || c->bin_op() != BinOp::kEq ||
        !VarAttr(c->child(0), vars, &eq.l, &eq.la) ||
        !VarAttr(c->child(1), vars, &eq.r, &eq.ra) || eq.l == eq.r) {
      return 0;
    }
    eqs.push_back(eq);
  }

  auto matches = [](const Equality& eq, const Value& lrow,
                    const Value& rrow) {
    const Value* a = lrow.FindField(eq.la);
    const Value* b = rrow.FindField(eq.ra);
    return a != nullptr && b != nullptr && *a == *b;
  };
  uint64_t bound = 0;
  for (const std::vector<Value>& r : rows) bound += r.size();
  for (const Equality& eq : eqs) {
    for (const Value& a : rows[eq.l]) {
      for (const Value& b : rows[eq.r]) bound += matches(eq, a, b) ? 1 : 0;
    }
  }
  // Full combinations, enumerated level by level; an equality prunes as
  // soon as both its variables are bound.
  std::vector<const Value*> bound_rows(vars.size());
  std::function<void(size_t)> enumerate = [&](size_t level) {
    if (level == vars.size()) {
      ++bound;
      return;
    }
    for (const Value& row : rows[level]) {
      bound_rows[level] = &row;
      bool ok = true;
      for (const Equality& eq : eqs) {
        size_t hi = std::max(eq.l, eq.r);
        if (hi == level &&
            !matches(eq, *bound_rows[eq.l], *bound_rows[eq.r])) {
          ok = false;
          break;
        }
      }
      if (ok) enumerate(level + 1);
    }
  };
  enumerate(0);
  return bound;
}

std::vector<OracleConfig> DefaultConfigMatrix() {
  std::vector<OracleConfig> m;

  {
    // Sanity cell: naive plan, nested-loop execution — must match the
    // oracle by construction; catches nondeterminism in eval itself.
    OracleConfig c = Cell("nl-norewrite");
    c.skip_rewrite = true;
    c.eval.use_hash_joins = false;
    c.eval.enable_pnhl = false;
    m.push_back(c);
  }

  // The paper's full strategy under every physical join algorithm.
  {
    OracleConfig c = Cell("full-nestjoin-hash");
    c.eval.join_algorithm = JoinAlgorithm::kHash;
    c.linear_join_work = true;
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("full-nestjoin-index");
    c.eval.join_algorithm = JoinAlgorithm::kIndex;
    m.push_back(c);
  }
  {
    // Logical rewrites alone: optimized plan, tuple-at-a-time execution.
    OracleConfig c = Cell("full-nestjoin-nl");
    c.eval.use_hash_joins = false;
    c.eval.enable_pnhl = false;
    m.push_back(c);
  }

  // Grouping-mode sweep (the Complex Object bug axis).
  {
    OracleConfig c = Cell("grouping-when-safe");
    c.rewrite.grouping = GroupingMode::kGroupingWhenSafe;
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("grouping-none");
    c.rewrite.grouping = GroupingMode::kNone;
    m.push_back(c);
  }

  // Pass-ablation cells: each disabled pass must be *optional*, never
  // load-bearing for correctness.
  {
    OracleConfig c = Cell("no-setcmp");
    c.rewrite.enable_setcmp = false;
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("no-quantifier-no-mapjoin");
    c.rewrite.enable_quantifier = false;
    c.rewrite.enable_map_join = false;
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("no-unnest-no-hoist");
    c.rewrite.enable_unnest_attr = false;
    c.rewrite.enable_hoist = false;
    m.push_back(c);
  }

  // PNHL under memory pressure (multi-segment partitioning).
  {
    OracleConfig c = Cell("pnhl-tight-budget");
    c.eval.pnhl_memory_budget = 256;
    m.push_back(c);
  }

  // Morsel-driven parallel execution: the serial oracle must agree with
  // every parallel cell bit-for-bit — morsel merges are input-ordered, so
  // any divergence is a real scheduling-dependent bug. 2 threads is the
  // smallest parallel shape; 8 oversubscribes the scheduler to shake out
  // ordering assumptions.
  {
    OracleConfig c = Cell("full-nestjoin-hash-mt2");
    c.eval.join_algorithm = JoinAlgorithm::kHash;
    c.eval.num_threads = 2;
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("full-nestjoin-hash-mt8");
    c.eval.join_algorithm = JoinAlgorithm::kHash;
    c.eval.num_threads = 8;
    m.push_back(c);
  }
  {
    // Multi-segment PNHL with parallel segment processing.
    OracleConfig c = Cell("pnhl-tight-budget-mt2");
    c.eval.pnhl_memory_budget = 256;
    c.eval.num_threads = 2;
    m.push_back(c);
  }

  // The legacy cells above pin the tree interpreter so the compiled
  // axis stays independently diffable; the cells below turn the
  // bytecode engine on (EvalOptions default) and must agree with the
  // interpreter-only oracle bit-for-bit, including error parity.
  for (OracleConfig& c : m) c.eval.compiled = false;
  {
    OracleConfig c = Cell("compiled");
    c.linear_join_work = true;
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("compiled-mt4");
    c.eval.num_threads = 4;
    m.push_back(c);
  }
  {
    // Compiled lambdas above a multi-segment PNHL fast path.
    OracleConfig c = Cell("compiled-pnhl-tight-budget");
    c.eval.pnhl_memory_budget = 256;
    m.push_back(c);
  }
  {
    // Per-operator tracing as a pure observer under morsel parallelism:
    // results must still match the oracle, and the span tree's exclusive
    // stats deltas must sum exactly to the global counters.
    OracleConfig c = Cell("traced-mt4");
    c.eval.num_threads = 4;
    c.trace = true;
    m.push_back(c);
  }
  {
    // Cost-based planning: statistics-driven per-node algorithm choice
    // and join-order DP must be pure plan transformations — bit-exact
    // against the nested-loop oracle whatever the cost model picks —
    // and never pathologically slower than the heuristic dispatch: the
    // cell also runs the rewritten plan unannotated and bounds the cost
    // plan's deterministic work by the heuristic's.
    OracleConfig c = Cell("cost-based");
    c.cost_based = true;
    c.linear_join_work = true;
    m.push_back(c);
  }

  // The shredded backend (shred/): flat-DAG translation, columnar
  // scans, hash-join expansion and id-keyed stitching must reproduce
  // the nested-loop oracle bit-for-bit on every generated query.
  {
    // Naive translation, serial — shredded-vs-nested-loop head-on.
    OracleConfig c = Cell("shredded");
    c.skip_rewrite = true;
    c.eval.backend = Backend::kShredded;
    m.push_back(c);
  }
  {
    // Parallel row-wise delegates under the shredded executor.
    OracleConfig c = Cell("shredded-mt4");
    c.skip_rewrite = true;
    c.eval.backend = Backend::kShredded;
    c.eval.num_threads = 4;
    m.push_back(c);
  }
  {
    // Tracing as a pure observer over the flat DAG, plus the span-sum
    // invariant across shred-node spans and delegate operator spans.
    OracleConfig c = Cell("shredded-traced");
    c.skip_rewrite = true;
    c.eval.backend = Backend::kShredded;
    c.trace = true;
    m.push_back(c);
  }
  {
    // Shredding the *rewritten* plan: joins/nestjoins and hoisted lets
    // land in scalar roots and opaque ranges — exercises the fallback
    // seams rather than the structural fast paths.
    OracleConfig c = Cell("shredded-rewritten");
    c.eval.backend = Backend::kShredded;
    m.push_back(c);
  }

  {
    // Tracing over the parallel scalar engine: worker counters must
    // merge into the delegate's stats before each shred-node span
    // closes, or the span-sum invariant the oracle checks breaks.
    OracleConfig c = Cell("shredded-traced-mt4");
    c.skip_rewrite = true;
    c.eval.backend = Backend::kShredded;
    c.eval.num_threads = 4;
    c.trace = true;
    m.push_back(c);
  }
  {
    // Through the engine façade with the flight recorder on the path:
    // every run must append exactly one record whose stats snapshot
    // equals the merged global counters, under morsel parallelism and
    // tracing — the recorder is a pure observer or it is a bug.
    OracleConfig c = Cell("querylog-traced-mt4");
    c.eval.num_threads = 4;
    c.trace = true;
    c.querylog = true;
    m.push_back(c);
  }

  return m;
}

std::vector<OracleConfig> MinimalConfigMatrix() {
  std::vector<OracleConfig> m;
  {
    OracleConfig c = Cell("full-nestjoin-hash");
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("full-nestjoin-nl");
    c.eval.use_hash_joins = false;
    c.eval.enable_pnhl = false;
    m.push_back(c);
  }
  {
    OracleConfig c = Cell("grouping-when-safe");
    c.rewrite.grouping = GroupingMode::kGroupingWhenSafe;
    m.push_back(c);
  }
  return m;
}

std::vector<OracleConfig> UnsafeGroupingMatrix() {
  OracleConfig c = Cell("force-grouping-unsafe");
  c.rewrite.grouping = GroupingMode::kForceGroupingUnsafe;
  return {c};
}

const char* OracleStatusName(OracleStatus s) {
  switch (s) {
    case OracleStatus::kOk: return "ok";
    case OracleStatus::kSkipped: return "skipped";
    case OracleStatus::kMismatch: return "mismatch";
    case OracleStatus::kFrontEndError: return "front-end-error";
  }
  return "?";
}

OracleReport RunDifferentialOracle(const Database& db,
                                   const std::string& query,
                                   const std::vector<OracleConfig>& matrix) {
  OracleReport report;
  report.query = query;

  Translator tr(db.schema(), &db);
  Result<TypedExpr> typed = tr.TranslateString(query);
  if (!typed.ok()) {
    report.status = OracleStatus::kFrontEndError;
    report.detail = typed.status().ToString();
    return report;
  }
  const ExprPtr& naive = typed->expr;

  // The oracle: pure nested-loop tree-interpreter evaluation of the
  // naive translation — no physical joins, no PNHL, no bytecode.
  EvalOptions reference_opts;
  reference_opts.use_hash_joins = false;
  reference_opts.enable_pnhl = false;
  reference_opts.compiled = false;
  Evaluator reference(db, reference_opts);
  Result<Value> expected = reference.Eval(naive);

  TypeChecker checker(db.schema(), &db);
  Result<TypePtr> naive_type = checker.Infer(naive);
  if (!naive_type.ok()) {
    report.status = OracleStatus::kFrontEndError;
    report.detail = "naive plan fails type inference: " +
                    naive_type.status().ToString();
    return report;
  }

  uint64_t flat_bound = 0;
  for (const OracleConfig& config : matrix) {
    if (config.linear_join_work) {
      flat_bound = FlatJoinWorkBound(db, naive);
      break;
    }
  }

  for (const OracleConfig& config : matrix) {
    ExprPtr plan = naive;
    std::string trace;
    if (!config.skip_rewrite) {
      Rewriter rw(db.schema(), &db, config.rewrite);
      Result<RewriteResult> rewritten = rw.Rewrite(naive);
      if (!rewritten.ok()) {
        // The rewriter must be total on well-typed input.
        report.status = OracleStatus::kMismatch;
        report.failing_config = config.name;
        report.detail = "rewrite failed: " + rewritten.status().ToString();
        return report;
      }
      plan = rewritten->expr;
      trace = rewritten->TraceToString();

      Result<TypePtr> plan_type = checker.Infer(plan);
      if (!plan_type.ok()) {
        report.status = OracleStatus::kMismatch;
        report.failing_config = config.name;
        report.detail = "rewritten plan fails type inference: " +
                        plan_type.status().ToString() +
                        "\nplan: " + AlgebraStr(plan) + "\n" + trace;
        return report;
      }
      if (!naive_type->get()->Equals(**plan_type)) {
        report.status = OracleStatus::kMismatch;
        report.failing_config = config.name;
        report.detail = "rewrite changed the inferred type: " +
                        naive_type->get()->ToString() + " vs " +
                        plan_type->get()->ToString() +
                        "\nplan: " + AlgebraStr(plan) + "\n" + trace;
        return report;
      }
    }

    EvalOptions eval_opts = config.eval;
    TraceCollector collector;
    if (config.trace) eval_opts.trace = &collector;
    PhysicalPlan physical;
    const ExprPtr logical = plan;
    if (config.cost_based) {
      PlannerOptions popts;
      popts.strategy = PlanStrategy::kCost;
      Planner planner(db, popts);
      Result<PhysicalPlan> planned = planner.Plan(plan);
      if (!planned.ok()) {
        report.status = OracleStatus::kMismatch;
        report.failing_config = config.name;
        report.detail = "planner failed: " + planned.status().ToString() +
                        "\nplan: " + AlgebraStr(plan) + "\n" + trace;
        return report;
      }
      physical = std::move(planned).value();
      plan = physical.root;
      eval_opts.plan = &physical.annotations;
    }
    EvalStats cell_stats;
    Result<Value> actual = Status::Internal("cell did not run");
    if (config.querylog) {
      // The engine façade runs translate → rewrite → execute itself (the
      // rewrite/type pre-checks above already vetted config.rewrite), so
      // the flight recorder sees this cell exactly like a user query.
      obs::QueryLog& qlog = obs::QueryLog::Global();
      uint64_t before = qlog.total_appended();
      QueryEngine engine(&db, config.rewrite, eval_opts);
      Result<QueryReport> run = engine.Run(query);
      if (run.ok()) {
        cell_stats = run->exec_stats;
        actual = run->result;
      } else {
        actual = run.status();
      }
      if (qlog.enabled()) {
        uint64_t appended = qlog.total_appended() - before;
        if (appended != 1) {
          report.status = OracleStatus::kMismatch;
          report.failing_config = config.name;
          report.detail = "flight recorder appended " +
                          std::to_string(appended) +
                          " records for one query (want exactly 1)";
          return report;
        }
        const obs::QueryLogRecord* rec = nullptr;
        std::vector<obs::QueryLogRecord> snap = qlog.Snapshot();
        for (const obs::QueryLogRecord& r : snap) {
          if (r.id == before) rec = &r;
        }
        if (rec == nullptr) {
          report.status = OracleStatus::kMismatch;
          report.failing_config = config.name;
          report.detail = "flight recorder lost the just-appended record";
          return report;
        }
        if (run.ok() &&
            rec->stats.Compact() != run->exec_stats.Compact()) {
          report.status = OracleStatus::kMismatch;
          report.failing_config = config.name;
          report.detail =
              "flight-recorder stats snapshot diverges from the "
              "execution's global counters\nrecord: " +
              rec->stats.Compact() + "\nglobal: " +
              run->exec_stats.Compact();
          return report;
        }
        if (!run.ok() && rec->error.empty()) {
          report.status = OracleStatus::kMismatch;
          report.failing_config = config.name;
          report.detail =
              "query errored but the flight-recorder record has no error";
          return report;
        }
      }
    } else {
      actual = shred::EvalWithBackend(db, plan, eval_opts, &cell_stats);
    }
    ++report.configs_checked;

    // On an errored engine run the report (and its exec_stats) is
    // discarded, so there is no global-counter side to compare the span
    // sum against — the invariant itself is still covered by the
    // direct-eval traced cells.
    bool span_sum_checkable = !(config.querylog && !actual.ok());
    if (config.trace && span_sum_checkable) {
      // Span-sum invariant: the exclusive deltas over the whole span
      // tree reconstruct the global counters exactly — even when the
      // evaluation errored out (RAII closes every span on unwind).
      std::string span_sum = collector.SumExclusiveStats().Compact();
      std::string global = cell_stats.Compact();
      if (span_sum != global) {
        report.status = OracleStatus::kMismatch;
        report.failing_config = config.name;
        report.detail = "trace span stats do not sum to global stats\n"
                        "span sum: " + span_sum + "\nglobal:   " + global +
                        "\nplan: " + AlgebraStr(plan) + "\n" + trace;
        return report;
      }
    }

    if (!expected.ok()) {
      // Reference hit a runtime error (e.g. arithmetic on a null
      // min-over-empty-set). Rewrites may legitimately dodge or hit the
      // same error, so results are not comparable; we only insist that
      // each cell terminates with a Status (crash-freedom is implicit in
      // getting here).
      continue;
    }
    if (!actual.ok()) {
      report.status = OracleStatus::kMismatch;
      report.failing_config = config.name;
      report.detail = "config errored where the oracle succeeded: " +
                      actual.status().ToString() +
                      "\nplan: " + AlgebraStr(plan) + "\n" + trace;
      return report;
    }
    if (*actual != *expected) {
      report.status = OracleStatus::kMismatch;
      report.failing_config = config.name;
      report.detail = "value mismatch\nexpected: " + expected->ToString() +
                      "\nactual:   " + actual->ToString() +
                      "\nplan: " + AlgebraStr(plan) + "\n" + trace;
      return report;
    }
    if (config.linear_join_work && flat_bound > 0 &&
        JoinWork(cell_stats) > kLinearRatio * flat_bound + kWorkFloor) {
      report.status = OracleStatus::kMismatch;
      report.failing_config = config.name;
      report.detail =
          "flat from-clause did " + std::to_string(JoinWork(cell_stats)) +
          " units of work (scanned + predicates + probes) against a "
          "linear bound of " + std::to_string(flat_bound) +
          " (inputs + equality pairs + output)\nstats: " +
          cell_stats.Compact() + "\nplan: " + AlgebraStr(plan) + "\n" +
          trace;
      return report;
    }
    if (config.cost_based) {
      EvalStats heuristic_stats;
      Result<Value> heuristic =
          shred::EvalWithBackend(db, logical, config.eval, &heuristic_stats);
      uint64_t cost_work = PlanWork(cell_stats);
      uint64_t heuristic_work = PlanWork(heuristic_stats);
      if (heuristic.ok() &&
          cost_work > kWorkRatio * heuristic_work + kWorkFloor) {
        report.status = OracleStatus::kMismatch;
        report.failing_config = config.name;
        report.detail =
            "cost plan did " + std::to_string(cost_work) +
            " units of work (scanned + predicates + probes + inserts + "
            "index probes + sorted rows) against the heuristic's " +
            std::to_string(heuristic_work) +
            "\ncost:      " + cell_stats.Compact() +
            "\nheuristic: " + heuristic_stats.Compact() + "\n" +
            physical.Describe() + "plan: " + AlgebraStr(plan) + "\n" + trace;
        return report;
      }
    }
  }

  if (!expected.ok()) {
    report.status = OracleStatus::kSkipped;
    report.detail = "reference runtime error: " +
                    expected.status().ToString();
  }
  return report;
}

}  // namespace fuzz
}  // namespace n2j
