#include "core/engine.h"

#include <algorithm>

#include "adl/analysis.h"
#include "adl/printer.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "oosql/translate.h"
#include "shred/shred.h"

namespace n2j {

namespace {

double MsSince(int64_t t0_ns) {
  return static_cast<double>(MonotonicNanos() - t0_ns) / 1e6;
}

/// The registry instruments every query feeds, looked up by name once
/// per process: the registry never drops an instrument (Reset() zeroes
/// it in place), so the references stay valid. Creating them together
/// also makes every one of them exist after the first query, so
/// Render() output is stable across workloads.
struct QueryInstruments {
  explicit QueryInstruments(obs::MetricsRegistry& reg)
      : queries(reg.GetCounter("n2j_queries_total")),
        query_errors(reg.GetCounter("n2j_query_errors_total")),
        query_ms(reg.GetHistogram("n2j_query_ms")),
        rewrite_ms(reg.GetHistogram("n2j_rewrite_ms")),
        eval_ms(reg.GetHistogram("n2j_eval_ms")),
        joins_nested_loop(reg.GetCounter("n2j_joins_nested_loop_total")),
        joins_hash(reg.GetCounter("n2j_joins_hash_total")),
        joins_index(reg.GetCounter("n2j_joins_index_total")),
        joins_membership(reg.GetCounter("n2j_joins_membership_total")),
        compiled_evals(reg.GetCounter("n2j_compiled_evals_total")),
        interp_fallback_evals(
            reg.GetCounter("n2j_interp_fallback_evals_total")) {}

  static const QueryInstruments& Get() {
    static const QueryInstruments instruments(
        obs::MetricsRegistry::Global());
    return instruments;
  }

  obs::Counter& queries;
  obs::Counter& query_errors;
  obs::Histogram& query_ms;
  obs::Histogram& rewrite_ms;
  obs::Histogram& eval_ms;
  obs::Counter& joins_nested_loop;
  obs::Counter& joins_hash;
  obs::Counter& joins_index;
  obs::Counter& joins_membership;
  obs::Counter& compiled_evals;
  obs::Counter& interp_fallback_evals;
};

// Estimated spans dominate the record size; a pathological plan with
// hundreds of annotated nodes should not bloat one ring slot.
constexpr size_t kMaxRecordedRoots = 16;

/// Records one finished query (success or error) into the process-wide
/// registry and the flight recorder.
void RecordQueryOutcome(const Result<QueryReport>& r, int64_t t_start_ns,
                        const std::string& query_text,
                        const EvalOptions& eval_options,
                        const PlannerOptions& planner_options) {
  const QueryInstruments& m = QueryInstruments::Get();
  m.queries.Add();
  m.query_ms.Observe(MsSince(t_start_ns));
  if (r.ok()) {
    const EvalStats& s = r->exec_stats;
    m.joins_nested_loop.Add(s.joins_nested_loop);
    m.joins_hash.Add(s.joins_hash);
    m.joins_index.Add(s.joins_index);
    m.joins_membership.Add(s.joins_membership);
    m.compiled_evals.Add(s.compiled_evals);
    m.interp_fallback_evals.Add(s.interp_fallback_evals);
  } else {
    m.query_errors.Add();
  }

  obs::QueryLog& qlog = obs::QueryLog::Global();
  if (!qlog.enabled()) return;
  obs::QueryLogRecord rec;
  rec.query = query_text;
  rec.strategy = PlanStrategyName(planner_options.strategy);
  rec.backend =
      eval_options.backend == Backend::kShredded ? "shredded" : "nested";
  rec.threads = eval_options.num_threads;
  rec.compiled = eval_options.compiled;
  rec.wall_ms = MsSince(t_start_ns);
  if (!r.ok()) {
    rec.error = r.status().ToString();
    // No translation to normalize over — hash the raw text.
    rec.query_hash = Fnv1a(query_text.data(), query_text.size());
    qlog.Append(std::move(rec));
    return;
  }

  const QueryReport& rep = *r;
  rec.translate_ms = rep.translate_ms;
  rec.rewrite_ms = rep.rewrite_ms;
  rec.plan_ms = rep.plan_ms;
  rec.eval_ms = rep.eval_ms;
  rec.stats = rep.exec_stats;
  if (rep.result.is_set()) rec.rows_out = rep.result.set_size();
  // Hash the translated algebra, not the text: two queries that differ
  // only in OOSQL formatting hash identically.
  rec.query_hash = rep.translated != nullptr
                       ? rep.translated->StructuralHash()
                       : Fnv1a(query_text.data(), query_text.size());

  if (rep.profile != nullptr) {
    for (NodeEstimate& n : rep.profile->EstimatesByPlanNode()) {
      obs::RootEstimate e;
      e.op = std::move(n.op);
      e.est = n.est;
      e.actual = n.actual;
      e.q = obs::QError(n.est, static_cast<double>(n.actual));
      rec.max_q = std::max(rec.max_q, e.q);
      rec.roots.push_back(std::move(e));
      if (rec.roots.size() >= kMaxRecordedRoots) break;
    }
  }
  qlog.Append(std::move(rec));
}

}  // namespace

std::string QueryReport::Explain() const {
  std::string out;
  if (!oosql.empty()) {
    out += "OOSQL:      " + oosql + "\n";
  }
  if (translated != nullptr) {
    out += "translated: " + AlgebraStr(translated) + "\n";
  }
  if (type != nullptr) {
    out += "type:       " + type->ToString() + "\n";
  }
  if (optimized != nullptr) {
    out += "optimized:  " + AlgebraStr(optimized) + "\n";
    PrintOptions pretty;
    pretty.pretty = true;
    out += "plan:\n" + ToAlgebraString(optimized, pretty) + "\n";
  }
  if (plan != nullptr) {
    out += "planner:    strategy=cost " + plan->Describe();
  }
  if (!shred_plan.empty()) {
    out += "backend:    shredded\n" + shred_plan;
  }
  if (!trace.empty()) {
    out += "rules:\n";
    for (const RuleApplication& a : trace) {
      out += "  [" + a.rule + "] " + a.detail() + "\n";
    }
  }
  std::string compact = exec_stats.Compact();
  out += "stats:      " + (compact.empty() ? "(none)" : compact) + "\n";
  if (profile != nullptr) {
    // One est-vs-actual audit line per planner-estimated plan node, its
    // loops summed the way the profile tree collapses them — the EXPLAIN
    // ANALYZE view of the same Q-errors the flight recorder logs.
    for (const NodeEstimate& n : profile->EstimatesByPlanNode()) {
      std::string loops =
          n.loops > 1 ? StrFormat(" loops=%zu", n.loops) : std::string();
      out += StrFormat("qerror:     %s%s est=%.0f actual=%llu q=%.2f\n",
                       n.op.c_str(), loops.c_str(), n.est,
                       static_cast<unsigned long long>(n.actual),
                       obs::QError(n.est, static_cast<double>(n.actual)));
    }
  }
  if (profile != nullptr && !profile->spans().empty()) {
    out += "profile:\n" + profile->Render();
  }
  return out;
}

Result<QueryReport> QueryEngine::Translate(const std::string& oosql) const {
  QueryReport report;
  report.oosql = oosql;
  Translator translator(db_->schema(), db_);
  N2J_ASSIGN_OR_RETURN(TypedExpr typed, translator.TranslateString(oosql));
  report.translated = typed.expr;
  report.type = typed.type;
  return report;
}

Result<RewriteResult> QueryEngine::Optimize(const ExprPtr& adl) const {
  Rewriter rewriter(db_->schema(), db_, rewrite_options_);
  int64_t t0 = MonotonicNanos();
  Result<RewriteResult> r = rewriter.Rewrite(adl);
  QueryInstruments::Get().rewrite_ms.Observe(MsSince(t0));
  return r;
}

Status QueryEngine::Execute(QueryReport* report) const {
  if (eval_options_.trace != nullptr) {
    eval_options_.trace->Clear();
  }
  // Under the cost strategy, plan first: the evaluator executes the
  // planner's (possibly join-reordered) tree and dispatches each
  // join-family node on its pinned algorithm annotation.
  ExprPtr to_run = report->optimized;
  EvalOptions opts = eval_options_;
  if (planner_options_.strategy == PlanStrategy::kCost) {
    int64_t t_plan = MonotonicNanos();
    Planner planner(*db_, planner_options_);
    N2J_ASSIGN_OR_RETURN(PhysicalPlan plan,
                         planner.Plan(report->optimized));
    report->plan = std::make_shared<const PhysicalPlan>(std::move(plan));
    report->plan_ms = MsSince(t_plan);
    to_run = report->plan->root;
    opts.plan = &report->plan->annotations;
  }
  int64_t t0 = MonotonicNanos();
  // Backend dispatch is strategy-orthogonal: the shredded backend runs
  // whatever expression the rewriter/planner produced, through its own
  // flat-DAG executor (shred/shred.h).
  N2J_ASSIGN_OR_RETURN(
      report->result,
      shred::EvalWithBackend(*db_, to_run, opts, &report->exec_stats,
                             &report->shred_plan));
  report->eval_ms = MsSince(t0);
  QueryInstruments::Get().eval_ms.Observe(report->eval_ms);
  report->profile = eval_options_.trace;
  return Status::OK();
}

Result<QueryReport> QueryEngine::Run(const std::string& oosql) const {
  int64_t t_start = MonotonicNanos();
  Result<QueryReport> out = [&]() -> Result<QueryReport> {
    N2J_ASSIGN_OR_RETURN(QueryReport report, Translate(oosql));
    report.translate_ms = MsSince(t_start);
    int64_t t_rewrite = MonotonicNanos();
    N2J_ASSIGN_OR_RETURN(RewriteResult rewritten,
                         Optimize(report.translated));
    report.rewrite_ms = MsSince(t_rewrite);
    report.optimized = rewritten.expr;
    report.trace = std::move(rewritten.trace);
    N2J_RETURN_IF_ERROR(Execute(&report));
    return report;
  }();
  RecordQueryOutcome(out, t_start, oosql, eval_options_,
                     planner_options_);
  return out;
}

Result<QueryReport> QueryEngine::RunAdl(const ExprPtr& adl) const {
  int64_t t_start = MonotonicNanos();
  if (DeeperThan(*adl, kMaxAdlDepth)) {
    std::string what =
        StrFormat("ADL nesting deeper than %zu levels", kMaxAdlDepth);
    Result<QueryReport> out = Status::InvalidArgument(what);
    RecordQueryOutcome(out, t_start, "<" + what + ">", eval_options_,
                       planner_options_);
    return out;
  }
  Result<QueryReport> out = [&]() -> Result<QueryReport> {
    QueryReport report;
    report.translated = adl;
    int64_t t_rewrite = MonotonicNanos();
    N2J_ASSIGN_OR_RETURN(RewriteResult rewritten, Optimize(adl));
    report.rewrite_ms = MsSince(t_rewrite);
    report.optimized = rewritten.expr;
    report.trace = std::move(rewritten.trace);
    N2J_RETURN_IF_ERROR(Execute(&report));
    return report;
  }();
  RecordQueryOutcome(out, t_start, AlgebraStr(adl), eval_options_,
                     planner_options_);
  return out;
}

}  // namespace n2j
