// Experiment: evaluation-backend ablation — the same nested queries
// three ways:
//
//   nested-loop  naive translation, tuple-at-a-time interpretation
//                (the paper's starting point)
//   optimized    the paper's full rewrite strategy, set-oriented
//                physical operators (the paper's destination)
//   shredded     naive translation lowered to a DAG of flat queries
//                over columnar relations, stitched back together,
//                executed row-at-a-time, serially and over 2 and
//                --threads workers
//
// Every cell asserts bit-identical results against the nested-loop
// reference before timing (N2J_CHECK aborts fail CI); wall times land
// in the trajectory JSON (--json=...) but are never asserted.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "oosql/translate.h"
#include "shred/shred.h"

namespace n2j {
namespace {

using bench::MustEval;
using bench::MustRewrite;
using bench::Section;
using bench::TimeMs;

struct BackendQuery {
  const char* tag;
  const char* oosql;
};

// Paper shapes that exercise the structural shredding paths: extent
// scans, CSR child ranges, correlated subqueries, self-joins with
// equi-predicates. No oid dereferences (match_fraction < 1 would turn
// timing runs into error-path runs).
const BackendQuery kWorkload[] = {
    {"fig1-nested-select",
     "select (sname = s.sname, ps = select z.pid from z in s.parts) "
     "from s in SUPPLIER"},
    {"q4-dangling",
     "select s.eid from s in SUPPLIER where "
     "exists z in s.parts : not exists p in PART : z.pid = p.pid"},
    {"q6-nestjoin-shape",
     "select (sname = s.sname, "
     "        partssuppl = select p from p in PART where p[pid] in s.parts) "
     "from s in SUPPLIER"},
    {"flatten-parts",
     "select z from s in SUPPLIER, z in s.parts"},
    {"selfjoin-price",
     "select (a = x.pname, b = y.pname) from x in PART, y in PART "
     "where x.price = y.price"},
};

std::unique_ptr<Database> MakeDb(int n) {
  SupplierPartConfig sp;
  sp.seed = 43;
  sp.num_parts = n;
  sp.num_suppliers = n / 4;
  sp.parts_per_supplier = 6;
  sp.match_fraction = 0.9;
  sp.red_fraction = 0.2;
  return MakeSupplierPartDatabase(sp);
}

// --threads=N (default 4): worker count for the shredded-mtN columns.
// Parsed (and stripped) in main() before benchmark::Initialize.
int g_threads = 4;

/// Evaluates through the shredded backend, aborting on error (the
/// fidelity contract says it may only fail where the interpreter fails,
/// and the interpreter succeeded on this workload).
Value MustEvalShredded(const Database& db, const ExprPtr& e,
                       EvalStats* stats = nullptr, int num_threads = 1,
                       TraceCollector* trace = nullptr) {
  EvalOptions opts;
  opts.backend = Backend::kShredded;
  opts.compiled = bench::BenchCompiledMode();
  opts.num_threads = num_threads;
  opts.trace = trace;
  EvalStats local;
  Result<Value> r = shred::EvalWithBackend(db, e, opts, &local);
  if (!r.ok()) {
    std::fprintf(stderr, "shredded eval failed: %s\nexpr: %s\n",
                 r.status().ToString().c_str(), AlgebraStr(e).c_str());
    std::abort();
  }
  if (stats != nullptr) *stats = local;
  return *r;
}

/// Times the shredded backend serially and at 2 and g_threads workers
/// after checking each against `reference` — bit-identical results and,
/// for the parallel runs, exactly the serial counters.
void RunShreddedCells(bench::Trajectory* traj, const Database& db,
                      const BackendQuery& q, const ExprPtr& naive, int n,
                      const Value& reference, const std::string& mtN) {
  EvalStats serial_stats, mt2_stats, mtn_stats;
  N2J_CHECK(reference == MustEvalShredded(db, naive, &serial_stats));
  N2J_CHECK(reference == MustEvalShredded(db, naive, &mt2_stats, 2));
  N2J_CHECK(reference == MustEvalShredded(db, naive, &mtn_stats, g_threads));
  N2J_CHECK(serial_stats.Compact() == mt2_stats.Compact());
  N2J_CHECK(serial_stats.Compact() == mtn_stats.Compact());
  double serial_ms = TimeMs([&] { MustEvalShredded(db, naive); });
  double mt2_ms = TimeMs([&] { MustEvalShredded(db, naive, nullptr, 2); });
  double mtn_ms =
      TimeMs([&] { MustEvalShredded(db, naive, nullptr, g_threads); });
  std::printf(" %12.3f %12.3f %12.3f\n", serial_ms, mt2_ms, mtn_ms);
  traj->Add(q.tag, "shredded", n, serial_ms, serial_stats);
  traj->Add(q.tag, "shredded-mt2", n, mt2_ms, mt2_stats);
  traj->Add(q.tag, mtN, n, mtn_ms, mtn_stats);
}

void RunBackendComparison(bench::Trajectory* traj) {
  Section("Evaluation backend — nested-loop vs optimized vs shredded "
          "(serial and morsel-parallel; results asserted bit-identical)");
  const std::string mtN = "shredded-mt" + std::to_string(g_threads);
  const std::string mtN_hdr = "shred-mt" + std::to_string(g_threads);
  std::printf("%-20s %6s %12s %12s %12s %12s %12s\n", "query", "n",
              "nl (ms)", "opt (ms)", "shred (ms)", "shred-mt2",
              mtN_hdr.c_str());
  EvalOptions nl_opts;
  nl_opts.use_hash_joins = false;
  nl_opts.enable_pnhl = false;
  for (int n : {256, 1024}) {
    auto db = MakeDb(n);
    Translator tr(db->schema(), db.get());
    for (const BackendQuery& q : kWorkload) {
      Result<TypedExpr> typed = tr.TranslateString(q.oosql);
      N2J_CHECK(typed.ok());
      const ExprPtr& naive = typed->expr;
      ExprPtr optimized = MustRewrite(*db, naive).expr;

      EvalStats nl_stats, opt_stats;
      Value reference = MustEval(*db, naive, nl_opts, &nl_stats);
      N2J_CHECK(reference == MustEval(*db, optimized, EvalOptions(),
                                      &opt_stats));
      double nl_ms = TimeMs([&] { MustEval(*db, naive, nl_opts); });
      double opt_ms = TimeMs([&] { MustEval(*db, optimized); });
      std::printf("%-20s %6d %12.3f %12.3f", q.tag, n, nl_ms, opt_ms);
      traj->Add(q.tag, "nested-loop", n, nl_ms, nl_stats);
      traj->Add(q.tag, "optimized", n, opt_ms, opt_stats);
      RunShreddedCells(traj, *db, q, naive, n, reference, mtN);

      if (n == 1024) {
        // One traced run per backend, outside the timed loops, feeds the
        // trajectory's operator_profile.
        bench::ProfileOnce(traj, *db, optimized, q.tag, "optimized", n);
        TraceCollector tc;
        MustEvalShredded(*db, naive, nullptr, 1, &tc);
        traj->AddOperatorProfile(q.tag, "shredded", n, tc);
      }
    }
  }

  // Shredded-only sweep at n=4096: the quadratic nested-loop reference
  // is too slow here, so the serial shredded engine (asserted against it
  // at the sizes above) is the equivalence reference.
  Section("Morsel-parallel scaling at n=4096 (shredded backend only)");
  std::printf("%-20s %6s %12s %12s %12s\n", "query", "n", "shred (ms)",
              "shred-mt2", mtN_hdr.c_str());
  {
    const int n = 4096;
    auto db = MakeDb(n);
    Translator tr(db->schema(), db.get());
    for (const BackendQuery& q : kWorkload) {
      Result<TypedExpr> typed = tr.TranslateString(q.oosql);
      N2J_CHECK(typed.ok());
      const ExprPtr& naive = typed->expr;
      Value reference = MustEvalShredded(*db, naive);
      std::printf("%-20s %6d", q.tag, n);
      RunShreddedCells(traj, *db, q, naive, n, reference, mtN);
    }
  }
  std::printf(
      "\n'nested-loop' interprets the naive translation tuple-at-a-time;\n"
      "'optimized' runs the paper's full rewrite strategy; 'shredded'\n"
      "lowers the *naive* translation to flat columnar queries and\n"
      "stitches the nested result; the mtN columns run it over N worker\n"
      "threads (--threads, default 4) with bit-identical output and\n"
      "exactly equal counters, asserted before timing.\n");
}

enum class Fig1Mode { kOptimized, kShredded };

void BM_BackendFig1(benchmark::State& state, Fig1Mode mode) {
  auto db = MakeDb(static_cast<int>(state.range(0)));
  Translator tr(db->schema(), db.get());
  Result<TypedExpr> typed = tr.TranslateString(kWorkload[0].oosql);
  N2J_CHECK(typed.ok());
  ExprPtr naive = typed->expr;
  ExprPtr optimized = MustRewrite(*db, naive).expr;
  for (auto _ : state) {
    switch (mode) {
      case Fig1Mode::kOptimized:
        benchmark::DoNotOptimize(MustEval(*db, optimized));
        break;
      case Fig1Mode::kShredded:
        benchmark::DoNotOptimize(MustEvalShredded(*db, naive));
        break;
    }
  }
}
void BM_Fig1Optimized(benchmark::State& state) {
  BM_BackendFig1(state, Fig1Mode::kOptimized);
}
void BM_Fig1Shredded(benchmark::State& state) {
  BM_BackendFig1(state, Fig1Mode::kShredded);
}
BENCHMARK(BM_Fig1Optimized)->Arg(128)->Arg(512);
BENCHMARK(BM_Fig1Shredded)->Arg(128)->Arg(512);

}  // namespace
}  // namespace n2j

int main(int argc, char** argv) {
  // Strip --threads=N before google-benchmark sees (and rejects) it.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      int n = std::atoi(argv[i] + 10);
      if (n >= 1) n2j::g_threads = n;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  n2j::bench::Trajectory traj("backend_ablation", &argc, argv);
  n2j::RunBackendComparison(&traj);
  traj.WriteIfRequested();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
