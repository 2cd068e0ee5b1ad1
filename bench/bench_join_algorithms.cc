// Experiment: Section 6's premise — "the relational join is not really
// necessary for the expressive power of the relational algebra; it was
// introduced to allow for various efficient implementations. The same
// can of course be done in an algebra for complex objects."
//
// One logical plan (the semijoin Rule 1 produces), three physical
// implementations: nested loop, hash, index nested-loop.
// The same comparison for the nestjoin, the paper's new operator, whose
// implementations are adapted from the same join methods.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace n2j {
namespace {

using bench::MustEval;
using bench::MustEvalModesAgree;
using bench::Section;
using bench::TimeMs;

std::unique_ptr<Database> MakeDb(int n, uint64_t seed) {
  auto db = std::make_unique<Database>();
  XYConfig config;
  config.seed = seed;
  config.x_rows = n;
  config.y_rows = n;
  config.key_domain = n;
  N2J_CHECK(AddRandomXY(db.get(), config).ok());
  N2J_CHECK(db->CreateIndex("Y", "a").ok());
  return db;
}

ExprPtr SemiJoinPlan() {
  return Expr::SemiJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                        Expr::Eq(Expr::Access(Expr::Var("y"), "a"),
                                 Expr::Access(Expr::Var("x"), "a")));
}

ExprPtr NestJoinPlan() {
  return Expr::NestJoin(Expr::Table("X"), Expr::Table("Y"), "x", "y",
                        Expr::Eq(Expr::Access(Expr::Var("y"), "a"),
                                 Expr::Access(Expr::Var("x"), "a")),
                        "ys");
}

EvalOptions Algo(JoinAlgorithm a) {
  EvalOptions opts;
  opts.join_algorithm = a;
  return opts;
}

void SweepAlgorithms(const char* title, const ExprPtr& plan,
                     const char* sweep, bench::Trajectory* traj) {
  Section(title);
  std::printf("%8s %15s %12s %12s\n", "n", "nested (ms)", "hash (ms)",
              "index (ms)");
  for (int n : {64, 256, 1024, 4096}) {
    auto db = MakeDb(n, 47);
    EvalOptions nested;
    nested.use_hash_joins = false;
    // Verify all algorithms and both engines agree first (and capture
    // each algorithm's counters).
    EvalStats s_nested;
    Value expected = MustEvalModesAgree(*db, plan, nested, &s_nested);
    const JoinAlgorithm algos[2] = {JoinAlgorithm::kHash,
                                    JoinAlgorithm::kIndex};
    const char* names[2] = {"hash", "index"};
    EvalStats s_algo[2];
    for (int i = 0; i < 2; ++i) {
      N2J_CHECK(MustEvalModesAgree(*db, plan, Algo(algos[i]), &s_algo[i]) ==
                expected);
    }
    double t_nl = n > 1024 ? -1.0
                           : TimeMs([&] { MustEval(*db, plan, nested); }, 30);
    double t[2];
    for (int i = 0; i < 2; ++i) {
      t[i] = TimeMs([&] { MustEval(*db, plan, Algo(algos[i])); }, 30);
    }
    if (t_nl >= 0) traj->Add(sweep, "nested", n, t_nl, s_nested);
    for (int i = 0; i < 2; ++i) traj->Add(sweep, names[i], n, t[i], s_algo[i]);
    if (t_nl < 0) {
      std::printf("%8d %15s %12.3f %12.3f\n", n, "(skipped)", t[0], t[1]);
    } else {
      std::printf("%8d %15.3f %12.3f %12.3f\n", n, t_nl, t[0], t[1]);
    }
  }
}

// Parallel speedup of the morsel-driven hash join: one workload, the
// same hash plan at 1/2/4/8 worker threads. Results are verified equal
// to the serial run first (morsel merges are input-ordered, so they must
// be). On a single hardware core the extra threads only add scheduling
// overhead — the sweep reports whatever the machine gives, it does not
// assume cores.
void SweepThreads(const char* title, const ExprPtr& plan,
                  const char* sweep, bench::Trajectory* traj) {
  Section(title);
  std::printf("%8s %12s %12s %12s %12s %10s\n", "n", "1t (ms)", "2t (ms)",
              "4t (ms)", "8t (ms)", "4t-speedup");
  for (int n : {1024, 4096}) {
    auto db = MakeDb(n, 47);
    Value expected = MustEvalModesAgree(*db, plan, Algo(JoinAlgorithm::kHash));
    double times[4];
    int threads[4] = {1, 2, 4, 8};
    for (int i = 0; i < 4; ++i) {
      EvalOptions opts = Algo(JoinAlgorithm::kHash);
      opts.num_threads = threads[i];
      EvalStats stats;
      N2J_CHECK(MustEvalModesAgree(*db, plan, opts, &stats) == expected);
      times[i] = TimeMs([&] { MustEval(*db, plan, opts); }, 30);
      traj->Add(sweep, "hash-" + std::to_string(threads[i]) + "t", n,
                times[i], stats);
    }
    std::printf("%8d %12.3f %12.3f %12.3f %12.3f %9.2fx\n", n, times[0],
                times[1], times[2], times[3], times[0] / times[2]);
  }
}

// Separate trace-on pass: one profiled evaluation per algorithm, so the
// JSON trajectory carries a per-operator time breakdown next to the
// (trace-off) headline timings above. The 4-thread hash nestjoin run
// also emits the Chrome trace when --trace=<path> was given — its
// morsel timelines are the interesting part.
void ProfileRuns(bench::Trajectory* traj) {
  auto db = MakeDb(1024, 47);
  const JoinAlgorithm algos[2] = {JoinAlgorithm::kHash,
                                  JoinAlgorithm::kIndex};
  const char* names[2] = {"hash", "index"};
  for (int i = 0; i < 2; ++i) {
    bench::ProfileOnce(traj, *db, SemiJoinPlan(), "semijoin-profile",
                       names[i], 1024, Algo(algos[i]));
  }
  EvalOptions mt = Algo(JoinAlgorithm::kHash);
  mt.num_threads = 4;
  bench::ProfileOnce(traj, *db, NestJoinPlan(), "nestjoin-profile",
                     "hash-4t", 1024, mt, /*write_chrome_trace=*/true);
}

// Flight-recorder overhead gate (--recorder-gate): A/B the same engine
// workload with recording on vs. off. Each of 7 reps times both arms
// back-to-back (order alternating) and yields one paired delta; the
// gate asserts the *minimum* delta over the reps stays under 1%.
// Machine noise (governor ramps, scheduler preemption) only inflates a
// rep's delta, so the cleanest rep is an upper bound on the true
// overhead — the gate trips only when the recorder is ≥1% slower in
// every single rep, i.e. the cost is real, not noise. n=4096 keeps a
// single query in the milliseconds, so the recorder's per-query
// microseconds must vanish into the bound — if this trips, recording
// stopped being lock-light.
void RecorderOverheadGate() {
  Section("Flight-recorder overhead gate (enabled vs disabled, min of 7)");
  auto db = MakeDb(4096, 47);
  QueryEngine engine(db.get());
  ExprPtr plan = SemiJoinPlan();
  auto once = [&] { N2J_CHECK(engine.RunAdl(plan).ok()); };
  obs::QueryLog& qlog = obs::QueryLog::Global();
  // Warm caches and the frequency governor before any timed sample.
  for (int i = 0; i < 10; ++i) once();
  double min_delta = 0.0;
  double best_on = -1.0, best_off = -1.0;
  for (int rep = 0; rep < 7; ++rep) {
    double ms[2];  // ms[0] = enabled, ms[1] = disabled
    // Alternate which arm runs first so monotonic machine drift
    // (warming, governor ramp) cannot systematically favor one side.
    for (int leg = 0; leg < 2; ++leg) {
      bool on_leg = (rep + leg) % 2 == 0;
      qlog.set_enabled(on_leg);
      ms[on_leg ? 0 : 1] = TimeMs(once, 50);
    }
    double delta = (ms[0] - ms[1]) / ms[1];
    if (rep == 0 || delta < min_delta) min_delta = delta;
    if (best_on < 0 || ms[0] < best_on) best_on = ms[0];
    if (best_off < 0 || ms[1] < best_off) best_off = ms[1];
  }
  qlog.set_enabled(true);
  std::printf("  enabled %.3fms  disabled %.3fms  min paired delta %+.3f%%\n",
              best_on, best_off, min_delta * 100.0);
  std::fflush(stdout);  // survive the abort below
  N2J_CHECK(min_delta < 0.01);
}

void BM_SemiJoin(benchmark::State& state) {
  auto db = MakeDb(512, 47);
  ExprPtr plan = SemiJoinPlan();
  EvalOptions opts = Algo(static_cast<JoinAlgorithm>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(*db, plan, opts));
}
BENCHMARK(BM_SemiJoin)
    ->Arg(static_cast<int>(JoinAlgorithm::kHash))
    ->Arg(static_cast<int>(JoinAlgorithm::kIndex));

}  // namespace
}  // namespace n2j

int main(int argc, char** argv) {
  n2j::bench::Trajectory traj("join_algorithms", &argc, argv);
  n2j::SweepAlgorithms(
      "Semijoin X ⋉ Y: one logical operator, three physical algorithms",
      n2j::SemiJoinPlan(), "semijoin", &traj);
  n2j::SweepAlgorithms(
      "Nestjoin X ⊣ Y: the new operator admits the same implementations",
      n2j::NestJoinPlan(), "nestjoin", &traj);
  n2j::SweepThreads(
      "Morsel-driven parallel hash semijoin: threads 1/2/4/8",
      n2j::SemiJoinPlan(), "semijoin-threads", &traj);
  n2j::SweepThreads(
      "Morsel-driven parallel hash nestjoin: threads 1/2/4/8",
      n2j::NestJoinPlan(), "nestjoin-threads", &traj);
  n2j::ProfileRuns(&traj);
  if (traj.recorder_gate()) n2j::RecorderOverheadGate();
  std::printf(
      "\nThe index variant skips the build phase entirely (the index was\n"
      "built at load time); the nested loop is the tuple-oriented\n"
      "baseline the paper wants to leave behind.\n");
  traj.WriteIfRequested();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
