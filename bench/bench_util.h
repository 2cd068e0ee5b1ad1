#ifndef N2J_BENCH_BENCH_UTIL_H_
#define N2J_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment binaries. Each bench reproduces one
// table or figure of the paper: it prints the paper-shaped table first
// (the qualitative reproduction) and then registers google-benchmark
// timings for the quantitative sweeps.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "adl/printer.h"
#include "common/json.h"
#include "common/status.h"
#include "common/str_util.h"
#include "core/engine.h"
#include "exec/eval.h"
#include "obs/chrome_trace.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "rewrite/rewriter.h"
#include "storage/datagen.h"

namespace n2j {
namespace bench {

/// Runs `fn` repeatedly until ~min_ms of wall time accumulated; returns
/// milliseconds per execution.
inline double TimeMs(const std::function<void()>& fn, double min_ms = 50.0) {
  using Clock = std::chrono::steady_clock;
  // Warm-up.
  fn();
  int iters = 1;
  for (;;) {
    auto start = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (elapsed >= min_ms || iters > (1 << 20)) {
      return elapsed / iters;
    }
    iters *= 2;
  }
}

/// Engine selection for every timed loop: --mode=compiled (the default)
/// runs lambdas on the bytecode VM, --mode=interp pins the tree
/// interpreter. A process-wide toggle so the same binary measures both
/// engines on identical plans.
inline bool& BenchCompiledMode() {
  static bool compiled = true;
  return compiled;
}

inline const char* BenchModeName() {
  return BenchCompiledMode() ? "compiled" : "interp";
}

/// Evaluates `e` against `db`, aborting on error (bench inputs are fixed).
/// The engine is forced to the process-wide --mode selection.
inline Value MustEval(const Database& db, const ExprPtr& e,
                      EvalOptions opts = EvalOptions(),
                      EvalStats* stats = nullptr) {
  opts.compiled = BenchCompiledMode();
  Evaluator ev(db, opts);
  Result<Value> r = ev.Eval(e);
  if (!r.ok()) {
    std::fprintf(stderr, "bench eval failed: %s\nexpr: %s\n",
                 r.status().ToString().c_str(), AlgebraStr(e).c_str());
    std::abort();
  }
  if (stats != nullptr) *stats = ev.stats();
  return *r;
}

/// Cross-engine equivalence gate: evaluates `e` under both the bytecode
/// VM and the tree interpreter and aborts unless the results agree.
/// Benches call this once per (plan, options) cell before timing, so the
/// timed loops stay single-engine. Returns the selected mode's result
/// and (optionally) its counters.
inline Value MustEvalModesAgree(const Database& db, const ExprPtr& e,
                                EvalOptions opts = EvalOptions(),
                                EvalStats* stats = nullptr) {
  EvalOptions compiled_opts = opts;
  compiled_opts.compiled = true;
  EvalOptions interp_opts = opts;
  interp_opts.compiled = false;
  Evaluator compiled_ev(db, compiled_opts);
  Evaluator interp_ev(db, interp_opts);
  Result<Value> compiled_r = compiled_ev.Eval(e);
  Result<Value> interp_r = interp_ev.Eval(e);
  if (!compiled_r.ok() || !interp_r.ok()) {
    std::fprintf(stderr,
                 "bench eval failed (compiled: %s / interp: %s)\nexpr: %s\n",
                 compiled_r.status().ToString().c_str(),
                 interp_r.status().ToString().c_str(), AlgebraStr(e).c_str());
    std::abort();
  }
  if (*compiled_r != *interp_r) {
    std::fprintf(stderr, "compiled and interpreted results differ\nexpr: %s\n",
                 AlgebraStr(e).c_str());
    std::abort();
  }
  if (stats != nullptr) {
    *stats = BenchCompiledMode() ? compiled_ev.stats() : interp_ev.stats();
  }
  return BenchCompiledMode() ? std::move(compiled_r).value()
                             : std::move(interp_r).value();
}

/// Rewrites with options, aborting on error.
inline RewriteResult MustRewrite(const Database& db, const ExprPtr& e,
                                 RewriteOptions opts = RewriteOptions()) {
  Rewriter rw(db.schema(), &db, opts);
  Result<RewriteResult> r = rw.Rewrite(e);
  if (!r.ok()) {
    std::fprintf(stderr, "bench rewrite failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return *r;
}

/// Aborts when writing an output file failed: a silently missing CI
/// artifact is worse than a red job.
inline void MustWrite(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s write failed: %s\n", what,
                 st.ToString().c_str());
    std::abort();
  }
}

/// RewriteOptions with every pass disabled (pure nested-loop execution);
/// the simplifier's translation cleanups always run.
inline RewriteOptions AllRewritesOff() {
  RewriteOptions off;
  off.enable_setcmp = false;
  off.enable_quantifier = false;
  off.enable_map_join = false;
  off.enable_unnest_attr = false;
  off.enable_hoist = false;
  off.grouping = GroupingMode::kNone;
  return off;
}

/// Prints a horizontal rule and a section heading.
inline void Section(const std::string& title) {
  std::printf("\n%s\n", std::string(76, '-').c_str());
  std::printf("%s\n%s\n", title.c_str(), std::string(76, '-').c_str());
}

/// One measured cell of a benchmark sweep: (sweep, variant, n) with the
/// wall-clock milliseconds and the operator counters of one evaluation.
struct TrajectoryPoint {
  std::string sweep;
  std::string variant;
  int n = 0;
  double ms = 0.0;
  EvalStats stats;
};

/// One aggregated operator line of a traced (profiled) evaluation: all
/// spans sharing (op, detail) within one cell. Time is the *exclusive*
/// wall time — the sum over the cell's operator lines is the cell's
/// whole evaluation. Collected from a separate trace-on run; the
/// trace-off wall time in TrajectoryPoint stays the headline number.
struct OperatorProfileEntry {
  std::string sweep;
  std::string variant;
  int n = 0;
  std::string op;  // "antijoin [hash keys=1]"
  uint64_t count = 0;
  double exclusive_ms = 0.0;
  uint64_t rows_out = 0;
};

/// Collects sweep points and, when the binary was invoked with
/// --json=<path>, writes them out as a JSON document — the machine-
/// readable trajectory CI archives next to the human-readable tables.
/// Without the flag, recording is kept but nothing is written.
class Trajectory {
 public:
  /// Scans argv for --json=<path>, --trace=<path> (Chrome-trace output
  /// of the bench's representative profiled run), --querylog=<path>
  /// (flight-recorder JSONL dump on WriteIfRequested),
  /// --recorder-gate (run the bench's recorder-overhead assertion, if it
  /// defines one) and --mode=compiled|interp, stripping all of them so
  /// google-benchmark's own argument parser never sees them.
  Trajectory(std::string bench_name, int* argc, char** argv)
      : bench_(std::move(bench_name)) {
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--json=", 7) == 0) {
        path_ = arg + 7;
      } else if (std::strncmp(arg, "--trace=", 8) == 0) {
        trace_path_ = arg + 8;
      } else if (std::strncmp(arg, "--querylog=", 11) == 0) {
        querylog_path_ = arg + 11;
      } else if (std::strcmp(arg, "--recorder-gate") == 0) {
        recorder_gate_ = true;
      } else if (std::strncmp(arg, "--mode=", 7) == 0) {
        if (std::strcmp(arg + 7, "compiled") == 0) {
          BenchCompiledMode() = true;
        } else if (std::strcmp(arg + 7, "interp") == 0) {
          BenchCompiledMode() = false;
        } else {
          std::fprintf(stderr, "unknown --mode=%s (compiled|interp)\n",
                       arg + 7);
          std::abort();
        }
      } else {
        argv[kept++] = argv[i];
      }
    }
    *argc = kept;
  }

  void Add(const std::string& sweep, const std::string& variant, int n,
           double ms, const EvalStats& stats = EvalStats()) {
    points_.push_back(TrajectoryPoint{sweep, variant, n, ms, stats});
  }

  /// Where --trace=<path> asked the Chrome trace to go (empty = off).
  const std::string& chrome_trace_path() const { return trace_path_; }

  /// Whether --recorder-gate asked for the flight-recorder overhead
  /// assertion (bench_join_algorithms defines it).
  bool recorder_gate() const { return recorder_gate_; }

  /// Folds one traced evaluation's span tree into per-operator lines:
  /// spans sharing (op, detail) aggregate into count / exclusive-ms /
  /// rows-out, first-seen order. The entries ride along in the JSON
  /// document under "operator_profile".
  void AddOperatorProfile(const std::string& sweep,
                          const std::string& variant, int n,
                          const TraceCollector& tc) {
    std::vector<OperatorProfileEntry> local;
    for (const TraceSpan& s : tc.spans()) {
      std::string label = s.Label();
      OperatorProfileEntry* entry = nullptr;
      for (OperatorProfileEntry& e : local) {
        if (e.op == label) {
          entry = &e;
          break;
        }
      }
      if (entry == nullptr) {
        local.push_back(OperatorProfileEntry{sweep, variant, n, label, 0,
                                             0.0, 0});
        entry = &local.back();
      }
      ++entry->count;
      entry->exclusive_ms += static_cast<double>(s.exclusive_ns()) / 1e6;
      entry->rows_out += s.rows_out;
    }
    profile_.insert(profile_.end(), local.begin(), local.end());
  }

  /// Writes the JSON file when --json=<path> was given, and the flight-
  /// recorder dump when --querylog=<path> was. Aborts on I/O failure.
  void WriteIfRequested() const {
    DumpQuerylogIfRequested();
    if (path_.empty()) return;
    std::string doc;
    JsonWriter w(&doc);
    w.BeginObject().Key("bench").String(bench_);
    w.Key("mode").String(BenchModeName()).Key("points").BeginArray();
    size_t nfields = 0;
    const EvalStatsField* fields = EvalStatsFields(&nfields);
    for (const TrajectoryPoint& p : points_) {
      w.BeginObject().Key("sweep").String(p.sweep);
      w.Key("variant").String(p.variant);
      w.Key("n").U64(static_cast<uint64_t>(p.n));
      w.Key("ms").Double(p.ms, "%.6f").Key("stats").BeginObject();
      for (size_t k = 0; k < nfields; ++k) {
        w.Key(fields[k].name).U64(p.stats.*fields[k].member);
      }
      w.EndObject().EndObject();
    }
    w.EndArray().Key("operator_profile").BeginArray();
    for (const OperatorProfileEntry& e : profile_) {
      w.BeginObject().Key("sweep").String(e.sweep);
      w.Key("variant").String(e.variant);
      w.Key("n").U64(static_cast<uint64_t>(e.n));
      w.Key("op").String(e.op).Key("count").U64(e.count);
      w.Key("exclusive_ms").Double(e.exclusive_ms, "%.6f");
      w.Key("rows_out").U64(e.rows_out).EndObject();
    }
    w.EndArray().EndObject();
    doc += '\n';
    MustWrite(WriteFile(path_, doc), "trajectory");
    std::printf("\nwrote %zu trajectory points (%zu profiled operator "
                "lines) to %s\n",
                points_.size(), profile_.size(), path_.c_str());
  }

  /// Dumps the flight recorder when --querylog=<path> was given. Same
  /// abort-on-I/O-failure policy as the trajectory JSON. Call after the
  /// sweeps (benches that go through QueryEngine populate the recorder;
  /// direct-Evaluator benches dump whatever engine runs they did make).
  void DumpQuerylogIfRequested() const {
    if (querylog_path_.empty()) return;
    obs::QueryLog& qlog = obs::QueryLog::Global();
    MustWrite(qlog.DumpJsonl(querylog_path_), "querylog");
    std::printf("wrote %zu query-log records to %s\n",
                qlog.Snapshot().size(), querylog_path_.c_str());
  }

 private:
  std::string bench_;
  std::string path_;
  std::string trace_path_;
  std::string querylog_path_;
  bool recorder_gate_ = false;
  std::vector<TrajectoryPoint> points_;
  std::vector<OperatorProfileEntry> profile_;
};

/// Runs one *traced* evaluation of `e` — outside any timed loop, so the
/// trace-off wall times stay the headline numbers — and folds its span
/// tree into the trajectory's operator profile. With
/// `write_chrome_trace` and a --trace=<path> flag, also writes the span
/// tree and worker timelines as a Chrome trace (chrome://tracing,
/// Perfetto).
inline void ProfileOnce(Trajectory* traj, const Database& db,
                        const ExprPtr& e, const std::string& sweep,
                        const std::string& variant, int n,
                        EvalOptions opts = EvalOptions(),
                        bool write_chrome_trace = false) {
  TraceCollector tc;
  opts.trace = &tc;
  MustEval(db, e, opts);
  traj->AddOperatorProfile(sweep, variant, n, tc);
  if (write_chrome_trace && !traj->chrome_trace_path().empty()) {
    MustWrite(WriteChromeTrace(tc, traj->chrome_trace_path()),
              "chrome trace");
    std::printf("wrote chrome trace to %s\n",
                traj->chrome_trace_path().c_str());
  }
}

}  // namespace bench
}  // namespace n2j

#endif  // N2J_BENCH_BENCH_UTIL_H_
