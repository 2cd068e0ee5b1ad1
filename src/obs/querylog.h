#ifndef N2J_OBS_QUERYLOG_H_
#define N2J_OBS_QUERYLOG_H_

// The query flight recorder: an always-on, fixed-capacity, lock-light
// ring buffer of per-query records. QueryEngine::Run/RunAdl append one
// record per finished query (success or error) — fuzzer and bench runs
// included — so the last few thousand queries of any process are always
// reconstructible: what ran, under which strategy/backend/thread
// configuration, how long each phase took, the exact operator counters,
// the planner's est-vs-actual cardinalities (Q-error), and every
// fallback the engine took.
//
// Concurrency: the sequence counter is one atomic fetch_add (append
// counts are exact under any interleaving — the mt4 test pins this) and
// each slot has its own mutex, so concurrent writers contend only when
// they collide on the same ring slot and readers never block the whole
// ring. Records are dumpable as JSONL (one RFC 8259 object per line)
// and parseable back for tools/n2j_logcat.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/eval.h"

namespace n2j {
namespace obs {

/// The Q-error of a cardinality estimate: max(est/actual, actual/est)
/// with both sides clamped to >= 1 so empty results do not divide by
/// zero. 1.0 = perfect.
double QError(double est_rows, double actual_rows);

/// Est-vs-actual for one estimated plan root — a span the cost-based
/// planner annotated with est_rows (exec/plan.h). `actual` is the
/// span's observed output cardinality.
struct RootEstimate {
  std::string op;        // span label, "semijoin [hash keys=1]"
  double est = -1.0;     // planner-estimated output rows
  uint64_t actual = 0;   // observed output rows
  double q = 1.0;        // QError(est, actual)
};

/// One finished query. Everything a post-mortem needs, nothing that
/// requires re-running: configuration, per-phase latency, the compact
/// EvalStats snapshot, estimate audits, fallbacks, and the first error.
struct QueryLogRecord {
  uint64_t id = 0;           // ring sequence number (assigned by Append)
  uint64_t query_hash = 0;   // normalized hash (Expr::StructuralHash of
                             // the translated algebra, so formatting
                             // differences in the OOSQL text hash
                             // identically)
  std::string query;         // original text (or algebra for RunAdl)
  std::string error;         // first error, "" on success

  std::string strategy;      // "heuristic" | "cost"
  std::string backend;       // "nested" | "shredded"
  int threads = 1;
  bool compiled = true;

  double wall_ms = 0.0;      // end-to-end Run latency
  double translate_ms = 0.0; // parse, typecheck and lowering
  double rewrite_ms = 0.0;   // rewriter phase
  double plan_ms = 0.0;      // cost planner, with its stats refresh
  double eval_ms = 0.0;      // evaluation phase
  uint64_t rows_out = 0;     // result cardinality (0 for scalar results)

  EvalStats stats;           // full counter snapshot of the execution
  std::vector<RootEstimate> roots;  // estimated spans (tracing + cost)
  double max_q = 0.0;        // max Q-error over roots (0 = not traced)

  /// Fallback total: per-tuple interpreter evaluations the compiled
  /// engine fell back to.
  uint64_t fallbacks() const { return stats.interp_fallback_evals; }

  /// One RFC 8259 object, single line, no trailing newline.
  std::string ToJson() const;
  /// Parses one ToJson line. Returns false on malformed input or a known
  /// field of the wrong type or out of range; unknown keys are ignored
  /// so the format can grow, and missing ones keep their defaults.
  static bool FromJson(const std::string& line, QueryLogRecord* out);
};

class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit QueryLog(size_t capacity = kDefaultCapacity);

  /// The process-wide recorder QueryEngine appends to.
  static QueryLog& Global();

  /// Recording toggle for overhead A/B measurement (the bench gate).
  /// Disabled appends are dropped entirely — not counted, not stored.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one record, overwriting the slot `total_appended() %
  /// capacity()` — the ring keeps the most recent `capacity()` records.
  /// Returns the record's assigned id (dense, starting at 0).
  uint64_t Append(QueryLogRecord r);

  /// Exact number of records ever appended (ids are 0..total-1).
  uint64_t total_appended() const {
    return next_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

  /// Copies the resident records, id-ascending (oldest surviving
  /// record first). `last_n` > 0 keeps only the newest n.
  std::vector<QueryLogRecord> Snapshot(size_t last_n = 0) const;

  /// All resident records as JSONL, id-ascending.
  std::string ToJsonl() const;
  Status DumpJsonl(const std::string& path) const;

  /// Drops every record and restarts ids at 0 (tests/benches only; not
  /// meaningful concurrently with writers).
  void Clear();

 private:
  struct Slot {
    std::mutex mu;
    bool filled = false;
    QueryLogRecord record;
  };

  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<bool> enabled_{true};
};

}  // namespace obs
}  // namespace n2j

#endif  // N2J_OBS_QUERYLOG_H_
