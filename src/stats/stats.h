#ifndef N2J_STATS_STATS_H_
#define N2J_STATS_STATS_H_

// Per-extent statistics for the cost-based optimizer (ROADMAP item 1).
//
// The paper's priority strategy (Section 4) is a fixed heuristic; the
// knobs it cannot see — cardinalities, distinct counts, set-attribute
// fanout, equi-key match rates — are exactly what `datagen`
// parameterizes. This module measures them from the stored extents so
// the plan enumerator (opt/optimizer.h) can *choose* instead of assume.
//
// Collection is a fold over the rows of an extent, memoized in a
// StatsCatalog keyed by (table, Table::version()). Extents are
// append-only (storage/table.h), so the catalog keeps each extent's fold
// state — the per-attribute accumulators, distinct sets included, plus
// the number of rows already folded — and on a version miss folds only
// the rows appended since. CollectExtentStats is the same fold started
// at row 0, so full collection and incremental refresh share one code
// path and produce bit-identical snapshots. Analyze() resets the fold
// state and re-folds every table (the ANALYZE of SQL databases).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adl/value.h"
#include "storage/database.h"

namespace n2j {

/// log2-bucketed histogram of set-attribute fanouts: bucket 0 counts
/// empty sets, bucket i >= 1 counts sizes in [2^(i-1), 2^i).
inline constexpr int kFanoutBuckets = 16;

/// Statistics of one attribute of an extent.
struct AttrStats {
  std::string name;

  // Scalar attributes (int/double/string/oid): exact distinct count and
  // value range over the scanned rows. `min`/`max` are only meaningful
  // when `rows_seen > 0`.
  bool scalar = false;
  uint64_t distinct = 0;
  Value min;
  Value max;

  // Set-valued attributes: fanout distribution plus the element-level
  // stats needed by membership joins and unnest (elements are the unary
  // NF2 tuples or whole element values; element stats are taken over the
  // flattened multiset).
  bool set_valued = false;
  double avg_fanout = 0.0;
  uint64_t max_fanout = 0;
  double empty_fraction = 0.0;
  uint64_t fanout_hist[kFanoutBuckets] = {0};
  uint64_t element_count = 0;     // total elements over all rows
  uint64_t element_distinct = 0;  // distinct elements over all rows
  Value element_min;
  Value element_max;
  /// When every element is a unary NF2 tuple with one consistent field
  /// name (the `(pid : oid)` shape of reference sets), that name — so
  /// unnest can re-expose the element stats as scalar attribute stats.
  /// Empty for mixed or non-tuple elements.
  std::string element_field;

  uint64_t rows_seen = 0;
};

/// Statistics of one extent (class extension or plain table).
struct ExtentStats {
  std::string table;
  uint64_t row_count = 0;
  uint64_t version = 0;  // Table::version() at collection time
  std::map<std::string, AttrStats> attrs;

  const AttrStats* Find(const std::string& attr) const;

  /// Human-readable dump (the shell's `\stats <extent>` output).
  std::string ToString() const;
};

/// Folds every row of `t` into fresh statistics. Distinct counts are
/// exact (in-memory extents are small enough); ranges cover the
/// rangeable values only (int, double, oid, string), in any row order.
ExtentStats CollectExtentStats(const Table& t);

/// Estimated fraction of probes from the `left` attribute that find a
/// match among values of the `right` attribute — the equi-key match-rate
/// estimate behind join/semijoin selectivities. Derived from distinct
/// counts and range overlap under the uniformity assumption; clamped to
/// [0, 1]. Returns `fallback` when either side lacks usable stats.
double EstimateMatchRate(const AttrStats* left, const AttrStats* right,
                         double fallback);

/// Range-overlap fraction of `a`'s value range that lies within `b`'s
/// (1.0 when either range is unusable or degenerate). Works on int,
/// double and oid ranges; other kinds return 1.0.
double RangeOverlapFraction(const AttrStats& a, const AttrStats& b);

class ExtentStatsFold;  // stats.cc

/// Memoized per-database statistics. Thread-safe; entries go stale on
/// Table::version() changes (i.e. on Append) and are brought up to date
/// by folding in only the appended rows.
///
/// Fold state per extent: one accumulator per attribute holding the
/// running counters plus the exact distinct sets (flat open-addressing
/// sets of 16-byte Value slots, grown at 3/4 load, so about 21–43 bytes
/// per distinct value; the slots share payloads with the rows). It stays
/// resident for the catalog's lifetime. Registry counters
/// `n2j_stats_full_scans_total` (folds started at row 0) and
/// `n2j_stats_rows_folded_total` (rows folded into existing state) show
/// which path ran.
class StatsCatalog {
 public:
  StatsCatalog();
  ~StatsCatalog();

  /// Statistics for `table`, refreshed iff the cached entry's version
  /// differs from the table's current version. The refresh folds rows
  /// [folded, size) into the kept fold state; a table whose identity
  /// changed, or that now has fewer rows than were folded, is re-folded
  /// from row 0. Returns nullptr for an unknown table. The returned
  /// snapshot is immutable and stays valid for as long as the caller
  /// holds it — a later refresh of the same table publishes a *new*
  /// snapshot rather than mutating or freeing this one.
  std::shared_ptr<const ExtentStats> Get(const Database& db,
                                         const std::string& table) const;

  /// The cached snapshot for `table` exactly as the last Get/Analyze
  /// left it — no collection, no version check, nullptr when the table
  /// was never analyzed. This is what the planner would price with if it
  /// consulted the catalog right now without forcing a refresh; the
  /// flight recorder compares it against the live extent size to detect
  /// stale statistics (obs/drift.h) without itself triggering a scan.
  std::shared_ptr<const ExtentStats> Peek(const std::string& table) const;

  /// Drops every fold state and re-folds every table from row 0 —
  /// ANALYZE. Publishes a new snapshot per table.
  void Analyze(const Database& db);

  /// Drops every cached snapshot and fold state (tests).
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const ExtentStats> snapshot;
    const Table* table = nullptr;  // identity of the folded extent
    std::unique_ptr<ExtentStatsFold> fold;
  };
  /// Brings `entry` up to `t`'s current extent; callers hold mu_.
  static void Refresh(const Table& t, Table::Stamp now, bool full,
                      Entry* entry);

  mutable std::mutex mu_;
  mutable std::map<std::string, Entry> entries_;
};

}  // namespace n2j

#endif  // N2J_STATS_STATS_H_
