#include "stats/stats.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace n2j {

namespace {

int FanoutBucket(size_t n) {
  if (n == 0) return 0;
  int b = 1;
  size_t upper = 2;  // bucket 1 covers [1, 2)
  while (n >= upper && b < kFanoutBuckets - 1) {
    ++b;
    upper <<= 1;
  }
  return b;
}

/// True when min/max tracking makes sense for this value kind (total
/// order that the estimator can turn into a numeric range).
bool Rangeable(const Value& v) {
  return v.is_int() || v.is_double() || v.is_oid() || v.is_string();
}

void TrackRange(const Value& v, Value* min, Value* max, uint64_t seen) {
  if (seen == 0) {
    *min = v;
    *max = v;
    return;
  }
  if (v.Compare(*min) < 0) *min = v;
  if (v.Compare(*max) > 0) *max = v;
}

/// Exact distinct-value set for the statistics fold: open addressing
/// with linear probing over a power-of-two array whose slots are the
/// 16-byte Values themselves. A null slot is empty (a null member is a
/// flag), so a distinct value costs one slot and no node allocation, and
/// string/tuple slots share their payload with the extent row. Grown at
/// 3/4 load, so resident cost is 21–43 bytes per distinct value.
class FlatValueSet {
 public:
  void Insert(const Value& v) {
    if (v.is_null()) {
      has_null_ = true;
      return;
    }
    if (!slots_.empty()) {
      size_t i = Probe(v);
      if (!slots_[i].is_null()) return;  // already a member
      if (4 * (count_ + 1) <= 3 * slots_.size()) {
        slots_[i] = v;
        ++count_;
        return;
      }
    }
    Grow();
    slots_[Probe(v)] = v;
    ++count_;
  }

  size_t size() const { return count_ + (has_null_ ? 1 : 0); }

 private:
  /// The slot holding `v`, or the empty slot where it belongs.
  size_t Probe(const Value& v) const {
    size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of the product mix every hash bit.
    size_t i = static_cast<size_t>((v.Hash() * 0x9e3779b97f4a7c15ULL) >>
                                   shift_);
    while (!slots_[i].is_null() && slots_[i] != v) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Value> old = std::move(slots_);
    slots_ = std::vector<Value>(old.empty() ? 16 : 2 * old.size());
    shift_ = old.empty() ? 60 : shift_ - 1;
    for (Value& v : old) {
      if (!v.is_null()) slots_[Probe(v)] = std::move(v);
    }
  }

  std::vector<Value> slots_;
  size_t count_ = 0;  // non-null members
  int shift_ = 64;    // 64 - log2(slots_.size())
  bool has_null_ = false;
};

obs::Counter& FullScans() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("n2j_stats_full_scans_total");
  return c;
}

obs::Counter& RowsFolded() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "n2j_stats_rows_folded_total");
  return c;
}

/// Numeric image of a rangeable value, for overlap arithmetic. Strings
/// have no useful numeric image — the caller treats them as overlap 1.
double NumericImage(const Value& v) {
  if (v.is_int()) return static_cast<double>(v.int_value());
  if (v.is_double()) return v.double_value();
  if (v.is_oid()) return static_cast<double>(v.oid_value());
  return 0.0;
}

}  // namespace

const AttrStats* ExtentStats::Find(const std::string& attr) const {
  auto it = attrs.find(attr);
  return it == attrs.end() ? nullptr : &it->second;
}

std::string ExtentStats::ToString() const {
  std::string out = StrFormat("%s: %llu rows (stats v%llu)\n", table.c_str(),
                              static_cast<unsigned long long>(row_count),
                              static_cast<unsigned long long>(version));
  for (const auto& [name, a] : attrs) {
    if (a.set_valued) {
      out += StrFormat(
          "  %-12s set: avg_fanout=%.2f max_fanout=%llu empty=%.0f%% "
          "elems=%llu distinct_elems=%llu\n",
          name.c_str(), a.avg_fanout,
          static_cast<unsigned long long>(a.max_fanout),
          a.empty_fraction * 100.0,
          static_cast<unsigned long long>(a.element_count),
          static_cast<unsigned long long>(a.element_distinct));
      out += "               fanout histogram:";
      for (int b = 0; b < kFanoutBuckets; ++b) {
        if (a.fanout_hist[b] == 0) continue;
        if (b == 0) {
          out += StrFormat(" [0]=%llu",
                           static_cast<unsigned long long>(a.fanout_hist[b]));
        } else {
          out += StrFormat(
              " [%llu..%llu)=%llu",
              static_cast<unsigned long long>(b == 1 ? 1 : (1ull << (b - 1))),
              static_cast<unsigned long long>(1ull << b),
              static_cast<unsigned long long>(a.fanout_hist[b]));
        }
      }
      out += "\n";
    } else if (a.scalar) {
      out += StrFormat("  %-12s distinct=%llu", name.c_str(),
                       static_cast<unsigned long long>(a.distinct));
      if (a.rows_seen > 0 && Rangeable(a.min)) {
        out += " range=[" + a.min.ToString() + ", " + a.max.ToString() + "]";
      }
      out += "\n";
    } else {
      out += StrFormat("  %-12s (no stats)\n", name.c_str());
    }
  }
  return out;
}

/// The running state behind one extent's statistics: one accumulator
/// per attribute plus the number of rows folded so far. Folding rows
/// [a, b) and then [b, c) leaves exactly the state of folding [a, c), so
/// a snapshot after any sequence of folds equals the full collection.
class ExtentStatsFold {
 public:
  /// Folds rows [folded(), end) of `rows`; earlier rows are never read.
  void Fold(const std::vector<Value>& rows, size_t end);

  /// The statistics of the rows folded so far.
  ExtentStats Snapshot(const std::string& table, uint64_t version) const;

  size_t folded() const { return folded_; }

 private:
  struct Acc {
    AttrStats a;
    FlatValueSet distinct;
    FlatValueSet element_distinct;
    uint64_t fanout_total = 0;
    uint64_t empties = 0;
    uint64_t scalar_seen = 0;   // rangeable scalar values tracked
    uint64_t element_seen = 0;  // rangeable element values tracked
    bool element_field_mixed = false;
  };

  void FoldValue(const Value& v, Acc* acc);

  std::map<std::string, Acc> accs_;
  size_t folded_ = 0;
};

void ExtentStatsFold::Fold(const std::vector<Value>& rows, size_t end) {
  for (; folded_ < end; ++folded_) {
    const Value& row = rows[folded_];
    if (!row.is_tuple()) continue;
    for (size_t i = 0; i < row.tuple_size(); ++i) {
      const std::string& name = row.field_name(i);
      Acc& acc = accs_[name];
      acc.a.name = name;
      FoldValue(row.field_value(i), &acc);
    }
  }
}

void ExtentStatsFold::FoldValue(const Value& v, Acc* acc) {
  ++acc->a.rows_seen;
  if (v.is_set()) {
    acc->a.set_valued = true;
    size_t n = v.set_size();
    acc->fanout_total += n;
    acc->a.max_fanout = std::max<uint64_t>(acc->a.max_fanout, n);
    ++acc->a.fanout_hist[FanoutBucket(n)];
    if (n == 0) ++acc->empties;
    for (const Value& e : v.elements()) {
      // Element-level stats: unary NF2 tuples (d : int) contribute
      // their single field; everything else contributes the element
      // itself. Membership joins probe with exactly these values.
      const Value* probe = &e;
      if (e.is_tuple() && e.tuple_size() == 1) {
        probe = &e.field_value(0);
        if (!acc->element_field_mixed) {
          if (acc->a.element_field.empty()) {
            acc->a.element_field = e.field_name(0);
          } else if (acc->a.element_field != e.field_name(0)) {
            acc->element_field_mixed = true;
            acc->a.element_field.clear();
          }
        }
      } else {
        acc->element_field_mixed = true;
        acc->a.element_field.clear();
      }
      acc->element_distinct.Insert(*probe);
      if (Rangeable(*probe)) {
        TrackRange(*probe, &acc->a.element_min, &acc->a.element_max,
                   acc->element_seen++);
      }
    }
  } else if (!v.is_tuple()) {
    acc->a.scalar = true;
    acc->distinct.Insert(v);
    if (Rangeable(v)) {
      TrackRange(v, &acc->a.min, &acc->a.max, acc->scalar_seen++);
    }
  }
}

ExtentStats ExtentStatsFold::Snapshot(const std::string& table,
                                      uint64_t version) const {
  ExtentStats s;
  s.table = table;
  s.version = version;
  s.row_count = folded_;
  for (const auto& [name, acc] : accs_) {
    AttrStats a = acc.a;
    a.distinct = acc.distinct.size();
    if (a.set_valued && a.rows_seen > 0) {
      a.avg_fanout = static_cast<double>(acc.fanout_total) /
                     static_cast<double>(a.rows_seen);
      a.empty_fraction = static_cast<double>(acc.empties) /
                         static_cast<double>(a.rows_seen);
      a.element_count = acc.fanout_total;
      a.element_distinct = acc.element_distinct.size();
    }
    s.attrs.emplace(name, std::move(a));
  }
  return s;
}

ExtentStats CollectExtentStats(const Table& t) {
  Table::Stamp now = t.stamp();
  ExtentStatsFold fold;
  fold.Fold(t.rows(), now.rows);
  return fold.Snapshot(t.name(), now.version);
}

double RangeOverlapFraction(const AttrStats& a, const AttrStats& b) {
  const Value& amin = a.scalar ? a.min : a.element_min;
  const Value& amax = a.scalar ? a.max : a.element_max;
  const Value& bmin = b.scalar ? b.min : b.element_min;
  const Value& bmax = b.scalar ? b.max : b.element_max;
  auto numeric = [](const Value& v) {
    return v.is_int() || v.is_double() || v.is_oid();
  };
  if (!numeric(amin) || !numeric(amax) || !numeric(bmin) || !numeric(bmax)) {
    return 1.0;
  }
  // Oids and plain numbers live on unrelated axes; a column whose
  // min/max straddle the two kinds (mixed-kind attribute) yields a
  // meaningless image, so treat the ranges as incomparable — overlap 1.
  if (amin.is_oid() != amax.is_oid() || bmin.is_oid() != bmax.is_oid() ||
      amin.is_oid() != bmin.is_oid()) {
    return 1.0;
  }
  double lo_a = NumericImage(amin), hi_a = NumericImage(amax);
  double lo_b = NumericImage(bmin), hi_b = NumericImage(bmax);
  if (!std::isfinite(lo_a) || !std::isfinite(hi_a) || !std::isfinite(lo_b) ||
      !std::isfinite(hi_b)) {
    return 1.0;
  }
  double span = hi_a - lo_a;
  if (span <= 0) {
    // Degenerate (single-point) range: in or out.
    return (lo_a >= lo_b && lo_a <= hi_b) ? 1.0 : 0.0;
  }
  double overlap = std::min(hi_a, hi_b) - std::max(lo_a, lo_b);
  if (overlap <= 0) return 0.0;
  return std::max(0.0, std::min(1.0, overlap / span));
}

double EstimateMatchRate(const AttrStats* left, const AttrStats* right,
                         double fallback) {
  if (left == nullptr || right == nullptr) return fallback;
  double d_left = left->scalar ? static_cast<double>(left->distinct)
                               : static_cast<double>(left->element_distinct);
  double d_right = right->scalar
                       ? static_cast<double>(right->distinct)
                       : static_cast<double>(right->element_distinct);
  // A side with no observed values (empty extent, or the attribute is
  // absent from every row) can never produce a match — that is a hard
  // zero, not a reason to fall back to a guess.
  if (d_left <= 0 || d_right <= 0) return 0.0;
  // Discrete numeric key domains (int/oid): a left probe is one value
  // out of the W = max − min + 1 values its range spans, and it matches
  // iff the right side holds that value — which happens for the
  // d_right-inside-the-left-range of the W candidates. This sees domain
  // sparsity that distinct-count containment misses: a width-2048 domain
  // with ~190 values on each side matches ~9% of probes, not all.
  // Requires min and max of the *same* discrete kind: a mixed-kind
  // column (say min is an int, max an oid) has no meaningful width.
  const Value& lmin = left->scalar ? left->min : left->element_min;
  const Value& lmax = left->scalar ? left->max : left->element_max;
  bool discrete = (lmin.is_int() && lmax.is_int()) ||
                  (lmin.is_oid() && lmax.is_oid());
  if (discrete) {
    double width = NumericImage(lmax) - NumericImage(lmin) + 1.0;
    // width >= 1 always when min <= max; anything else means torn or
    // non-finite stats, which the containment path below absorbs.
    if (std::isfinite(width) && width >= d_left && width >= 1.0) {
      double d_right_in_left = d_right * RangeOverlapFraction(*right, *left);
      double rate = d_right_in_left / width;
      if (std::isfinite(rate)) {
        return std::max(0.0, std::min(1.0, rate));
      }
    }
  }
  // Continuous or unusable ranges: only the part of the left range that
  // the right range covers can match at all; within the overlap,
  // containment-style uniformity.
  double overlap = RangeOverlapFraction(*left, *right);
  double d_left_overlap = std::max(1.0, d_left * overlap);
  double within = std::min(1.0, d_right / d_left_overlap);
  double rate = overlap * within;
  if (!std::isfinite(rate)) return fallback;
  return std::max(0.0, std::min(1.0, rate));
}

StatsCatalog::StatsCatalog() = default;
StatsCatalog::~StatsCatalog() = default;

void StatsCatalog::Refresh(const Table& t, Table::Stamp now, bool full,
                           Entry* entry) {
  if (full || entry->fold == nullptr || entry->table != &t ||
      now.rows < entry->fold->folded()) {
    entry->fold = std::make_unique<ExtentStatsFold>();
    entry->table = &t;
    FullScans().Add();
  } else {
    RowsFolded().Add(now.rows - entry->fold->folded());
  }
  entry->fold->Fold(t.rows(), now.rows);
  entry->snapshot = std::make_shared<const ExtentStats>(
      entry->fold->Snapshot(t.name(), now.version));
}

std::shared_ptr<const ExtentStats> StatsCatalog::Get(
    const Database& db, const std::string& table) const {
  const Table* t = db.FindTable(table);
  if (t == nullptr) return nullptr;
  // The fold runs under mu_ so concurrent readers of a stale entry never
  // fold the same rows twice; publication swaps the entry's snapshot to
  // a fresh shared_ptr, leaving snapshots already handed out untouched.
  std::lock_guard<std::mutex> lock(mu_);
  Table::Stamp now = t->stamp();
  Entry& entry = entries_[table];
  if (entry.snapshot != nullptr && entry.table == t &&
      entry.snapshot->version == now.version) {
    return entry.snapshot;
  }
  Refresh(*t, now, /*full=*/false, &entry);
  return entry.snapshot;
}

std::shared_ptr<const ExtentStats> StatsCatalog::Peek(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(table);
  return it == entries_.end() ? nullptr : it->second.snapshot;
}

void StatsCatalog::Analyze(const Database& db) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    if (t == nullptr) continue;
    Refresh(*t, t->stamp(), /*full=*/true, &entries_[name]);
  }
}

void StatsCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace n2j
