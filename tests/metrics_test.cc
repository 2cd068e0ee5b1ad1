// Metrics registry semantics (ISSUE 10 satellites): the nanosecond sum
// accumulator (sub-microsecond observations must not truncate to zero),
// Reset-then-Observe exact deltas for sequential callers, and the
// deterministic merged render order `\metrics` depends on. Also pins
// the statistics-fold counters that show whether a StatsCatalog refresh
// rescanned the extent or folded in only the appended rows, and the
// instruments every QueryEngine::Run feeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adl/type.h"
#include "adl/value.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "stats/stats.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace n2j {
namespace obs {
namespace {

TEST(Histogram, SubMicrosecondObservationsAccumulate) {
  // 1000 × 0.5µs. A double-milliseconds accumulator kept at histogram
  // granularity survives, but the old integer-ms sum truncated each to
  // zero; the nanosecond accumulator keeps every one.
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Observe(0.0005);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.sum_ms(), 0.5, 1e-6);
  // All land in the first bucket (le 0.01ms).
  EXPECT_EQ(h.bucket(0), 1000u);
}

TEST(Histogram, SumSurvivesMixedMagnitudes) {
  Histogram h;
  h.Observe(0.0001);   // 100ns
  h.Observe(1500.0);   // 1.5s — beyond the last bound
  EXPECT_EQ(h.count(), 2u);
  EXPECT_NEAR(h.sum_ms(), 1500.0001, 1e-4);
  // The overflow observation counts only toward the implicit +Inf
  // bucket (the last one).
  EXPECT_EQ(h.bucket(Histogram::kNumBuckets - 1), 1u);
}

TEST(Histogram, ResetZeroesCountSumAndBuckets) {
  Histogram h;
  h.Observe(0.3);
  h.Observe(42.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum_ms(), 0.0);
  for (int i = 0; i < Histogram::kNumBuckets; ++i) EXPECT_EQ(h.bucket(i), 0u);
  // Post-Reset observations read as exact deltas (the semantics the
  // header documents for sequential callers).
  h.Observe(0.3);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.sum_ms(), 0.3, 1e-9);
}

TEST(MetricsRegistry, ResetThenAddReadsExactDeltas) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("n2j_test_total");
  c.Add(17);
  reg.Reset();
  EXPECT_EQ(c.value(), 0u);
  c.Add(3);
  EXPECT_EQ(c.value(), 3u);
  // Instruments stay registered across Reset — the cached reference and
  // a fresh lookup are the same object.
  EXPECT_EQ(&c, &reg.GetCounter("n2j_test_total"));
}

TEST(MetricsRegistry, RenderMergesCountersAndHistogramsByName) {
  MetricsRegistry reg;
  reg.GetCounter("n2j_c_total").Add(1);
  reg.GetHistogram("n2j_b_ms").Observe(1.0);
  reg.GetCounter("n2j_a_total").Add(2);
  reg.GetHistogram("n2j_d_ms").Observe(2.0);
  std::string out = reg.Render();
  size_t a = out.find("n2j_a_total");
  size_t b = out.find("n2j_b_ms");
  size_t c = out.find("n2j_c_total");
  size_t d = out.find("n2j_d_ms");
  ASSERT_NE(a, std::string::npos) << out;
  ASSERT_NE(b, std::string::npos) << out;
  ASSERT_NE(c, std::string::npos) << out;
  ASSERT_NE(d, std::string::npos) << out;
  // One merged lexicographic order, counters and histograms interleaved
  // — not "all counters then all histograms".
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  // Deterministic: same registry, same document.
  EXPECT_EQ(out, reg.Render());
}

TEST(MetricsRegistry, ValueAccessorsAreNameSorted) {
  MetricsRegistry reg;
  reg.GetCounter("zzz").Add(9);
  reg.GetCounter("aaa").Add(1);
  reg.GetHistogram("mmm").Observe(0.5);
  std::vector<std::pair<std::string, uint64_t>> counters =
      reg.CounterValues();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "aaa");
  EXPECT_EQ(counters[0].second, 1u);
  EXPECT_EQ(counters[1].first, "zzz");
  std::vector<HistogramSnapshot> hists = reg.HistogramValues();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "mmm");
  EXPECT_EQ(hists[0].count, 1u);
  EXPECT_NEAR(hists[0].sum_ms, 0.5, 1e-9);
}

TEST(MetricsRegistry, StatsFoldCountersPinFullScanThenFolds) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  Database db;
  ASSERT_TRUE(db.CreateTable("T", Type::Tuple({{"k", Type::Int()}})).ok());
  auto insert = [&db](int i) {
    ASSERT_TRUE(db.Insert("T", Value::Tuple({Field("k", Value::Int(i))})).ok());
  };
  for (int i = 0; i < 100; ++i) insert(i);
  ASSERT_NE(db.stats().Get(db, "T"), nullptr);
  EXPECT_EQ(reg.GetCounter("n2j_stats_full_scans_total").value(), 1u);
  EXPECT_EQ(reg.GetCounter("n2j_stats_rows_folded_total").value(), 0u);

  // Seven appends, each read back: every refresh folds exactly the one
  // new row; an unchanged extent folds nothing.
  for (int i = 100; i < 107; ++i) {
    insert(i);
    ASSERT_NE(db.stats().Get(db, "T"), nullptr);
    ASSERT_NE(db.stats().Get(db, "T"), nullptr);
  }
  EXPECT_EQ(reg.GetCounter("n2j_stats_full_scans_total").value(), 1u);
  EXPECT_EQ(reg.GetCounter("n2j_stats_rows_folded_total").value(), 7u);
  EXPECT_EQ(db.stats().Get(db, "T")->row_count, 107u);

  std::string om = RenderOpenMetrics(reg);
  EXPECT_NE(om.find("n2j_stats_full_scans_total 1\n"), std::string::npos)
      << om;
  EXPECT_NE(om.find("n2j_stats_rows_folded_total 7\n"), std::string::npos)
      << om;
}

// The engine looks its per-query instruments up once per process and
// keeps the references. One Run must create all of them, and after a
// Reset() the next queries' deltas must land in the instruments the
// registry renders, not in stale copies.
TEST(MetricsRegistry, QueryInstrumentsExistAfterOneRunAndSurviveReset) {
  const std::vector<std::string> kCounters = {
      "n2j_queries_total",
      "n2j_query_errors_total",
      "n2j_joins_nested_loop_total",
      "n2j_joins_hash_total",
      "n2j_joins_index_total",
      "n2j_joins_membership_total",
      "n2j_compiled_evals_total",
      "n2j_interp_fallback_evals_total",
  };
  const std::vector<std::string> kHistograms = {
      "n2j_query_ms", "n2j_rewrite_ms", "n2j_eval_ms"};
  std::unique_ptr<Database> db = testutil::SmallSupplierDb();
  QueryEngine engine(db.get());
  const char* q =
      "select s.sname from s in SUPPLIER where "
      "exists x in s.parts : exists p in PART : x.pid = p.pid";
  ASSERT_TRUE(engine.Run(q).ok());

  MetricsRegistry& reg = MetricsRegistry::Global();
  std::vector<std::string> counters, histograms;
  for (const auto& [name, value] : reg.CounterValues()) {
    counters.push_back(name);
  }
  for (const HistogramSnapshot& h : reg.HistogramValues()) {
    histograms.push_back(h.name);
  }
  for (const std::string& name : kCounters) {
    EXPECT_NE(std::find(counters.begin(), counters.end(), name),
              counters.end())
        << name;
  }
  for (const std::string& name : kHistograms) {
    EXPECT_NE(std::find(histograms.begin(), histograms.end(), name),
              histograms.end())
        << name;
  }

  reg.Reset();
  Result<QueryReport> r = engine.Run(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(engine.Run("select nonsense !!").ok());
  const EvalStats& s = r->exec_stats;
  EXPECT_EQ(reg.GetCounter("n2j_queries_total").value(), 2u);
  EXPECT_EQ(reg.GetCounter("n2j_query_errors_total").value(), 1u);
  EXPECT_EQ(reg.GetHistogram("n2j_query_ms").count(), 2u);
  EXPECT_EQ(reg.GetHistogram("n2j_rewrite_ms").count(), 1u);
  EXPECT_EQ(reg.GetHistogram("n2j_eval_ms").count(), 1u);
  EXPECT_EQ(reg.GetCounter("n2j_joins_nested_loop_total").value(),
            s.joins_nested_loop);
  EXPECT_EQ(reg.GetCounter("n2j_joins_hash_total").value(), s.joins_hash);
  EXPECT_EQ(reg.GetCounter("n2j_joins_index_total").value(), s.joins_index);
  EXPECT_EQ(reg.GetCounter("n2j_joins_membership_total").value(),
            s.joins_membership);
  EXPECT_EQ(reg.GetCounter("n2j_compiled_evals_total").value(),
            s.compiled_evals);
  EXPECT_EQ(reg.GetCounter("n2j_interp_fallback_evals_total").value(),
            s.interp_fallback_evals);
  EXPECT_GT(s.joins_membership + s.joins_hash, 0u) << s.Compact();
  EXPECT_GT(s.compiled_evals, 0u) << s.Compact();
}

}  // namespace
}  // namespace obs
}  // namespace n2j
