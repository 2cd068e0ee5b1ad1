// Metrics registry semantics (ISSUE 10 satellites): the nanosecond sum
// accumulator (sub-microsecond observations must not truncate to zero),
// Reset-then-Observe exact deltas for sequential callers, and the
// deterministic merged render order `\metrics` depends on. Also pins
// the statistics-fold counters that show whether a StatsCatalog refresh
// rescanned the extent or folded in only the appended rows.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adl/type.h"
#include "adl/value.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "stats/stats.h"
#include "storage/database.h"

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

}  // namespace
}  // namespace obs
}  // namespace n2j
