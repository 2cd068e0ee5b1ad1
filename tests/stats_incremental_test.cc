// Incremental extent maintenance: StatsCatalog folds only the rows
// appended since its last refresh, and Table::AsSetValue merges only the
// new rows into its memoized canonical set. Both must be exactly what a
// from-scratch computation yields. Random append sequences over plain
// tables (mixed scalar kinds, varying tuple shapes, empty sets, unary
// element tuples whose field name switches, non-tuple elements,
// duplicate rows) check
// every snapshot field for field against CollectExtentStats and every
// canonical set element for element against Value::Set(rows()).
//
// The canonical-set check runs only on rows whose fields appear in name
// order. Value::Compare orders two tuples of one shape by declaration
// order but tuples of different shapes by field name, so over rows whose
// shapes permute the same names it is not a strict weak order: there
// Value::Set(rows()) itself depends on std::sort's internals and is no
// oracle. The statistics fold does not depend on row order and is
// checked on permuted shapes too.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adl/type.h"
#include "adl/value.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "stats/stats.h"
#include "storage/database.h"

namespace n2j {
namespace {

Value RandomScalar(Rng* rng) {
  switch (rng->Uniform(0, 6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(rng->Uniform(-20, 20));
    case 3:
      // Integral doubles compare equal to the ints above.
      return rng->Bernoulli(0.5) ? Value::Double(rng->Uniform(-5, 5))
                                 : Value::Double(rng->NextDouble() * 10);
    case 4:
      return Value::String(rng->NextString(static_cast<int>(
          rng->Uniform(0, 2))));
    default:
      return Value::MakeOidValue(MakeOid(1, rng->Uniform(0, 40)));
  }
}

Value RandomSet(Rng* rng) {
  std::vector<Value> elems;
  int64_t n = rng->Bernoulli(0.2) ? 0 : rng->Uniform(1, 6);
  int64_t kind = rng->Uniform(0, 3);
  for (int64_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0:
        elems.push_back(Value::Tuple({Field("pid", RandomScalar(rng))}));
        break;
      case 1:
        // Same shape most of the time; the field name occasionally
        // switches, which must clear element_field for good.
        elems.push_back(Value::Tuple(
            {Field(rng->Bernoulli(0.9) ? "pid" : "sid", RandomScalar(rng))}));
        break;
      case 2:
        elems.push_back(RandomScalar(rng));
        break;
      default:
        elems.push_back(Value::Tuple({Field("x", RandomScalar(rng)),
                                      Field("y", RandomScalar(rng))}));
        break;
    }
  }
  return Value::Set(std::move(elems));
}

/// A row over a random subset of attributes, in name order or (when
/// `permute`) rotated; "s" and "t" are set-valued most of the time.
Value RandomRow(Rng* rng, bool permute = false) {
  static const char* kNames[] = {"a", "b", "c", "s", "t"};
  std::vector<Field> fields;
  int64_t start = permute ? rng->Uniform(0, 4) : 0;
  for (int i = 0; i < 5; ++i) {
    const char* name = kNames[(start + i) % 5];
    if (rng->Bernoulli(0.25)) continue;
    bool set_attr = name[0] == 's' || name[0] == 't';
    if (set_attr && rng->Bernoulli(0.9)) {
      fields.emplace_back(name, RandomSet(rng));
    } else if (name[0] == 'c' && rng->Bernoulli(0.1)) {
      fields.emplace_back(name, Value::Tuple({Field("n", RandomScalar(rng))}));
    } else {
      fields.emplace_back(name, RandomScalar(rng));
    }
  }
  return Value::Tuple(std::move(fields));
}

void ExpectSameValue(const Value& a, const Value& b, const std::string& what) {
  EXPECT_EQ(a.kind(), b.kind()) << what;
  EXPECT_TRUE(a == b) << what << ": " << a.ToString() << " vs "
                      << b.ToString();
  EXPECT_EQ(a.ToString(), b.ToString()) << what;
}

void ExpectSameStats(const ExtentStats& got, const ExtentStats& want) {
  EXPECT_EQ(got.table, want.table);
  EXPECT_EQ(got.row_count, want.row_count);
  EXPECT_EQ(got.version, want.version);
  ASSERT_EQ(got.attrs.size(), want.attrs.size());
  for (const auto& [name, w] : want.attrs) {
    const AttrStats* g = got.Find(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->name, w.name);
    EXPECT_EQ(g->scalar, w.scalar) << name;
    EXPECT_EQ(g->distinct, w.distinct) << name;
    ExpectSameValue(g->min, w.min, name + ".min");
    ExpectSameValue(g->max, w.max, name + ".max");
    EXPECT_EQ(g->set_valued, w.set_valued) << name;
    EXPECT_EQ(g->avg_fanout, w.avg_fanout) << name;
    EXPECT_EQ(g->max_fanout, w.max_fanout) << name;
    EXPECT_EQ(g->empty_fraction, w.empty_fraction) << name;
    for (int b = 0; b < kFanoutBuckets; ++b) {
      EXPECT_EQ(g->fanout_hist[b], w.fanout_hist[b]) << name << " bucket " << b;
    }
    EXPECT_EQ(g->element_count, w.element_count) << name;
    EXPECT_EQ(g->element_distinct, w.element_distinct) << name;
    ExpectSameValue(g->element_min, w.element_min, name + ".element_min");
    ExpectSameValue(g->element_max, w.element_max, name + ".element_max");
    EXPECT_EQ(g->element_field, w.element_field) << name;
    EXPECT_EQ(g->rows_seen, w.rows_seen) << name;
  }
  EXPECT_EQ(got.ToString(), want.ToString());
}

void ExpectCanonicalSet(const Table& t) {
  Value got = t.AsSetValue();
  Value want = Value::Set(t.rows());
  ASSERT_TRUE(got.is_set());
  ASSERT_EQ(got.set_size(), want.set_size());
  for (size_t i = 0; i < want.set_size(); ++i) {
    ASSERT_TRUE(got.elements()[i] == want.elements()[i])
        << "element " << i << ": " << got.elements()[i].ToString() << " vs "
        << want.elements()[i].ToString();
  }
}

std::unique_ptr<Database> NewDb() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable("T", Type::Tuple({{"a", Type::Int()}})).ok());
  return db;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

TEST(StatsIncremental, RandomAppendSequencesMatchFullCollection) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const bool permute = seed % 3 == 0;
    std::unique_ptr<Database> db = NewDb();
    const Table& t = *db->FindTable("T");
    int64_t rounds = rng.Uniform(20, 120);
    for (int64_t r = 0; r < rounds; ++r) {
      // Mostly single appends (the write-mix pattern); sometimes a batch,
      // sometimes a read of an unchanged extent.
      int64_t batch = rng.Bernoulli(0.7) ? 1 : rng.Uniform(0, 6);
      for (int64_t i = 0; i < batch; ++i) {
        // Now and then a duplicate of an earlier row, which the canonical
        // set must absorb.
        Value row = !t.rows().empty() && rng.Bernoulli(0.15)
                        ? t.rows()[static_cast<size_t>(rng.Uniform(
                              0, static_cast<int64_t>(t.size()) - 1))]
                        : RandomRow(&rng, permute);
        ASSERT_TRUE(db->Insert("T", std::move(row)).ok());
      }
      std::shared_ptr<const ExtentStats> got = db->stats().Get(*db, "T");
      ASSERT_NE(got, nullptr);
      ExpectSameStats(*got, CollectExtentStats(t));
      if (!permute && rng.Bernoulli(0.8)) ExpectCanonicalSet(t);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
    if (!permute) ExpectCanonicalSet(t);
  }
}

TEST(StatsIncremental, HeldSnapshotUnchangedAcrossFolds) {
  Rng rng(7);
  std::unique_ptr<Database> db = NewDb();
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(db->Insert("T", RandomRow(&rng)).ok());
  std::shared_ptr<const ExtentStats> held = db->stats().Get(*db, "T");
  const std::string before = held->ToString();
  const ExtentStats copy = *held;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db->Insert("T", RandomRow(&rng)).ok());
    std::shared_ptr<const ExtentStats> fresh = db->stats().Get(*db, "T");
    EXPECT_NE(fresh.get(), held.get());
  }
  EXPECT_EQ(held->ToString(), before);
  ExpectSameStats(*held, copy);
  EXPECT_EQ(held->row_count, 30u);
}

TEST(StatsIncremental, HeldCanonicalSetUnchangedAcrossMerges) {
  // A query holding the canonical set while rows are appended keeps its
  // set; the merge copies instead of reusing the shared vector.
  Rng rng(11);
  std::unique_ptr<Database> db = NewDb();
  const Table& t = *db->FindTable("T");
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(db->Insert("T", RandomRow(&rng)).ok());
  Value held = t.AsSetValue();
  const Value copy = Value::Set(t.rows());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Insert("T", RandomRow(&rng)).ok());
    ExpectCanonicalSet(t);
  }
  ASSERT_EQ(held.set_size(), copy.set_size());
  for (size_t i = 0; i < copy.set_size(); ++i) {
    EXPECT_TRUE(held.elements()[i] == copy.elements()[i]) << i;
  }
}

TEST(StatsIncremental, AnalyzeAndClearResetFoldState) {
  Rng rng(3);
  std::unique_ptr<Database> db = NewDb();
  const Table& t = *db->FindTable("T");
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(db->Insert("T", RandomRow(&rng)).ok());
  const uint64_t scans0 = CounterValue("n2j_stats_full_scans_total");
  std::shared_ptr<const ExtentStats> first = db->stats().Get(*db, "T");
  EXPECT_EQ(CounterValue("n2j_stats_full_scans_total"), scans0 + 1);

  // Analyze re-folds from row 0 and publishes a new, equal snapshot even
  // though the extent did not change.
  db->stats().Analyze(*db);
  EXPECT_EQ(CounterValue("n2j_stats_full_scans_total"), scans0 + 2);
  std::shared_ptr<const ExtentStats> analyzed = db->stats().Peek("T");
  ASSERT_NE(analyzed, nullptr);
  EXPECT_NE(analyzed.get(), first.get());
  ExpectSameStats(*analyzed, CollectExtentStats(t));
  EXPECT_EQ(db->stats().Get(*db, "T").get(), analyzed.get());

  // After Analyze the kept state is incremental again.
  const uint64_t folded0 = CounterValue("n2j_stats_rows_folded_total");
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(db->Insert("T", RandomRow(&rng)).ok());
  ExpectSameStats(*db->stats().Get(*db, "T"), CollectExtentStats(t));
  EXPECT_EQ(CounterValue("n2j_stats_rows_folded_total"), folded0 + 5);
  EXPECT_EQ(CounterValue("n2j_stats_full_scans_total"), scans0 + 2);

  // Clear drops snapshot and fold state: the next Get is a full scan.
  db->stats().Clear();
  EXPECT_EQ(db->stats().Peek("T"), nullptr);
  ExpectSameStats(*db->stats().Get(*db, "T"), CollectExtentStats(t));
  EXPECT_EQ(CounterValue("n2j_stats_full_scans_total"), scans0 + 3);
}

TEST(StatsIncremental, ChangedTableIdentityRefoldsFromScratch) {
  // One catalog consulted with two databases' same-named tables: the
  // second table is a different extent, even though it has more rows
  // than were folded, so its stats must not build on the first's state.
  Rng rng(5);
  std::unique_ptr<Database> db1 = NewDb();
  std::unique_ptr<Database> db2 = NewDb();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(db1->Insert("T", RandomRow(&rng)).ok());
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(db2->Insert("T", RandomRow(&rng)).ok());
  StatsCatalog catalog;
  ExpectSameStats(*catalog.Get(*db1, "T"),
                  CollectExtentStats(*db1->FindTable("T")));
  ExpectSameStats(*catalog.Get(*db2, "T"),
                  CollectExtentStats(*db2->FindTable("T")));
  ExpectSameStats(*catalog.Get(*db1, "T"),
                  CollectExtentStats(*db1->FindTable("T")));
}

TEST(StatsIncremental, ScalarRangeIgnoresRowOrder) {
  // A column whose first value is not rangeable (null, bool) must not
  // pin min to that value: the range covers the rangeable values only,
  // whatever the row order.
  const std::vector<std::vector<Value>> orders = {
      {Value::Null(), Value::Int(3), Value::Int(7)},
      {Value::Int(3), Value::Int(7), Value::Null()},
      {Value::Int(7), Value::Null(), Value::Int(3)},
      {Value::Bool(true), Value::Int(7), Value::Int(3)},
      {Value::Int(7), Value::Int(3), Value::Bool(true)},
  };
  std::vector<ExtentStats> stats;
  for (const std::vector<Value>& order : orders) {
    Database db;
    ASSERT_TRUE(db.CreateTable("T", Type::Tuple({{"a", Type::Int()}})).ok());
    for (const Value& v : order) {
      ASSERT_TRUE(db.Insert("T", Value::Tuple({Field("a", v)})).ok());
    }
    stats.push_back(CollectExtentStats(*db.FindTable("T")));
  }
  for (const ExtentStats& s : stats) {
    const AttrStats* a = s.Find("a");
    ASSERT_NE(a, nullptr);
    ExpectSameValue(a->min, Value::Int(3), "min");
    ExpectSameValue(a->max, Value::Int(7), "max");
    EXPECT_EQ(a->distinct, 3u);
  }
  // Equal AttrStats across orders (the two null orders and the two bool
  // orders hold the same multiset of values).
  ExpectSameStats(stats[1], stats[0]);
  ExpectSameStats(stats[2], stats[0]);
  ExpectSameStats(stats[4], stats[3]);
}

}  // namespace
}  // namespace n2j
