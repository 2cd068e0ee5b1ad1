#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "core/engine.h"
#include "storage/datagen.h"
#include "storage/database.h"
#include "storage/object_store.h"

namespace n2j {
namespace {

TEST(ObjectStoreTest, PutGetRoundTrip) {
  ObjectStore store(4, 2);
  Oid a = MakeOid(1, 0);
  ASSERT_TRUE(store.Put(a, Value::Int(10)).ok());
  ASSERT_TRUE(store.Put(MakeOid(1, 1), Value::Int(11)).ok());
  Result<Value> v = store.Get(a);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(10));
  EXPECT_TRUE(store.Contains(a));
  EXPECT_FALSE(store.Contains(MakeOid(1, 9)));
  EXPECT_FALSE(store.Get(MakeOid(2, 0)).ok());
}

TEST(ObjectStoreTest, DenseAllocationEnforced) {
  ObjectStore store;
  EXPECT_FALSE(store.Put(MakeOid(1, 5), Value::Int(1)).ok());
  EXPECT_TRUE(store.Put(MakeOid(1, 0), Value::Int(1)).ok());
  EXPECT_FALSE(store.Put(MakeOid(1, 0), Value::Int(1)).ok());
}

TEST(ObjectStoreTest, PageCacheCountsHitsAndMisses) {
  ObjectStore store(/*page_size=*/2, /*cache_pages=*/1);
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Put(MakeOid(1, i), Value::Int(int64_t(i))).ok());
  }
  store.ResetStats();
  // Sequential scan: 6 derefs touch 3 pages; first touch of each page is
  // a miss, the second a hit.
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Get(MakeOid(1, i)).ok());
  }
  EXPECT_EQ(store.stats().gets, 6u);
  EXPECT_EQ(store.stats().page_misses, 3u);
  EXPECT_EQ(store.stats().page_hits, 3u);

  store.ResetStats();
  // Ping-pong across pages with a single cache page: all misses.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(store.Get(MakeOid(1, 0)).ok());
    ASSERT_TRUE(store.Get(MakeOid(1, 4)).ok());
  }
  EXPECT_EQ(store.stats().page_misses, 6u);
}

TEST(ObjectStoreTest, HostileOidsDangle) {
  ObjectStore store(4, 2);
  ASSERT_TRUE(store.Put(MakeOid(2, 0), Value::Int(1)).ok());
  // Unknown classes (below, between and far above the stored one) and a
  // sequence number past the extent all dangle without touching the
  // page model.
  for (Oid oid : {MakeOid(0, 0), MakeOid(1, 0), MakeOid(3, 0),
                  MakeOid(0xffff, 0xffffffffffffULL), MakeOid(2, 1)}) {
    EXPECT_EQ(store.Find(oid), nullptr);
    Result<Value> v = store.Get(oid);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(store.Get(MakeOid(3, 7)).status().message(), "dangling oid @3.7");
  EXPECT_EQ(store.stats().gets, 0u);
  const Value* obj = store.Find(MakeOid(2, 0));
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(*obj, Value::Int(1));
  EXPECT_EQ(store.stats().gets, 1u);
}

/// The page model as a std::list LRU with eviction after insertion —
/// the store's original implementation, kept as the reference.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint32_t cache_pages) : cache_pages_(cache_pages) {}

  void set_cache_pages(uint32_t n) { cache_pages_ = n; }
  void Reset() {
    stats = StoreStats();
    lru_.clear();
  }
  void Touch(uint64_t page) {
    ++stats.gets;
    auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it != lru_.end()) {
      ++stats.page_hits;
      lru_.splice(lru_.begin(), lru_, it);
      return;
    }
    ++stats.page_misses;
    lru_.push_front(page);
    while (lru_.size() > cache_pages_) lru_.pop_back();
  }

  StoreStats stats;

 private:
  uint32_t cache_pages_;
  std::list<uint64_t> lru_;  // front = most recent
};

TEST(ObjectStoreTest, LruMatchesReferenceModel) {
  const uint32_t kCapacities[] = {0, 1, 2, 16, 1000};
  Rng rng(20260419);
  for (uint32_t page_size : {1u, 2u, 3u, 7u, 16u, 64u}) {
    for (uint32_t cap : kCapacities) {
      // Three classes of different extents; class 2 is left empty so
      // its oids dangle.
      const uint64_t sizes[] = {0, 90, 0, 37};
      ObjectStore store(page_size, cap);
      for (uint16_t cls = 1; cls <= 3; ++cls) {
        for (uint64_t seq = 0; seq < sizes[cls]; ++seq) {
          ASSERT_TRUE(
              store.Put(MakeOid(cls, seq), Value::Int(int64_t(seq))).ok());
        }
      }
      ReferenceLru ref(cap);
      uint64_t cursor = 0;
      for (int step = 0; step < 3000; ++step) {
        SCOPED_TRACE(testing::Message() << "page_size=" << page_size
                                        << " cap=" << cap
                                        << " step=" << step);
        int64_t roll = rng.Uniform(0, 99);
        if (roll == 0) {
          // Grow or shrink mid-sequence; a shrink evicts at the next miss.
          uint32_t n = kCapacities[rng.Uniform(0, 4)];
          store.set_cache_pages(n);
          ref.set_cache_pages(n);
        } else if (roll == 1) {
          store.ResetStats();
          ref.Reset();
        } else {
          uint16_t cls = static_cast<uint16_t>(rng.Uniform(1, 3));
          // Half sequential (page locality), half uniform; a few past
          // the extent.
          uint64_t seq = roll < 50
                             ? cursor++ % (sizes[cls] + 1)
                             : static_cast<uint64_t>(rng.Uniform(
                                   0, static_cast<int64_t>(sizes[cls]) + 2));
          const Value* obj = store.Find(MakeOid(cls, seq));
          if (seq < sizes[cls]) {
            ASSERT_NE(obj, nullptr);
            EXPECT_EQ(*obj, Value::Int(int64_t(seq)));
            ref.Touch((uint64_t{cls} << 32) | (seq / page_size));
          } else {
            EXPECT_EQ(obj, nullptr);
          }
        }
        ASSERT_EQ(store.stats().gets, ref.stats.gets);
        ASSERT_EQ(store.stats().page_hits, ref.stats.page_hits);
        ASSERT_EQ(store.stats().page_misses, ref.stats.page_misses);
      }
    }
  }
}

// Q2 and Q3.2 (the paper's path-expression queries, which dereference
// per row) under 1 and 4 threads: the results and the deref counts
// agree, and every store get is a page hit or a page miss — the
// interleaving may move hits to misses, never lose or add a get.
TEST(DerefParityTest, ParallelWorkersDerefLikeSerial) {
  SupplierPartConfig config;
  config.seed = 1;
  config.num_parts = 800;
  config.num_suppliers = 200;
  config.parts_per_supplier = 8;
  config.red_fraction = 0.2;
  config.match_fraction = 0.92;
  config.num_deliveries = 400;
  auto db = MakeSupplierPartDatabase(config);
  const char* queries[] = {
      "select d from d in (select e from e in DELIVERY "
      "where e.supplier.sname = \"s1\") where d.date > 940600",
      "select d from d in DELIVERY where "
      "exists x in d.supply : x.part.color = \"red\"",
  };
  for (const char* q : queries) {
    Value results[2];
    EvalStats stats[2];
    StoreStats store[2];
    const int threads[] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      EvalOptions opts;
      opts.num_threads = threads[i];
      QueryEngine engine(db.get(), RewriteOptions(), opts);
      db->store().ResetStats();
      Result<QueryReport> r = engine.Run(q);
      ASSERT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
      results[i] = r->result;
      stats[i] = r->exec_stats;
      store[i] = db->store().stats();
    }
    EXPECT_EQ(results[0], results[1]) << q;
    EXPECT_GT(stats[0].derefs, 0u) << q;
    EXPECT_EQ(stats[0].derefs, stats[1].derefs) << q;
    EXPECT_EQ(store[0].gets, store[1].gets) << q;
    for (const StoreStats& s : store) {
      EXPECT_EQ(s.page_hits + s.page_misses, s.gets) << q;
    }
  }
}

TEST(DatabaseTest, NewObjectAddsOidFieldAndExtentRow) {
  Database db(MakeSupplierPartSchema());
  Result<Oid> oid = db.NewObject(
      "Part", Value::Tuple({Field("pname", Value::String("bolt")),
                            Field("price", Value::Int(5)),
                            Field("color", Value::String("red"))}));
  ASSERT_TRUE(oid.ok());
  const Table* t = db.FindTable("PART");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->rows()[0].FindField("pid")->oid_value(), *oid);
  Result<Value> obj = db.Deref(*oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->FindField("pname")->string_value(), "bolt");
}

TEST(DatabaseTest, PlainTables) {
  Database db;
  ASSERT_TRUE(db.CreateTable("T", Type::Tuple({{"a", Type::Int()}})).ok());
  EXPECT_FALSE(db.CreateTable("T", Type::Tuple({{"a", Type::Int()}})).ok());
  EXPECT_TRUE(
      db.Insert("T", Value::Tuple({Field("a", Value::Int(1))})).ok());
  EXPECT_FALSE(db.Insert("NOPE", Value::Int(1)).ok());
  EXPECT_FALSE(db.Insert("T", Value::Int(1)).ok());
  EXPECT_EQ(db.FindTable("T")->size(), 1u);
}

TEST(DatagenTest, SupplierPartRespectsConfig) {
  SupplierPartConfig config;
  config.num_parts = 30;
  config.num_suppliers = 10;
  config.parts_per_supplier = 4;
  config.num_deliveries = 5;
  auto db = MakeSupplierPartDatabase(config);
  EXPECT_EQ(db->FindTable("PART")->size(), 30u);
  EXPECT_EQ(db->FindTable("SUPPLIER")->size(), 10u);
  EXPECT_EQ(db->FindTable("DELIVERY")->size(), 5u);
  for (const Value& s : db->FindTable("SUPPLIER")->rows()) {
    EXPECT_LE(s.FindField("parts")->set_size(), 4u);
  }
}

TEST(DatagenTest, MatchFractionControlsDanglingRefs) {
  SupplierPartConfig config;
  config.num_parts = 50;
  config.num_suppliers = 40;
  config.parts_per_supplier = 10;
  config.match_fraction = 1.0;
  auto db = MakeSupplierPartDatabase(config);
  for (const Value& s : db->FindTable("SUPPLIER")->rows()) {
    for (const Value& ref : s.FindField("parts")->elements()) {
      EXPECT_TRUE(db->store().Contains(ref.FindField("pid")->oid_value()));
    }
  }
  config.match_fraction = 0.0;
  auto db2 = MakeSupplierPartDatabase(config);
  size_t dangling = 0;
  for (const Value& s : db2->FindTable("SUPPLIER")->rows()) {
    for (const Value& ref : s.FindField("parts")->elements()) {
      if (!db2->store().Contains(ref.FindField("pid")->oid_value())) {
        ++dangling;
      }
    }
  }
  EXPECT_GT(dangling, 0u);
}

TEST(DatagenTest, DeterministicUnderSeed) {
  SupplierPartConfig config;
  config.seed = 123;
  auto a = MakeSupplierPartDatabase(config);
  auto b = MakeSupplierPartDatabase(config);
  EXPECT_EQ(a->FindTable("SUPPLIER")->AsSetValue(),
            b->FindTable("SUPPLIER")->AsSetValue());
}

TEST(DatagenTest, Figure2DataMatchesPaper) {
  auto db = MakeFigure2Database();
  const Table* x = db->FindTable("X");
  ASSERT_EQ(x->size(), 3u);
  // The dangling tuple (a=2, c=∅).
  bool found_empty = false;
  for (const Value& row : x->rows()) {
    if (row.FindField("a")->int_value() == 2) {
      EXPECT_EQ(row.FindField("c")->set_size(), 0u);
      found_empty = true;
    }
  }
  EXPECT_TRUE(found_empty);
  EXPECT_EQ(db->FindTable("Y")->size(), 4u);
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(9), b(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Uniform(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    int64_t z = r.Zipf(100, 0.9);
    EXPECT_GE(z, 0);
    EXPECT_LT(z, 100);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace n2j
