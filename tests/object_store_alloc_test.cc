// The object store's page model allocates nothing once every page has
// been seen: this binary replaces the global operator new/delete (the
// array forms forward to them) with counting versions and dereferences through a warm store.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "storage/datagen.h"
#include "storage/object_store.h"

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

// GCC cannot tell that these replacements pair malloc with free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace n2j {
namespace {

TEST(ObjectStoreAllocTest, WarmDerefsAllocateNothing) {
  // 3 classes × 40 pages of 8 objects; the cache holds a quarter of the
  // pages, so the random derefs below keep evicting and refaulting.
  const uint32_t kPageSize = 8;
  const uint64_t kPerClass = 320;
  for (uint32_t cap : {0u, 1u, 30u, 1000u}) {
    ObjectStore store(kPageSize, cap);
    for (uint16_t cls = 1; cls <= 3; ++cls) {
      for (uint64_t seq = 0; seq < kPerClass; ++seq) {
        ASSERT_TRUE(store
                        .Put(MakeOid(cls, seq),
                             Value::Tuple({Field("n", Value::Int(1))}))
                        .ok());
      }
    }
    Rng rng(cap + 1);
    std::vector<Oid> oids;
    oids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      oids.push_back(
          MakeOid(static_cast<uint16_t>(rng.Uniform(1, 3)),
                  static_cast<uint64_t>(
                      rng.Uniform(0, static_cast<int64_t>(kPerClass) - 1))));
    }
    // See every page once.
    for (uint16_t cls = 1; cls <= 3; ++cls) {
      for (uint64_t seq = 0; seq < kPerClass; seq += kPageSize) {
        ASSERT_NE(store.Find(MakeOid(cls, seq)), nullptr);
      }
    }

    uint64_t before = g_news.load();
    int64_t sum = 0;
    for (Oid oid : oids) {
      const Value* obj = store.Find(oid);
      if (obj != nullptr) sum += obj->field_value(0).int_value();
    }
    // ResetStats empties the cache but keeps its slot capacity.
    store.ResetStats();
    for (Oid oid : oids) sum += store.Find(oid) != nullptr ? 1 : 0;
    uint64_t allocations = g_news.load() - before;

    EXPECT_EQ(allocations, 0u) << "cache_pages=" << cap;
    EXPECT_EQ(sum, 20000);
    EXPECT_EQ(store.stats().gets, 10000u);
    EXPECT_EQ(store.stats().page_hits + store.stats().page_misses, 10000u);
  }
}

}  // namespace
}  // namespace n2j
