#ifndef N2J_STORAGE_OBJECT_STORE_H_
#define N2J_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "adl/value.h"
#include "common/result.h"
#include "common/status.h"

namespace n2j {

/// Counters for the paged object-store cost model. The materialize /
/// assembly benchmarks read these to show why oid-sorted (assembly-style)
/// dereferencing beats naive pointer chasing (Section 6.2, [BlMG93]).
struct StoreStats {
  uint64_t gets = 0;         // object dereferences
  uint64_t page_hits = 0;    // deref served from the page cache
  uint64_t page_misses = 0;  // deref that "faulted" a page in

  void Reset() { *this = StoreStats(); }
};

/// Maps oids to objects. Objects of each class are laid out in oid order
/// on fixed-size "pages"; a small LRU page cache models the buffer pool.
/// This gives pointer dereferencing a realistic locality profile without
/// a disk: random pointer chasing thrashes the cache, oid-sorted batched
/// dereferencing (the assembly strategy) streams through it.
///
/// The LRU lives on flat arrays: each class keeps a page → cache-slot
/// index next to its objects, and the cached pages form an intrusive
/// doubly-linked list over a slot array with a free list. Once every
/// page has been touched a dereference allocates nothing.
class ObjectStore {
 public:
  /// page_size = objects per page; cache_pages = LRU capacity.
  explicit ObjectStore(uint32_t page_size = 64, uint32_t cache_pages = 16)
      : page_size_(page_size), cache_pages_(cache_pages) {}

  /// Registers an object under `oid`. Objects must be Put in increasing
  /// seq order per class (the Database allocator guarantees this).
  Status Put(Oid oid, Value object);

  /// Dereferences an oid, updating the cost-model counters. Returns the
  /// stored object, borrowed: it stays valid until the next Put (queries
  /// never Put). nullptr means the oid dangles; DanglingOid(oid) is the
  /// error to report.
  const Value* Find(Oid oid) const;

  /// Find that copies the object out, or the dangling-oid error.
  Result<Value> Get(Oid oid) const;

  /// NotFound("dangling oid @cls.seq").
  static Status DanglingOid(Oid oid);

  /// True if the oid maps to an object.
  bool Contains(Oid oid) const { return Lookup(oid) != nullptr; }

  size_t size() const { return count_; }

  const StoreStats& stats() const { return stats_; }
  void ResetStats() const;

  uint32_t page_size() const { return page_size_; }
  /// Takes effect at the next page miss, which evicts down to `n`.
  void set_cache_pages(uint32_t n) { cache_pages_ = n; }

 private:
  static constexpr int32_t kNone = -1;

  struct ClassObjects {
    std::vector<Value> objects;              // indexed by seq (dense)
    mutable std::vector<int32_t> page_slot;  // page → slot, or kNone
  };
  /// A cached page: list links (front = most recent) and its owner.
  struct Slot {
    int32_t prev = kNone;
    int32_t next = kNone;
    uint16_t cls = 0;
    uint64_t page = 0;
  };

  /// The object under `oid`, without touching the page model.
  const Value* Lookup(Oid oid) const {
    uint16_t cls = OidClassId(oid);
    uint64_t seq = OidSeq(oid);
    if (cls >= classes_.size() || seq >= classes_[cls].objects.size()) {
      return nullptr;
    }
    return &classes_[cls].objects[seq];
  }

  void TouchPage(uint16_t cls, uint64_t page) const;
  void Unlink(int32_t s) const;
  void PushFront(int32_t s) const;

  uint32_t page_size_;
  uint32_t cache_pages_;
  // Indexed by class id (schema ids are dense from 1).
  std::vector<ClassObjects> classes_;
  size_t count_ = 0;

  // Page-cache cost model (mutable: Find() is logically const; the mutex
  // makes concurrent dereferences from parallel workers safe — page
  // hit/miss counts then depend on interleaving, but their sum does not).
  // The mutex guards stats_, slots_, the list heads and every page_slot
  // entry; objects and the page_slot sizes change only in Put.
  mutable std::mutex mu_;
  mutable StoreStats stats_;
  mutable std::vector<Slot> slots_;
  mutable int32_t head_ = kNone;  // most recently used
  mutable int32_t tail_ = kNone;  // least recently used
  mutable int32_t free_ = kNone;  // free slots, linked through next
  mutable uint32_t cached_ = 0;   // pages in the list
};

}  // namespace n2j

#endif  // N2J_STORAGE_OBJECT_STORE_H_
