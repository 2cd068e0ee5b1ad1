#ifndef N2J_EXEC_JOIN_TABLE_H_
#define N2J_EXEC_JOIN_TABLE_H_

#include <cstdint>
#include <vector>

#include "adl/value.h"
#include "common/status.h"

namespace n2j {

/// The build side of every hash join in the nested executor (hash,
/// membership and PNHL joins, serial and partitioned): an
/// open-addressing table over Value keys mapping each distinct key to
/// the build rows that produced it.
///
/// Three flat arrays, no per-key or per-row allocation:
///
///   * `slots_` — power-of-two, linear-probed, holds key ids (kEnd =
///     empty); kept at most half full;
///   * `keys_`  — one entry per distinct key, in first-insert order:
///     the key, its memoized hash (compared before the key, and reused
///     when the table grows) and the head and tail of its row chain;
///   * `rows_`  — one entry per insert: the row id and the next entry of
///     the same key, so each chain lists its rows in insertion order.
///
/// Keys meet under Value equality (so 1 and 1.0 are one key) and
/// Value::Hash, which is consistent with it. A table is built by one
/// thread and may then be probed by many.
class JoinTable {
  struct RowEntry {
    uint32_t row;
    uint32_t next;  // next entry of the same key, kEnd at the tail
  };

 public:
  static constexpr uint32_t kEnd = 0xffffffffu;

  /// A table sized for `expected_rows` inserts of distinct keys without
  /// growing.
  explicit JoinTable(size_t expected_rows = 0) {
    size_t cap = 16;
    while (cap < 2 * expected_rows) cap <<= 1;
    slots_.assign(cap, kEnd);
    keys_.reserve(expected_rows);
    rows_.reserve(expected_rows);
  }

  /// Appends `row` to the chain of `key`; `hash` is key.Hash().
  void Insert(Value key, uint64_t hash, uint32_t row) {
    N2J_CHECK(rows_.size() < kEnd);
    const uint32_t entry = static_cast<uint32_t>(rows_.size());
    rows_.push_back({row, kEnd});
    size_t slot = SlotOf(key, hash);
    if (slots_[slot] == kEnd) {
      slots_[slot] = static_cast<uint32_t>(keys_.size());
      keys_.push_back({std::move(key), hash, entry, entry});
      if (2 * keys_.size() > slots_.size()) Grow();
      return;
    }
    KeyEntry& k = keys_[slots_[slot]];
    rows_[k.tail].next = entry;
    k.tail = entry;
  }
  void Insert(Value key, uint32_t row) {
    const uint64_t hash = key.Hash();
    Insert(std::move(key), hash, row);
  }

  /// The rows of one key, in insertion order; empty when the key is
  /// absent.
  class Chain {
   public:
    class Iterator {
     public:
      uint32_t operator*() const { return (*rows_)[entry_].row; }
      Iterator& operator++() {
        entry_ = (*rows_)[entry_].next;
        return *this;
      }
      bool operator!=(const Iterator& other) const {
        return entry_ != other.entry_;
      }

     private:
      friend class Chain;
      Iterator(const std::vector<RowEntry>* rows, uint32_t entry)
          : rows_(rows), entry_(entry) {}
      const std::vector<RowEntry>* rows_;
      uint32_t entry_;
    };

    Iterator begin() const { return Iterator(rows_, head_); }
    Iterator end() const { return Iterator(rows_, kEnd); }
    bool empty() const { return head_ == kEnd; }
    /// Dense id of the key in [0, num_keys()), or kEnd when absent. Two
    /// probes reach the same rows exactly when they reach the same id.
    uint32_t key_id() const { return key_id_; }

   private:
    friend class JoinTable;
    Chain(const std::vector<RowEntry>* rows, uint32_t key_id, uint32_t head)
        : rows_(rows), key_id_(key_id), head_(head) {}
    const std::vector<RowEntry>* rows_;
    uint32_t key_id_;
    uint32_t head_;
  };

  Chain Find(const Value& key, uint64_t hash) const {
    const uint32_t id = slots_[SlotOf(key, hash)];
    return Chain(&rows_, id, id == kEnd ? kEnd : keys_[id].head);
  }
  Chain Find(const Value& key) const { return Find(key, key.Hash()); }

  size_t num_keys() const { return keys_.size(); }
  size_t num_rows() const { return rows_.size(); }

 private:
  struct KeyEntry {
    Value key;
    uint64_t hash;
    uint32_t head;
    uint32_t tail;
  };

  // splitmix64 finalizer: Value::Hash of small ints is FNV-1a, whose low
  // bits alone index a power-of-two table poorly.
  static uint64_t Mix(uint64_t h) {
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

  /// The slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(const Value& key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t slot = Mix(hash) & mask;
    for (;;) {
      const uint32_t id = slots_[slot];
      if (id == kEnd) return slot;
      const KeyEntry& k = keys_[id];
      if (k.hash == hash && k.key == key) return slot;
      slot = (slot + 1) & mask;
    }
  }

  /// Doubles the slot array and re-places every key by its memoized
  /// hash; chains are untouched.
  void Grow() {
    slots_.assign(2 * slots_.size(), kEnd);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      size_t slot = Mix(keys_[id].hash) & mask;
      while (slots_[slot] != kEnd) slot = (slot + 1) & mask;
      slots_[slot] = id;
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<KeyEntry> keys_;
  std::vector<RowEntry> rows_;
};

}  // namespace n2j

#endif  // N2J_EXEC_JOIN_TABLE_H_
