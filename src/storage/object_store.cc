#include "storage/object_store.h"

#include "common/str_util.h"

namespace n2j {

Status ObjectStore::Put(Oid oid, Value object) {
  uint16_t cls = OidClassId(oid);
  uint64_t seq = OidSeq(oid);
  if (cls >= classes_.size()) classes_.resize(size_t{cls} + 1);
  ClassObjects& c = classes_[cls];
  if (seq != c.objects.size()) {
    return Status::InvalidArgument(
        StrFormat("oids must be allocated densely: class %u expects seq "
                  "%llu, got %llu",
                  cls, static_cast<unsigned long long>(c.objects.size()),
                  static_cast<unsigned long long>(seq)));
  }
  if (seq % page_size_ == 0) c.page_slot.push_back(kNone);
  c.objects.push_back(std::move(object));
  ++count_;
  return Status::OK();
}

const Value* ObjectStore::Find(Oid oid) const {
  const Value* obj = Lookup(oid);
  if (obj == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.gets;
  TouchPage(OidClassId(oid), OidSeq(oid) / page_size_);
  return obj;
}

Result<Value> ObjectStore::Get(Oid oid) const {
  const Value* obj = Find(oid);
  if (obj == nullptr) return DanglingOid(oid);
  return *obj;
}

Status ObjectStore::DanglingOid(Oid oid) {
  return Status::NotFound(
      StrFormat("dangling oid @%u.%llu", OidClassId(oid),
                static_cast<unsigned long long>(OidSeq(oid))));
}

void ObjectStore::ResetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Reset();
  for (int32_t s = head_; s != kNone; s = slots_[s].next) {
    classes_[slots_[s].cls].page_slot[slots_[s].page] = kNone;
  }
  slots_.clear();  // keeps its capacity
  head_ = tail_ = free_ = kNone;
  cached_ = 0;
}

void ObjectStore::Unlink(int32_t s) const {
  Slot& n = slots_[s];
  if (n.prev != kNone) {
    slots_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNone) {
    slots_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void ObjectStore::PushFront(int32_t s) const {
  Slot& n = slots_[s];
  n.prev = kNone;
  n.next = head_;
  if (head_ != kNone) {
    slots_[head_].prev = s;
  } else {
    tail_ = s;
  }
  head_ = s;
}

void ObjectStore::TouchPage(uint16_t cls, uint64_t page) const {
  int32_t& at = classes_[cls].page_slot[page];
  if (at != kNone) {
    ++stats_.page_hits;
    if (at != head_) {
      Unlink(at);
      PushFront(at);
    }
    return;
  }
  ++stats_.page_misses;
  // Evict from the cold end until the new page fits — all of the list
  // when the capacity is 0, several pages after a shrink.
  while (cached_ > 0 && cached_ >= cache_pages_) {
    int32_t victim = tail_;
    Unlink(victim);
    Slot& v = slots_[victim];
    classes_[v.cls].page_slot[v.page] = kNone;
    v.next = free_;
    free_ = victim;
    --cached_;
  }
  if (cache_pages_ == 0) return;
  int32_t s = free_;
  if (s != kNone) {
    free_ = slots_[s].next;
  } else {
    s = static_cast<int32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].cls = cls;
  slots_[s].page = page;
  PushFront(s);
  at = s;
  ++cached_;
}

}  // namespace n2j
