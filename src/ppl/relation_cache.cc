#include "ppl/relation_cache.h"

#include <utility>

namespace xpv::ppl {

std::string RelationKey(std::string_view canonical_text,
                        std::string_view repr_tag) {
  std::string key;
  key.reserve(canonical_text.size() + 1 + repr_tag.size());
  key.append(canonical_text);
  key.push_back('\x1f');
  key.append(repr_tag);
  return key;
}

std::size_t RelationCache::EntryBytes(const std::string& key,
                                      std::size_t payload_bytes) {
  // Key bytes twice (map key + LRU node) plus a flat estimate of the
  // hash-map node, list node, Entry, and shared_ptr control block.
  constexpr std::size_t kIndexOverhead = 160;
  return payload_bytes + 2 * key.size() + kIndexOverhead;
}

std::shared_ptr<const AnyMatrix> RelationCache::Get(const std::string& key) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.value;
}

void RelationCache::Put(const std::string& key,
                        std::shared_ptr<const AnyMatrix> value) {
  if (value == nullptr) return;
  const std::size_t bytes = EntryBytes(key, value->resident_bytes());
  if (bytes > max_bytes_) return;  // would evict everything for nothing
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh: racing producers computed the same immutable relation;
    // keep the accounting exact if the representations' bytes differ.
    resident_bytes_ -= it->second.bytes;
    it->second.value = std::move(value);
    it->second.bytes = bytes;
    resident_bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(key);
    Entry entry;
    entry.value = std::move(value);
    entry.bytes = bytes;
    entry.lru_it = lru_.begin();
    entries_.emplace(key, std::move(entry));
    resident_bytes_ += bytes;
    ++insertions_;
  }
  EvictToBudgetLocked();
}

void RelationCache::EvictToBudgetLocked() {
  while (resident_bytes_ > max_bytes_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.bytes;
    entries_.erase(it);  // in-flight shared_ptrs keep the matrix alive
    lru_.pop_back();
    ++evictions_;
  }
}

RelationCacheStats RelationCache::stats() const {
  MutexLock lock(mu_);
  RelationCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace xpv::ppl
