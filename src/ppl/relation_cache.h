// A per-document, byte-budgeted, thread-safe cache of materialized
// subrelations -- the cross-job memoization layer of the plan optimizer.
//
// Keys are RelationKey(canonical subexpression text, representation tag):
// the canonical text (ppl/canonical.h) names the relation's equivalence
// class, and the tag ("dense" / "sparse" / "auto" / "gkp") isolates the
// evaluation modes from each other, so a cached value is always the exact
// bytes the producing engine would have recomputed -- results stay
// byte-identical whether a lookup hits or misses, which is what lets the
// engines consult the cache on *every* interior node without a
// correctness argument beyond determinism.
//
// Values are shared_ptr<const AnyMatrix>. Eviction (strict LRU, driven by
// the byte budget) only drops the cache's reference: in-flight consumers
// holding the shared_ptr keep the matrix alive until they finish, exactly
// like the DocumentStore's retired AxisCaches. Entries are immutable, so
// there is no invalidation protocol -- a RelationCache belongs to one
// immutable Document and dies with it (DocumentStore::Remove drops the
// per-document cache; pinned entries outlive it).
//
// Thread safety: all methods may be called concurrently; no method blocks
// beyond a short internal mutex hold (values are inserted fully built).
#ifndef XPV_PPL_RELATION_CACHE_H_
#define XPV_PPL_RELATION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "ppl/matrix_engine.h"

namespace xpv::ppl {

/// Monitoring counters (monotone) and gauges for one RelationCache.
struct RelationCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;         // gauge
  std::size_t resident_bytes = 0;  // gauge: payload + key + index overhead
};

/// The cache key for one (canonical subexpression, representation) pair.
/// The separator byte cannot occur in a parseable expression text, so
/// distinct pairs never collide.
std::string RelationKey(std::string_view canonical_text,
                        std::string_view repr_tag);

/// Byte-budgeted thread-safe LRU of materialized subrelations.
class RelationCache {
 public:
  /// Default per-document budget the DocumentStore configures
  /// (DocumentStoreOptions::relation_cache_bytes).
  static constexpr std::size_t kDefaultMaxBytes = 8u << 20;

  explicit RelationCache(std::size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  RelationCache(const RelationCache&) = delete;
  RelationCache& operator=(const RelationCache&) = delete;

  /// The cached relation, or null on a miss. A hit moves the entry to
  /// the front of the LRU.
  std::shared_ptr<const AnyMatrix> Get(const std::string& key)
      XPV_EXCLUDES(mu_);

  /// Inserts (or refreshes) `value` under `key`, then evicts LRU-tail
  /// entries until the resident bytes fit the budget again. A value
  /// larger than the whole budget is not inserted (it would evict
  /// everything and then be evicted itself on the next insert).
  void Put(const std::string& key, std::shared_ptr<const AnyMatrix> value)
      XPV_EXCLUDES(mu_);

  /// True iff Put would admit a value of `payload_bytes` under `key`.
  /// Producers check this first, so an oversize result is never copied
  /// into a shared payload the cache would only reject.
  bool Admits(const std::string& key, std::size_t payload_bytes) const {
    return EntryBytes(key, payload_bytes) <= max_bytes_;
  }

  std::size_t max_bytes() const { return max_bytes_; }
  RelationCacheStats stats() const XPV_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const AnyMatrix> value;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// Accounted footprint of one entry: the matrix payload plus its key
  /// string (stored twice: map key and LRU node) and the per-entry index
  /// overhead, so the budget tracks real memory, not just payload.
  static std::size_t EntryBytes(const std::string& key,
                                std::size_t payload_bytes);

  void EvictToBudgetLocked() XPV_REQUIRES(mu_);

  const std::size_t max_bytes_;
  mutable Mutex mu_;
  /// Most recently used first.
  std::list<std::string> lru_ XPV_GUARDED_BY(mu_);
  std::unordered_map<std::string, Entry> entries_ XPV_GUARDED_BY(mu_);
  std::size_t resident_bytes_ XPV_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ XPV_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ XPV_GUARDED_BY(mu_) = 0;
  std::uint64_t insertions_ XPV_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ XPV_GUARDED_BY(mu_) = 0;
};

}  // namespace xpv::ppl

#endif  // XPV_PPL_RELATION_CACHE_H_
