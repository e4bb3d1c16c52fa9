// The corpus layer of the serving stack: a thread-safe, *sharded* store of
// long-lived immutable documents, addressed by DocumentId.
//
// A Document owns its Tree (index-rich and immutable after TreeBuilder::
// Finish()). The store additionally manages one persistent AxisCache per
// document, so that jobs from *different* batches -- not just jobs within
// one batch -- reuse the same materialized axis relations for a document's
// whole lifetime. Because fully materialized |t| x |t| relations are the
// expensive part, the store keeps only a bounded number of caches "hot":
// cold per-document caches are retired in LRU order (the cache object is
// dropped; in-flight jobs holding a shared_ptr keep it alive until they
// finish, and the next access rebuilds lazily).
//
// Sharding. The store is split into `num_shards` independent shards, each
// with its own mutex, document map, AxisCache LRU budget, and statistics.
// A document's shard is a pure function of its id (`shard_of(id)`);
// structurally equal interned trees share one id and hence one shard.
// Operations on documents in different
// shards therefore never contend on a lock or compete for one LRU budget,
// which is what lets cross-document batches scale: the QueryService's
// batch scheduler groups jobs by resident shard (see query_service.h).
// With `num_shards = 1` the store degenerates to the previous single-mutex
// behavior; results are identical at any shard count (only lock spread and
// LRU-retirement order change, and retirement never changes results).
//
// Insert() always creates a fresh document; Intern() deduplicates by
// structural content (two structurally equal trees intern to one id), so
// template-driven workloads that re-submit the same document text share
// one tree and one cache.
//
// Persistence (engine/snapshot.h). SaveSnapshot() writes every document
// -- tree, indexes, and materialized axis relations -- as one segment
// file per document plus a manifest; OpenSnapshot() reconstitutes the
// store without re-parsing or re-indexing anything. Independently, a
// spill_dir + max_resident_docs configuration turns the store into a
// bounded-memory cache over its own disk segments: cold documents are
// written out and their trees released, and a later access faults them
// back in transparently. Documents that are pinned -- a hot AxisCache
// references the tree, or a DocumentPtr is held outside the store (an
// open stream, an in-flight job) -- are never spilled.
//
// Thread safety: every public method is safe to call concurrently with
// every other. No method blocks beyond a shard mutex critical section
// (plus one intern-index mutex for Intern/Remove); none of them waits
// for in-flight queries. Spill-enabled stores may perform segment I/O
// inside a shard's critical section (spill on insert, fault-in on
// access), which serializes that shard -- not the store -- for the
// duration. Lock ordering is intern-index mutex -> shard mutex (Intern
// and Remove both nest in that order, so a document and its intern key
// appear and disappear atomically); no method ever holds two shard
// mutexes at once.
#ifndef XPV_ENGINE_DOCUMENT_STORE_H_
#define XPV_ENGINE_DOCUMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/planner.h"
#include "ppl/relation_cache.h"
#include "tree/axis_cache.h"
#include "tree/tree.h"

namespace xpv::engine {

/// Corpus-wide document identifier. Ids start at 1; 0 means "no document":
/// a job or stream addressing it fails with InvalidArgument.
using DocumentId = std::uint64_t;
inline constexpr DocumentId kNoDocument = 0;

/// Lock-order anchor for the store's documented global acquisition
/// order: the intern-index mutex is ACQUIRED_BEFORE this token, every
/// shard mutex ACQUIRED_AFTER it (per-shard mutexes live behind
/// unique_ptrs, so the two sides cannot name each other directly --
/// see common/mutex.h). Machine-readable form of "intern -> shard".
inline LockOrderToken kInternBeforeShardOrder;

/// An immutable named tree in the corpus. Always held behind
/// shared_ptr<const Document>; the tree address is stable for the
/// document's lifetime, so AxisCaches may reference it.
class Document {
 public:
  Document(DocumentId id, std::string name, Tree tree)
      : id_(id), name_(std::move(name)), tree_(std::move(tree)) {}

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  DocumentId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Tree& tree() const { return tree_; }

 private:
  DocumentId id_;
  std::string name_;
  Tree tree_;
};

using DocumentPtr = std::shared_ptr<const Document>;

struct DocumentStoreOptions {
  /// Maximum number of documents with a live ("hot") AxisCache, across the
  /// whole store; the budget is divided evenly across shards. Beyond a
  /// shard's budget, its least-recently-used document's cache is retired.
  /// This is a hard memory bound: when it is smaller than num_shards, the
  /// shard count is clamped down so every shard still keeps at least one
  /// cache hot. 0 = unbounded.
  std::size_t max_hot_caches = 64;
  /// Number of independent shards (>= 1; 0 is treated as 1, and values
  /// above a nonzero max_hot_caches are clamped to it -- see above).
  /// Shards trade a little fixed memory for lock- and LRU-independence;
  /// the default suits a handful of worker threads.
  std::size_t num_shards = 8;
  /// Representation policy for the per-document AxisCaches this store
  /// creates (tree/axis_cache.h): kAuto picks dense below
  /// AxisCache::kAutoDenseMaxNodes and interval runs above; kDense /
  /// kInterval force one (tests, ablations). hot_cache_bytes reflects
  /// whichever representation each cache actually built.
  AxisBacking axis_backing = AxisBacking::kAuto;
  /// Byte budget of each document's subrelation cache
  /// (ppl/relation_cache.h): materialized interior subexpressions,
  /// shared by every engine and batch evaluating that document. Unlike
  /// the AxisCache the RelationCache is never LRU-retired as a whole --
  /// its own byte budget already bounds it, and it holds shared_ptrs, so
  /// in-flight consumers pin evicted values safely. 0 disables
  /// cross-job subrelation memoization entirely (per-evaluation
  /// hash-consing inside MatrixEngine still runs).
  std::size_t relation_cache_bytes = ppl::RelationCache::kDefaultMaxBytes;
  /// Directory for spilled document segments (engine/snapshot.h format).
  /// Empty disables spill-to-disk entirely; max_resident_docs is then
  /// ignored. OpenSnapshot() defaults this to the snapshot directory, so
  /// reloaded-then-evicted documents spill for free (their segment is
  /// already on disk).
  std::string spill_dir;
  /// Maximum number of documents whose Tree is resident in memory, across
  /// the whole store (divided over shards like max_hot_caches; remainder
  /// on the first shards). Beyond a shard's budget the least recently
  /// touched *unpinned* document is spilled: its segment is written to
  /// spill_dir (if not already there) and its Tree released. A document
  /// is pinned -- never spilled -- while its AxisCache is hot or any
  /// DocumentPtr outside the store (a stream, an in-flight job) still
  /// holds it. 0 = unbounded. Requires a nonempty spill_dir.
  std::size_t max_resident_docs = 0;
};

/// Monitoring counters (monotone except documents/hot_caches/
/// hot_cache_bytes). Returned both per shard (shard_stats()) and
/// aggregated over all shards (stats()).
struct DocumentStoreStats {
  std::size_t documents = 0;   // currently stored documents
  std::size_t hot_caches = 0;  // documents with a live AxisCache
  std::size_t hot_cache_bytes = 0;  // approx. resident bytes of hot caches
  std::uint64_t cache_builds = 0;     // AxisCache objects created
  std::uint64_t cache_hits = 0;       // AxisCacheFor served an existing cache
  std::uint64_t cache_retirements = 0;  // caches dropped by the LRU bound
  std::uint64_t intern_hits = 0;      // Intern() found an existing document
  std::uint64_t relation_hits = 0;    // subrelation-cache hits (all docs)
  std::uint64_t relation_misses = 0;  // subrelation-cache misses
  std::size_t relation_cache_bytes = 0;  // gauge: resident subrelation bytes
  // -- spill / snapshot counters (engine/snapshot.h) --
  std::size_t resident_docs = 0;      // gauge: documents with a Tree in RAM
  std::size_t spilled_docs = 0;       // gauge: documents living only on disk
  /// Gauge: heap bytes of resident documents' trees (Tree::resident_bytes).
  /// Spilled documents contribute 0 -- cold mmap'd bytes are never counted
  /// as hot.
  std::size_t resident_doc_bytes = 0;
  std::uint64_t doc_spills = 0;       // documents written out + released
  std::uint64_t doc_reloads = 0;      // spilled documents decoded from disk
  /// Fault-ins served by re-adopting a still-alive Document (an external
  /// DocumentPtr kept it in memory) instead of touching the disk.
  std::uint64_t doc_reattaches = 0;
  std::uint64_t mmap_bytes = 0;       // total segment bytes memory-mapped
};

/// Thread-safe sharded DocumentId -> Document corpus with per-document
/// persistent AxisCaches under bounded per-shard LRU retirement.
///
/// Error contracts: Fetch returns typed Status (kNotFound for unknown
/// ids; the segment loader's kDataLoss / kNotFound when a spilled
/// document's fault-in fails); the nullable lookups (Get, AxisCacheFor,
/// PlanMemoFor) return null in all of those cases; Remove returns false
/// for unknown ids; InsertTerm/InsertXml surface the parser's Status
/// verbatim; SaveSnapshot/OpenSnapshot surface the snapshot layer's
/// typed Status (engine/snapshot.h).
class DocumentStore {
 public:
  explicit DocumentStore(DocumentStoreOptions options = {});

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  /// Stores a new document; returns its fresh id. Never fails.
  DocumentId Insert(Tree tree, std::string name = {});
  /// Parses + stores; the error is the parser's on malformed input.
  Result<DocumentId> InsertTerm(std::string_view term, std::string name = {});
  Result<DocumentId> InsertXml(std::string_view xml, std::string name = {});

  /// Returns the id of a stored document structurally equal to `tree`,
  /// inserting it first if absent ("interning" by content). Two racing
  /// Intern() calls with equal trees return the same id.
  DocumentId Intern(Tree tree, std::string name = {});

  /// The document with typed errors: kNotFound for unknown ids, and on
  /// the spill path whatever LoadDocumentSegment reports (kDataLoss for a
  /// corrupt segment, kNotFound for a vanished one). A spilled document
  /// is faulted back in transparently -- first by re-adopting the live
  /// Document if some holder still pins it, else by decoding its segment.
  Result<DocumentPtr> Fetch(DocumentId id);

  /// Nullable wrapper over Fetch(): the document, or null both for
  /// unknown ids and for spilled documents whose reload failed (callers
  /// that need to distinguish use Fetch).
  DocumentPtr Get(DocumentId id);

  /// Removes a document (its id is never reused). In-flight holders of the
  /// DocumentPtr or its AxisCache stay valid; only future lookups of the
  /// id fail. The document's spill segment, if one was written, is deleted
  /// too -- unless a MANIFEST.xpv in spill_dir may name it, in which case
  /// the next SaveSnapshot(spill_dir) deletes it once its new manifest no
  /// longer does, so the snapshot on disk stays openable meanwhile.
  /// Returns false if unknown.
  bool Remove(DocumentId id);

  /// Writes every document (and its materialized axis relations) into
  /// `dir` as one segment per document, then the manifest last -- so `dir`
  /// holds a complete snapshot exactly when a valid MANIFEST.xpv exists.
  /// Spilled documents whose segment already lives in `dir` are not
  /// rewritten; their (unsynced) spill segments are fsynced instead, and
  /// the directory after them, before the manifest is written -- a
  /// manifest names only segments already on stable storage. After a save
  /// into spill_dir, segments of removed documents the new manifest leaves
  /// out are deleted. Shards are walked one at a time under their own mutex;
  /// documents inserted concurrently into an already-visited shard are
  /// simply absent from this snapshot.
  Status SaveSnapshot(const std::string& dir);

  /// Opens the snapshot in `dir` as a fresh store: every manifest id is
  /// decoded from its segment (no parsing, no BuildIndexes -- see
  /// tree/tree_io.h), interned documents rejoin the intern index, and
  /// persisted axis relations are installed into hot AxisCaches, so the
  /// reloaded store answers exactly like the one that saved. When
  /// `options.spill_dir` is empty it defaults to `dir`, making reloaded
  /// documents spillable for free. Residency and hot-cache budgets are
  /// enforced during the load, so peak memory is the configured budget
  /// plus one document. Fails with the loader's typed Status on any
  /// corrupt, truncated, or missing segment.
  static Result<std::unique_ptr<DocumentStore>> OpenSnapshot(
      const std::string& dir, DocumentStoreOptions options = {});

  /// The document's persistent AxisCache, created lazily. Touches the
  /// owning shard's LRU and may retire another document's cache when that
  /// shard's hot budget is exceeded. The returned shared_ptr keeps the
  /// underlying Document alive even across Remove(). Null for unknown ids.
  std::shared_ptr<AxisCache> AxisCacheFor(DocumentId id);

  /// The document's persistent query-plan memo (engine/planner.h), living
  /// beside its AxisCache: repeated query templates on a long-lived
  /// document plan once per (text, shape). Unlike the AxisCache it holds
  /// only small ExecutionPlan records (bounded entry count), so it is
  /// never LRU-retired. Null for unknown ids.
  std::shared_ptr<PlanMemo> PlanMemoFor(DocumentId id) const;

  /// The document's persistent subrelation cache (ppl/relation_cache.h),
  /// created with the document when relation_cache_bytes > 0. Like the
  /// PlanMemo it is never LRU-retired (its own byte budget bounds it).
  /// Null for unknown ids and when the store disables relation caching.
  std::shared_ptr<ppl::RelationCache> RelationCacheFor(DocumentId id) const;

  /// Number of shards (>= 1, fixed at construction).
  std::size_t num_shards() const { return shards_.size(); }
  /// The shard owning `id` -- a pure function of the id, so callers (the
  /// QueryService batch scheduler) can group work by resident shard
  /// without taking any store lock.
  std::size_t shard_of(DocumentId id) const { return id % shards_.size(); }

  std::size_t size() const;
  /// Counters aggregated over all shards.
  DocumentStoreStats stats() const;
  /// Per-shard counters, indexed by shard number.
  std::vector<DocumentStoreStats> shard_stats() const;

 private:
  struct Entry {
    DocumentPtr doc;  // null while spilled to disk
    /// Reattach handle across spill: if an external DocumentPtr still
    /// pins the document, fault-in re-adopts it without touching disk.
    std::weak_ptr<const Document> spilled;
    /// True once this document's segment exists in spill_dir (segments of
    /// immutable documents never go stale, so spilling again is free).
    /// Spill writes are not fsynced (SegmentSync::kVolatile): a spilled
    /// segment need not survive a crash, because only a manifest makes a
    /// segment reachable after a restart.
    bool on_disk = false;
    /// True once the spill_dir segment is synced and a MANIFEST.xpv in
    /// spill_dir may name it: OpenSnapshot(dir) with spill_dir == dir
    /// loaded it from the manifest, or SaveSnapshot(spill_dir) synced it
    /// for the manifest it writes. A manifest names only such segments.
    /// Remove() leaves a named segment on disk (retired_segments_) until a
    /// SaveSnapshot(spill_dir) writes a manifest without it.
    bool in_manifest = false;
    std::shared_ptr<AxisCache> cache;       // null when cold / retired
    std::shared_ptr<PlanMemo> plans;         // created with the document
    /// Subrelation cache, created with the document; null iff disabled.
    std::shared_ptr<ppl::RelationCache> relations;
    std::list<DocumentId>::iterator lru_it;  // valid iff cache != null
    std::list<DocumentId>::iterator res_it;  // valid iff doc != null
    std::string intern_key;  // nonempty iff created by Intern()
  };

  /// One independent slice of the corpus: its own mutex, documents, hot
  /// LRU budget, and counters. Never holds another shard's mutex; nests
  /// inside intern_mu_ when both are taken (kInternBeforeShardOrder).
  struct Shard {
    mutable Mutex mu XPV_ACQUIRED_AFTER(kInternBeforeShardOrder);
    std::unordered_map<DocumentId, Entry> entries XPV_GUARDED_BY(mu);
    /// Documents with a hot cache, most recently used first.
    std::list<DocumentId> lru XPV_GUARDED_BY(mu);
    /// Documents with a resident Tree, most recently touched first.
    std::list<DocumentId> resident XPV_GUARDED_BY(mu);
    /// This shard's slice of max_hot_caches (remainder spread over the
    /// first shards so the whole configured budget is usable). 0 =
    /// unbounded. Set before the store is published, then read-only --
    /// not guarded (the constructor writes it without the lock).
    std::size_t hot_budget = 0;
    /// This shard's slice of max_resident_docs; 0 = unbounded. Same
    /// const-after-construction contract as hot_budget.
    std::size_t resident_budget = 0;
    /// Counters only; gauges derived on read.
    DocumentStoreStats stats XPV_GUARDED_BY(mu);
  };

  /// Builds an Entry and stores it into `id`'s shard under its mutex.
  void Store(DocumentId id, std::string name, Tree tree,
             std::string intern_key);
  /// Drops LRU-tail caches until the shard's hot budget holds.
  void EnforceHotBoundLocked(Shard& shard) XPV_REQUIRES(shard.mu);
  /// Spills resident-LRU-tail documents (skipping pinned ones) until the
  /// shard's residency budget holds or no document is spillable.
  void EnforceResidencyLocked(Shard& shard) XPV_REQUIRES(shard.mu);
  /// Marks `id`'s Tree resident / recently used in its shard's LRU.
  void TouchResidentLocked(Shard& shard, DocumentId id, Entry& entry)
      XPV_REQUIRES(shard.mu);
  /// Fault-in of a possibly spilled entry; `shard.mu` must be held.
  Result<DocumentPtr> FaultInLocked(Shard& shard, DocumentId id, Entry& entry)
      XPV_REQUIRES(shard.mu);
  /// Path of `id`'s segment inside spill_dir.
  std::string SpillPath(DocumentId id) const;
  /// Gauge-completed snapshot of one shard's stats.
  DocumentStoreStats SnapshotShardStats(const Shard& shard) const
      XPV_REQUIRES(shard.mu);

  const DocumentStoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Globally monotone id allocator; fresh documents round-robin across
  /// shards because shard_of(id) is id % num_shards.
  std::atomic<DocumentId> next_id_{1};
  /// Guards the intern index; ordered before any shard mutex (Intern and
  /// Remove both nest shard.mu inside it).
  mutable Mutex intern_mu_ XPV_ACQUIRED_BEFORE(kInternBeforeShardOrder);
  /// Structural key (pre-order depth + length-prefixed labels) -> id.
  std::unordered_map<std::string, DocumentId> intern_index_
      XPV_GUARDED_BY(intern_mu_);
  std::uint64_t intern_hits_ XPV_GUARDED_BY(intern_mu_) = 0;
  /// Removed documents whose spill_dir segment a manifest there may still
  /// name (Entry::in_manifest). SaveSnapshot(spill_dir) deletes each one
  /// its new manifest leaves out. Guarded by intern_mu_ because Remove()
  /// already holds it.
  std::vector<DocumentId> retired_segments_ XPV_GUARDED_BY(intern_mu_);
};

}  // namespace xpv::engine

#endif  // XPV_ENGINE_DOCUMENT_STORE_H_
