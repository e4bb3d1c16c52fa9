#include "engine/document_store.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "engine/snapshot.h"

namespace xpv::engine {

namespace {

/// Unambiguous structural key for Intern(): the pre-order sweep of
/// (depth, length-prefixed label) determines the tree uniquely. ToTerm()
/// would not -- TreeBuilder accepts arbitrary label bytes (only the
/// parsers restrict names), so a label containing term metacharacters
/// could collide with a structurally different tree's serialization.
std::string InternKey(const Tree& tree) {
  std::string key;
  key.reserve(tree.size() * 8);
  for (NodeId v = 0; v < tree.size(); ++v) {
    const std::string& label = tree.label_name(v);
    key += std::to_string(tree.Depth(v));
    key += ':';
    key += std::to_string(label.size());
    key += ':';
    key += label;
    key += ';';
  }
  return key;
}

}  // namespace

DocumentStore::DocumentStore(DocumentStoreOptions options)
    : options_(std::move(options)) {
  std::size_t num_shards = options_.num_shards == 0 ? 1 : options_.num_shards;
  // Every shard keeps at least one cache hot (a zero-budget shard would
  // rebuild on every access), so a hot bound tighter than the shard count
  // clamps the shard count instead of silently loosening the configured
  // memory cap: max_hot_caches is a hard bound. The residency budget
  // clamps the same way: a per-shard budget of 0 would mean "unbounded".
  if (options_.max_hot_caches != 0) {
    num_shards = std::min(num_shards, options_.max_hot_caches);
  }
  const bool spill = !options_.spill_dir.empty() &&
                     options_.max_resident_docs != 0;
  if (spill) {
    num_shards = std::min(num_shards, options_.max_resident_docs);
  }
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    if (options_.max_hot_caches != 0) {
      // Spread the budget's remainder over the first shards so the whole
      // configured bound is usable (e.g. 12 over 8 shards = 4x2 + 4x1).
      shards_.back()->hot_budget =
          options_.max_hot_caches / num_shards +
          (s < options_.max_hot_caches % num_shards ? 1 : 0);
    }
    if (spill) {
      shards_.back()->resident_budget =
          options_.max_resident_docs / num_shards +
          (s < options_.max_resident_docs % num_shards ? 1 : 0);
    }
  }
}

std::string DocumentStore::SpillPath(DocumentId id) const {
  return options_.spill_dir + "/" + SegmentFileName(id);
}

void DocumentStore::Store(DocumentId id, std::string name, Tree tree,
                          std::string intern_key) {
  Entry entry;
  entry.doc =
      std::make_shared<const Document>(id, std::move(name), std::move(tree));
  entry.plans = std::make_shared<PlanMemo>();
  if (options_.relation_cache_bytes > 0) {
    entry.relations =
        std::make_shared<ppl::RelationCache>(options_.relation_cache_bytes);
  }
  entry.intern_key = std::move(intern_key);
  Shard& shard = *shards_[shard_of(id)];
  MutexLock lock(shard.mu);
  entry.lru_it = shard.lru.end();
  entry.res_it = shard.resident.end();
  auto [it, inserted] = shard.entries.emplace(id, std::move(entry));
  (void)inserted;
  TouchResidentLocked(shard, id, it->second);
  EnforceResidencyLocked(shard);
}

void DocumentStore::TouchResidentLocked(Shard& shard, DocumentId id,
                                        Entry& entry) {
  if (entry.doc == nullptr) return;
  if (entry.res_it != shard.resident.end()) {
    shard.resident.splice(shard.resident.begin(), shard.resident,
                          entry.res_it);
  } else {
    shard.resident.push_front(id);
    entry.res_it = shard.resident.begin();
  }
}

void DocumentStore::EnforceResidencyLocked(Shard& shard) {
  if (shard.resident_budget == 0) return;
  while (shard.resident.size() > shard.resident_budget) {
    // The victim is the least recently touched *spillable* document: no
    // hot AxisCache references its tree, and nothing outside the store
    // holds a DocumentPtr (use_count 1 = only our own strong ref), so
    // streams and in-flight jobs are never pulled out from under.
    auto victim = shard.resident.end();
    for (auto rit = shard.resident.rbegin(); rit != shard.resident.rend();
         ++rit) {
      const Entry& e = shard.entries.at(*rit);
      if (e.cache == nullptr && e.doc.use_count() == 1) {
        victim = std::prev(rit.base());
        break;
      }
    }
    if (victim == shard.resident.end()) return;  // everything is pinned
    const DocumentId id = *victim;
    Entry& entry = shard.entries.at(id);
    if (!entry.on_disk) {
      // Keep the document resident rather than risk losing it when the
      // disk misbehaves (ENOSPC and friends); the budget is best-effort
      // in exactly this one case. No fsync: the segment only has to
      // outlive this process's page cache, and SaveSnapshot syncs it
      // before any manifest names it.
      if (!WriteDocumentSegment(SpillPath(id), id, entry.doc->name(),
                                entry.doc->tree(), /*cache=*/nullptr,
                                !entry.intern_key.empty(),
                                SegmentSync::kVolatile)
               .ok()) {
        return;
      }
      entry.on_disk = true;
    }
    entry.spilled = entry.doc;  // reattach handle for racing holders
    entry.doc = nullptr;
    shard.resident.erase(victim);
    entry.res_it = shard.resident.end();
    ++shard.stats.doc_spills;
  }
}

Result<DocumentPtr> DocumentStore::FaultInLocked(Shard& shard, DocumentId id,
                                                 Entry& entry) {
  if (entry.doc != nullptr) {
    // Pin before enforcing: a batch that just finished may have left the
    // shard over budget (its jobs' pins blocked eviction), and this touch
    // is the next chance to settle back under it.
    DocumentPtr doc = entry.doc;
    TouchResidentLocked(shard, id, entry);
    EnforceResidencyLocked(shard);
    return doc;
  }
  if (DocumentPtr live = entry.spilled.lock()) {
    // Some holder acquired the DocumentPtr before the spill and still has
    // it: the Document never left memory, so adopt it back for free.
    entry.doc = std::move(live);
    ++shard.stats.doc_reattaches;
    DocumentPtr doc = entry.doc;  // pin: see the resident path above
    TouchResidentLocked(shard, id, entry);
    EnforceResidencyLocked(shard);  // reattaching grows the resident set
    return doc;
  }
  XPV_ASSIGN_OR_RETURN(LoadedSegment segment,
                       LoadDocumentSegment(SpillPath(id)));
  ++shard.stats.doc_reloads;
  shard.stats.mmap_bytes += segment.mapped_bytes;
  entry.doc = std::make_shared<const Document>(
      id, std::move(segment.meta.name), std::move(segment.tree));
  // The local copy makes use_count 2, so the enforcement pass below can
  // spill *other* documents but never the one being handed out.
  DocumentPtr doc = entry.doc;
  TouchResidentLocked(shard, id, entry);
  EnforceResidencyLocked(shard);  // faulting one in may push one out
  return doc;
}

DocumentId DocumentStore::Insert(Tree tree, std::string name) {
  const DocumentId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Store(id, std::move(name), std::move(tree), {});
  return id;
}

Result<DocumentId> DocumentStore::InsertTerm(std::string_view term,
                                             std::string name) {
  Result<Tree> tree = Tree::ParseTerm(term);
  if (!tree.ok()) return tree.status();
  return Insert(std::move(tree).value(), std::move(name));
}

Result<DocumentId> DocumentStore::InsertXml(std::string_view xml,
                                            std::string name) {
  Result<Tree> tree = Tree::ParseXml(xml);
  if (!tree.ok()) return tree.status();
  return Insert(std::move(tree).value(), std::move(name));
}

DocumentId DocumentStore::Intern(Tree tree, std::string name) {
  std::string key = InternKey(tree);
  // intern_mu_ is held across the shard insertion (intern -> shard lock
  // order) so a racing Intern of the same key cannot observe the index
  // entry before the document is resolvable.
  MutexLock intern_lock(intern_mu_);
  auto it = intern_index_.find(key);
  if (it != intern_index_.end()) {
    ++intern_hits_;
    return it->second;
  }
  const DocumentId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Store(id, std::move(name), std::move(tree), key);
  intern_index_.emplace(std::move(key), id);
  return id;
}

Result<DocumentPtr> DocumentStore::Fetch(DocumentId id) {
  Shard& shard = *shards_[shard_of(id)];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  return FaultInLocked(shard, id, it->second);
}

DocumentPtr DocumentStore::Get(DocumentId id) {
  Result<DocumentPtr> doc = Fetch(id);
  return doc.ok() ? std::move(doc).value() : nullptr;
}

bool DocumentStore::Remove(DocumentId id) {
  // intern_mu_ is held across the whole removal (intern -> shard lock
  // order, same as Intern) so entry and intern-index key disappear
  // atomically: a racing Intern of an equal tree either sees the key and
  // returns this id while its entry still exists, or sees neither and
  // interns a fresh document -- never a key pointing at an erased entry.
  MutexLock intern_lock(intern_mu_);
  std::string intern_key;
  bool segment_on_disk = false;
  bool segment_in_manifest = false;
  {
    Shard& shard = *shards_[shard_of(id)];
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(id);
    if (it == shard.entries.end()) return false;
    if (it->second.cache != nullptr) {
      shard.lru.erase(it->second.lru_it);
    }
    if (it->second.doc != nullptr) {
      shard.resident.erase(it->second.res_it);
    }
    segment_on_disk = it->second.on_disk;
    segment_in_manifest = it->second.in_manifest;
    intern_key = std::move(it->second.intern_key);
    shard.entries.erase(it);
  }
  // Delete the spill segment with the entry: a removed document must not
  // leave an orphaned doc-<id>.xpvseg behind (ids are never reused, so
  // nothing in this store can ever want this file again). A segment that
  // spill_dir's manifest may name stays until a later manifest drops it:
  // deleting it now would leave that snapshot unopenable.
  if (segment_in_manifest) {
    retired_segments_.push_back(id);
  } else if (segment_on_disk) {
    std::remove(SpillPath(id).c_str());
  }
  // Drop the intern-index entry (if this id came from Intern()) so the
  // key can intern to a new document later.
  if (!intern_key.empty()) {
    intern_index_.erase(intern_key);
  }
  return true;
}

std::shared_ptr<AxisCache> DocumentStore::AxisCacheFor(DocumentId id) {
  Shard& shard = *shards_[shard_of(id)];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return nullptr;
  Entry& entry = it->second;
  if (entry.cache != nullptr) {
    ++shard.stats.cache_hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_it);
    TouchResidentLocked(shard, id, entry);
    return entry.cache;
  }
  // A spilled document's tree must come back before a cache can
  // reference it; a failed fault-in degrades to the nullable contract.
  Result<DocumentPtr> faulted = FaultInLocked(shard, id, entry);
  if (!faulted.ok()) return nullptr;
  // The deleter captures the DocumentPtr so the tree the cache references
  // outlives every holder of the cache, even past Remove().
  DocumentPtr doc = std::move(faulted).value();
  entry.cache = std::shared_ptr<AxisCache>(
      new AxisCache(doc->tree(), options_.axis_backing),
      [doc](AxisCache* c) { delete c; });
  ++shard.stats.cache_builds;
  shard.lru.push_front(id);
  entry.lru_it = shard.lru.begin();
  EnforceHotBoundLocked(shard);
  return entry.cache;
}

std::shared_ptr<PlanMemo> DocumentStore::PlanMemoFor(DocumentId id) const {
  const Shard& shard = *shards_[shard_of(id)];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  return it == shard.entries.end() ? nullptr : it->second.plans;
}

std::shared_ptr<ppl::RelationCache> DocumentStore::RelationCacheFor(
    DocumentId id) const {
  const Shard& shard = *shards_[shard_of(id)];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  return it == shard.entries.end() ? nullptr : it->second.relations;
}

void DocumentStore::EnforceHotBoundLocked(Shard& shard) {
  if (shard.hot_budget == 0) return;
  while (shard.lru.size() > shard.hot_budget) {
    const DocumentId victim = shard.lru.back();
    shard.lru.pop_back();
    Entry& entry = shard.entries.at(victim);
    entry.cache = nullptr;  // in-flight shared_ptrs keep it alive
    entry.lru_it = shard.lru.end();
    ++shard.stats.cache_retirements;
  }
}

std::size_t DocumentStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

DocumentStoreStats DocumentStore::SnapshotShardStats(
    const Shard& shard) const {
  // Gauges derived live, not hand-maintained at every mutation site.
  DocumentStoreStats stats = shard.stats;
  stats.documents = shard.entries.size();
  stats.hot_caches = shard.lru.size();
  stats.hot_cache_bytes = 0;
  for (DocumentId id : shard.lru) {
    stats.hot_cache_bytes +=
        shard.entries.at(id).cache->approx_resident_bytes();
  }
  for (const auto& [id, entry] : shard.entries) {
    if (entry.doc != nullptr) {
      ++stats.resident_docs;
      // Tree::resident_bytes of the in-memory trees only: a spilled
      // document's (possibly mmap'd) cold bytes never count as hot.
      stats.resident_doc_bytes += entry.doc->tree().resident_bytes();
    } else {
      ++stats.spilled_docs;
    }
    if (entry.relations == nullptr) continue;
    const ppl::RelationCacheStats rel = entry.relations->stats();
    stats.relation_hits += rel.hits;
    stats.relation_misses += rel.misses;
    stats.relation_cache_bytes += rel.resident_bytes;
  }
  return stats;
}

std::vector<DocumentStoreStats> DocumentStore::shard_stats() const {
  std::vector<DocumentStoreStats> all;
  all.reserve(shards_.size());
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    all.push_back(SnapshotShardStats(*shard));
  }
  // Intern hits are store-wide (the index is not sharded); report them on
  // shard 0 so the aggregate sum matches stats().
  {
    MutexLock intern_lock(intern_mu_);
    all[0].intern_hits = intern_hits_;
  }
  return all;
}

DocumentStoreStats DocumentStore::stats() const {
  DocumentStoreStats total;
  for (const DocumentStoreStats& s : shard_stats()) {
    total.documents += s.documents;
    total.hot_caches += s.hot_caches;
    total.hot_cache_bytes += s.hot_cache_bytes;
    total.cache_builds += s.cache_builds;
    total.cache_hits += s.cache_hits;
    total.cache_retirements += s.cache_retirements;
    total.intern_hits += s.intern_hits;
    total.relation_hits += s.relation_hits;
    total.relation_misses += s.relation_misses;
    total.relation_cache_bytes += s.relation_cache_bytes;
    total.resident_docs += s.resident_docs;
    total.spilled_docs += s.spilled_docs;
    total.resident_doc_bytes += s.resident_doc_bytes;
    total.doc_spills += s.doc_spills;
    total.doc_reloads += s.doc_reloads;
    total.doc_reattaches += s.doc_reattaches;
    total.mmap_bytes += s.mmap_bytes;
  }
  return total;
}

Status DocumentStore::SaveSnapshot(const std::string& dir) {
  const bool into_spill_dir = dir == options_.spill_dir;
  SnapshotManifest manifest;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto& [id, entry] : shard.entries) {
      if (entry.doc == nullptr && entry.on_disk && into_spill_dir) {
        // Cold document whose segment already lives in the target
        // directory: nothing to rewrite (segments of immutable documents
        // never go stale), but the spill path never synced it.
        if (!entry.in_manifest) {
          XPV_RETURN_IF_ERROR(SyncFile(SpillPath(id)));
          entry.in_manifest = true;
        }
        manifest.document_ids.push_back(id);
        continue;
      }
      XPV_ASSIGN_OR_RETURN(DocumentPtr doc, FaultInLocked(shard, id, entry));
      XPV_RETURN_IF_ERROR(WriteDocumentSegment(
          dir + "/" + SegmentFileName(id), id, doc->name(), doc->tree(),
          entry.cache.get(), !entry.intern_key.empty(),
          SegmentSync::kDurable));
      manifest.document_ids.push_back(id);
      if (into_spill_dir) entry.on_disk = entry.in_manifest = true;
      // `doc` pins the just-written document, so this can only push
      // *earlier* documents back out -- peak residency is budget + 1.
      EnforceResidencyLocked(shard);
    }
  }
  std::sort(manifest.document_ids.begin(), manifest.document_ids.end());
  manifest.next_document_id = next_id_.load(std::memory_order_relaxed);
  // Persist the renames of the adopted spill segments, then write the
  // manifest last: a crash anywhere above leaves either the previous
  // manifest (a complete old snapshot) or none at all.
  XPV_RETURN_IF_ERROR(SyncDirectory(dir));
  XPV_RETURN_IF_ERROR(WriteManifest(dir, manifest));
  if (into_spill_dir) {
    // Segments of removed documents that the new manifest leaves out are
    // now unreachable; the ones it still names (removed after their
    // shard was walked) wait for the next save.
    std::vector<DocumentId> unreferenced;
    {
      MutexLock intern_lock(intern_mu_);
      const auto named = [&](DocumentId id) {
        return std::binary_search(manifest.document_ids.begin(),
                                  manifest.document_ids.end(), id);
      };
      const auto split = std::partition(retired_segments_.begin(),
                                        retired_segments_.end(), named);
      unreferenced.assign(split, retired_segments_.end());
      retired_segments_.erase(split, retired_segments_.end());
    }
    for (DocumentId id : unreferenced) std::remove(SpillPath(id).c_str());
  }
  return Status::OK();
}

Result<std::unique_ptr<DocumentStore>> DocumentStore::OpenSnapshot(
    const std::string& dir, DocumentStoreOptions options) {
  XPV_ASSIGN_OR_RETURN(SnapshotManifest manifest, LoadManifest(dir));
  if (options.spill_dir.empty()) options.spill_dir = dir;
  std::unique_ptr<DocumentStore> store(new DocumentStore(std::move(options)));
  store->next_id_.store(manifest.next_document_id, std::memory_order_relaxed);
  for (DocumentId id : manifest.document_ids) {
    XPV_ASSIGN_OR_RETURN(
        LoadedSegment segment,
        LoadDocumentSegment(dir + "/" + SegmentFileName(id)));
    if (segment.meta.document_id != id) {
      return Status::DataLoss("segment for document " + std::to_string(id) +
                              " carries id " +
                              std::to_string(segment.meta.document_id));
    }
    Shard& shard = *store->shards_[store->shard_of(id)];
    Entry entry;
    entry.doc = std::make_shared<const Document>(
        id, std::move(segment.meta.name), std::move(segment.tree));
    entry.plans = std::make_shared<PlanMemo>();
    if (store->options_.relation_cache_bytes > 0) {
      entry.relations = std::make_shared<ppl::RelationCache>(
          store->options_.relation_cache_bytes);
    }
    // A segment loaded through the manifest is synced and named by it.
    entry.on_disk = entry.in_manifest = dir == store->options_.spill_dir;
    if (segment.meta.interned) {
      // The intern key is a pure function of the tree, so recomputing it
      // beats persisting it (it can be nearly as large as the tree).
      entry.intern_key = InternKey(entry.doc->tree());
    }
    MutexLock intern_lock(store->intern_mu_);
    if (!entry.intern_key.empty()) {
      auto [it, inserted] =
          store->intern_index_.emplace(entry.intern_key, id);
      (void)it;
      if (!inserted) {
        return Status::DataLoss("two interned segments decode to the same "
                                "tree (document " +
                                std::to_string(id) + ")");
      }
    }
    MutexLock lock(shard.mu);
    entry.lru_it = shard.lru.end();
    entry.res_it = shard.resident.end();
    auto [it, inserted] = shard.entries.emplace(id, std::move(entry));
    if (!inserted) {
      return Status::DataLoss("manifest lists document " +
                              std::to_string(id) + " twice");
    }
    Entry& stored = it->second;
    shard.stats.mmap_bytes += segment.mapped_bytes;
    store->TouchResidentLocked(shard, id, stored);
    if (!segment.axes.empty()) {
      // Reinstate the warm AxisCache exactly as a fresh build would have
      // produced it: same backing policy, same bits, zero rebuild work.
      DocumentPtr doc = stored.doc;
      stored.cache = std::shared_ptr<AxisCache>(
          new AxisCache(doc->tree(), store->options_.axis_backing),
          [doc](AxisCache* c) { delete c; });
      const bool dense = !stored.cache->interval_backed();
      for (auto& [axis, runs] : segment.axes) {
        stored.cache->InstallPrebuilt(
            axis, AxisMatrixForBacking(std::move(runs), dense));
      }
      ++shard.stats.cache_builds;
      shard.lru.push_front(id);
      stored.lru_it = shard.lru.begin();
      store->EnforceHotBoundLocked(shard);
    }
    // Keep the load itself inside the memory budget: documents beyond it
    // spill right away (for free -- their segment is already on disk), so
    // peak residency during a reload is budget + the document in hand.
    store->EnforceResidencyLocked(shard);
  }
  return store;
}

}  // namespace xpv::engine
