// Correctness suite for the algebraic plan optimizer: the per-document
// subrelation cache (ppl/relation_cache.h), the planner's composition
// reassociation DP (engine/planner.h), intra-query hash-consing in the
// matrix engine, and canonical query-cache keying. The load-bearing
// property throughout: results are byte-identical with and without every
// optimization layer, at every thread count, so each layer is pure
// performance and the differentials here are its safety net.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/query_cache.h"
#include "engine/query_service.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "ppl/relation_cache.h"
#include "tree/generators.h"
#include "tree/tree.h"

namespace xpv {
namespace {

// ---------------------------------------------- RelationCache unit tests

/// A dense n x n payload with one bit set (distinct bits keep the
/// matrices distinguishable after cache round-trips).
ppl::AnyMatrix OneBit(std::size_t n, std::size_t r, std::size_t c) {
  BitMatrix m(n);
  m.Set(r, c);
  return ppl::AnyMatrix(std::move(m));
}

/// Resident bytes one cached entry costs, measured on a throwaway cache
/// (the accounting constant is an implementation detail the tests must
/// not hardcode).
std::size_t MeasuredEntryBytes(const std::string& key, std::size_t n) {
  ppl::RelationCache probe(1u << 30);
  probe.Put(key, std::make_shared<const ppl::AnyMatrix>(OneBit(n, 0, 0)));
  return probe.stats().resident_bytes;
}

TEST(RelationCacheTest, LruEvictsToBudgetAndPinnedEntriesSurvive) {
  const std::size_t n = 256;
  const std::size_t entry = MeasuredEntryBytes("k1", n);
  // Room for three entries, not four.
  ppl::RelationCache cache(3 * entry + entry / 2);
  cache.Put("k1", std::make_shared<const ppl::AnyMatrix>(OneBit(n, 1, 1)));
  cache.Put("k2", std::make_shared<const ppl::AnyMatrix>(OneBit(n, 2, 2)));
  cache.Put("k3", std::make_shared<const ppl::AnyMatrix>(OneBit(n, 3, 3)));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch k1 so k2 becomes the LRU tail, and keep the handle: eviction
  // must only drop the cache's reference, not the matrix.
  std::shared_ptr<const ppl::AnyMatrix> pinned = cache.Get("k2");
  ASSERT_NE(pinned, nullptr);
  ASSERT_NE(cache.Get("k1"), nullptr);
  cache.Put("k4", std::make_shared<const ppl::AnyMatrix>(OneBit(n, 4, 4)));

  const ppl::RelationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, cache.max_bytes());
  EXPECT_EQ(cache.Get("k3"), nullptr);  // LRU tail at insertion time
  EXPECT_NE(cache.Get("k1"), nullptr);
  EXPECT_NE(cache.Get("k4"), nullptr);
  // The pinned value is still the exact matrix that was evicted.
  EXPECT_TRUE(pinned->Get(2, 2));
  EXPECT_EQ(pinned->Count(), 1u);
}

TEST(RelationCacheTest, OversizeValueIsNotInserted) {
  const std::size_t n = 256;
  const std::size_t entry = MeasuredEntryBytes("big", n);
  ppl::RelationCache cache(entry / 2);
  cache.Put("big", std::make_shared<const ppl::AnyMatrix>(OneBit(n, 0, 0)));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(RelationCacheTest, ResidentBytesTrackPayloadWithinTenPercent) {
  // With multi-KiB payloads the fixed per-entry index overhead must stay
  // inside 10% of the payload bytes -- the budget tracks real memory.
  ppl::RelationCache cache(1u << 30);
  std::size_t payload = 0;
  for (int i = 0; i < 8; ++i) {
    ppl::AnyMatrix m = OneBit(256, static_cast<std::size_t>(i), 0);
    payload += m.resident_bytes();
    cache.Put("key-" + std::to_string(i),
              std::make_shared<const ppl::AnyMatrix>(std::move(m)));
  }
  const std::size_t resident = cache.stats().resident_bytes;
  EXPECT_GE(resident, payload);
  EXPECT_LE(resident, payload + payload / 10);
}

// ------------------------------------- cache-on/off differential batches

ppl::PplBinPtr RandomPplBin(Rng& rng, int depth, bool allow_complement) {
  if (depth <= 0 || rng.Chance(1, 3)) {
    if (rng.Chance(1, 5)) return ppl::PplBinExpr::Self();
    return ppl::PplBinExpr::Step(
        kAllAxes[rng.Below(kAllAxes.size())],
        rng.Chance(1, 3) ? "*" : GeneratorLabel(rng.Below(3)));
  }
  switch (rng.Below(allow_complement ? 4u : 3u)) {
    case 0:
      return ppl::PplBinExpr::Compose(
          RandomPplBin(rng, depth - 1, allow_complement),
          RandomPplBin(rng, depth - 1, allow_complement));
    case 1:
      return ppl::PplBinExpr::Union(
          RandomPplBin(rng, depth - 1, allow_complement),
          RandomPplBin(rng, depth - 1, allow_complement));
    case 2:
      return ppl::PplBinExpr::Filter(
          RandomPplBin(rng, depth - 1, allow_complement));
    default:
      return ppl::PplBinExpr::Complement(
          RandomPplBin(rng, depth - 1, allow_complement));
  }
}

void ExpectPayloadsEqual(const std::vector<engine::QueryResult>& a,
                         const std::vector<engine::QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "job " << i;
    EXPECT_EQ(a[i].relation, b[i].relation) << "job " << i;
    EXPECT_EQ(a[i].from_root, b[i].from_root) << "job " << i;
    EXPECT_EQ(a[i].tuples, b[i].tuples) << "job " << i;
    EXPECT_EQ(a[i].boolean, b[i].boolean) << "job " << i;
    EXPECT_EQ(a[i].count, b[i].count) << "job " << i;
  }
}

/// One evaluation-mode configuration of the on/off differential.
struct ModeConfig {
  const char* name;
  bool positive_only;  // GKP needs positive queries
  engine::PlanOverrides overrides;
};

TEST(RelationCacheDifferentialTest, CacheOnOffByteIdenticalEverywhere) {
  const std::vector<ModeConfig> modes = {
      {"gkp", true, {.engine = engine::EnginePlan::kGkpPositive}},
      {"matrix-dense", false, {.repr = MatrixRepr::kDense}},
      {"matrix-sparse", false, {.repr = MatrixRepr::kSparse}},
  };
  const std::vector<engine::ResultShape> shapes = {
      engine::ResultShape::kFullRelation, engine::ResultShape::kFromRootSet,
      engine::ResultShape::kBoolean, engine::ResultShape::kCount};
  for (const ModeConfig& mode : modes) {
    Rng rng(0x5eed);
    // Two documents per store; jobs repeat queries so steady-state
    // batches are all cache hits on the enabled side.
    std::vector<Tree> trees;
    for (int i = 0; i < 2; ++i) {
      RandomTreeOptions opts;
      opts.num_nodes = 8 + rng.Below(20);
      opts.alphabet_size = 3;
      trees.push_back(RandomTree(rng, opts));
    }
    std::vector<std::string> texts;
    for (int i = 0; i < 10; ++i) {
      texts.push_back(
          ppl::ToXPath(*RandomPplBin(rng, 3, !mode.positive_only))
              ->ToString());
    }
    engine::DocumentStore store_on;  // default budget: cache enabled
    engine::DocumentStoreOptions off;
    off.relation_cache_bytes = 0;
    engine::DocumentStore store_off(off);
    std::vector<engine::DocumentId> ids_on, ids_off;
    for (const Tree& t : trees) {
      Tree copy_on = t, copy_off = t;
      ids_on.push_back(store_on.Insert(std::move(copy_on)));
      ids_off.push_back(store_off.Insert(std::move(copy_off)));
    }
    std::vector<engine::QueryJob> jobs;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < texts.size(); ++i) {
        engine::QueryJob job;
        job.document = ids_on[i % ids_on.size()];  // same ids in both stores
        job.query = texts[i];
        job.shape = shapes[(i + static_cast<std::size_t>(rep)) % shapes.size()];
        job.overrides = mode.overrides;
        jobs.push_back(std::move(job));
      }
    }
    ASSERT_EQ(ids_on, ids_off);
    for (std::size_t threads : {1u, 2u, 8u}) {
      engine::QueryService on(
          {.num_threads = threads, .document_store = &store_on});
      engine::QueryService off_service(
          {.num_threads = threads, .document_store = &store_off});
      // Two rounds each: the second round on the enabled store is served
      // from the now-warm subrelation cache and must still match.
      auto on_cold = on.EvaluateBatch(jobs);
      auto on_warm = on.EvaluateBatch(jobs);
      auto off_cold = off_service.EvaluateBatch(jobs);
      for (const auto& r : on_cold) {
        ASSERT_TRUE(r.status.ok()) << mode.name << ": " << r.status;
      }
      ExpectPayloadsEqual(on_cold, on_warm);
      ExpectPayloadsEqual(on_cold, off_cold);
    }
  }
}

TEST(RelationCacheDifferentialTest, TinyBudgetEvictsButStaysByteIdentical) {
  // A budget far below one relation forces constant eviction churn; the
  // results must not notice, and the resident gauge must respect it.
  Rng rng(0xcac4e);
  RandomTreeOptions opts;
  opts.num_nodes = 24;
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);
  engine::DocumentStoreOptions tiny;
  tiny.relation_cache_bytes = 2048;
  engine::DocumentStore store_tiny(tiny);
  engine::DocumentStoreOptions off;
  off.relation_cache_bytes = 0;
  engine::DocumentStore store_off(off);
  Tree copy_a = t, copy_b = t;
  const engine::DocumentId id_tiny = store_tiny.Insert(std::move(copy_a));
  const engine::DocumentId id_off = store_off.Insert(std::move(copy_b));
  ASSERT_EQ(id_tiny, id_off);
  std::vector<engine::QueryJob> jobs;
  for (int i = 0; i < 12; ++i) {
    engine::QueryJob job;
    job.document = id_tiny;
    job.query =
        ppl::ToXPath(*RandomPplBin(rng, 3, /*allow_complement=*/true))
            ->ToString();
    job.overrides.engine = engine::EnginePlan::kMatrixGeneral;
    jobs.push_back(std::move(job));
  }
  engine::QueryService tiny_service(
      {.num_threads = 2, .document_store = &store_tiny});
  engine::QueryService off_service(
      {.num_threads = 2, .document_store = &store_off});
  auto a = tiny_service.EvaluateBatch(jobs);
  auto b = tiny_service.EvaluateBatch(jobs);
  auto c = off_service.EvaluateBatch(jobs);
  ExpectPayloadsEqual(a, b);
  ExpectPayloadsEqual(a, c);
  EXPECT_LE(store_tiny.stats().relation_cache_bytes, 2048u);
}

TEST(RelationCacheDifferentialTest, OversizeResultsLeaveTheCacheUntouched) {
  // Full relations on 512 nodes are 32 KiB dense: under a 16 KiB budget
  // neither GKP's whole relation nor the dense matrix engine's interior
  // products can be admitted. Such results must not enter the cache (no
  // insertion, no resident bytes), and the answers must match a store
  // with the default budget and one with caching off.
  Rng rng(0x0b16);
  RandomTreeOptions opts;
  opts.num_nodes = 512;
  opts.alphabet_size = 3;
  const Tree t = RandomTree(rng, opts);
  // Fresh stores number their first document alike.
  engine::DocumentId id = 0;
  auto make_store = [&](std::size_t budget) {
    engine::DocumentStoreOptions options;
    options.relation_cache_bytes = budget;
    auto store = std::make_unique<engine::DocumentStore>(options);
    Tree copy = t;
    id = store->Insert(std::move(copy));
    return store;
  };
  auto on = make_store(ppl::RelationCache::kDefaultMaxBytes);
  auto off = make_store(0);
  auto tiny = make_store(16u << 10);
  std::shared_ptr<ppl::RelationCache> tiny_cache = tiny->RelationCacheFor(id);
  ASSERT_NE(tiny_cache, nullptr);
  // One small resident entry, so "unchanged" is not just "still empty".
  tiny_cache->Put("probe", std::make_shared<const ppl::AnyMatrix>(
                               OneBit(8, 1, 2)));
  const ppl::RelationCacheStats before = tiny_cache->stats();
  ASSERT_EQ(before.insertions, 1u);
  ASSERT_GT(before.resident_bytes, 0u);

  std::vector<engine::QueryJob> jobs;
  for (const char* text : {"descendant::a/child::*",
                           "descendant::* except child::b/parent::*"}) {
    engine::QueryJob job;
    job.document = id;
    job.query = text;
    job.shape = engine::ResultShape::kFullRelation;
    if (engine::CompileQuery(text).value()->positive) {
      job.overrides.engine = engine::EnginePlan::kGkpPositive;
    }
    job.overrides.repr = MatrixRepr::kDense;
    jobs.push_back(job);
  }
  engine::QueryService on_service(
      {.num_threads = 1, .document_store = on.get()});
  engine::QueryService off_service(
      {.num_threads = 1, .document_store = off.get()});
  engine::QueryService tiny_service(
      {.num_threads = 1, .document_store = tiny.get()});
  const auto tiny_results = tiny_service.EvaluateBatch(jobs);
  for (const auto& r : tiny_results) {
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_GT(r.relation.Count(), 0u) << r.plan.DebugString();
  }
  EXPECT_EQ(tiny_results[0].plan.engine, engine::EnginePlan::kGkpPositive);
  EXPECT_EQ(tiny_results[1].plan.engine, engine::EnginePlan::kMatrixGeneral);
  const ppl::RelationCacheStats after = tiny_cache->stats();
  EXPECT_GT(after.misses, before.misses);  // the cache was consulted
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  EXPECT_EQ(after.evictions, 0u);

  ExpectPayloadsEqual(tiny_results, on_service.EvaluateBatch(jobs));
  ExpectPayloadsEqual(tiny_results, off_service.EvaluateBatch(jobs));
  // The default budget admits them; a warm rerun still matches.
  EXPECT_GT(on->RelationCacheFor(id)->stats().insertions, 0u);
  ExpectPayloadsEqual(tiny_results, on_service.EvaluateBatch(jobs));
}

// ----------------------------------------- reassociation differentials

/// A path tree whose every 128th node is labeled "rare": the selective
/// last factor the reassociation DP should compose first.
Tree SkewPathTree(std::size_t nodes) {
  TreeBuilder builder;
  for (std::size_t i = 0; i < nodes; ++i) {
    builder.Open(i % 128 == 127 ? "rare" : "a");
  }
  for (std::size_t i = 0; i < nodes; ++i) builder.Close();
  return std::move(builder).Finish().value();
}

TEST(ReassociationTest, ForcedParseOrderDifferential) {
  // "descendant::*/child::*/child::rare" parses left-associated, so the
  // wide descendant-times-child product runs first; the DP must prefer
  // composing the selective child::rare factor first -- and both
  // associations must produce the same bytes.
  const std::string query = "descendant::*/child::*/child::rare";
  engine::DocumentStore store;
  const engine::DocumentId id = store.Insert(SkewPathTree(512));
  engine::QueryService service(
      {.num_threads = 1, .document_store = &store});

  engine::QueryJob optimized;
  optimized.document = id;
  optimized.query = query;
  optimized.shape = engine::ResultShape::kFullRelation;
  optimized.overrides.engine = engine::EnginePlan::kMatrixGeneral;
  engine::QueryJob forced = optimized;
  forced.overrides.parse_order = true;

  auto results = service.EvaluateBatch({optimized, forced});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  ASSERT_TRUE(results[1].status.ok()) << results[1].status;

  // The optimized plan actually changed the association...
  EXPECT_GT(results[0].plan.chains_reassociated, 0u);
  ASSERT_NE(results[0].plan.reassociated, nullptr);
  auto compiled = engine::CompileQuery(query);
  ASSERT_TRUE(compiled.ok());
  EXPECT_NE(results[0].plan.reassociated->ToString(),
            (*compiled)->pplbin->ToString());
  // ...the forced plan did not...
  EXPECT_EQ(results[1].plan.chains_reassociated, 0u);
  EXPECT_EQ(results[1].plan.reassociated, nullptr);
  // ...and the payloads are byte-identical anyway.
  EXPECT_EQ(results[0].relation, results[1].relation);
  EXPECT_EQ(results[0].from_root, results[1].from_root);
}

TEST(ReassociationTest, RandomChainsMatchParseOrderEvaluation) {
  // Fuzz the DP: on random trees, every random compose-heavy query must
  // produce identical payloads with and without PlanOverrides::parse_order.
  Rng rng(0xa550c);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 8 + rng.Below(24);
    opts.alphabet_size = 3;
    Tree t = RandomTree(rng, opts);
    engine::DocumentStore store;
    const engine::DocumentId id = store.Insert(std::move(t));
    engine::QueryService service(
        {.num_threads = 1, .document_store = &store});
    engine::QueryJob job;
    job.document = id;
    job.query =
        ppl::ToXPath(*RandomPplBin(rng, 4, /*allow_complement=*/true))
            ->ToString();
    job.overrides.engine = engine::EnginePlan::kMatrixGeneral;
    engine::QueryJob forced = job;
    forced.overrides.parse_order = true;
    auto results = service.EvaluateBatch({job, forced});
    ASSERT_TRUE(results[0].status.ok())
        << job.query << ": " << results[0].status;
    ASSERT_TRUE(results[1].status.ok())
        << job.query << ": " << results[1].status;
    EXPECT_EQ(results[0].relation, results[1].relation) << job.query;
    EXPECT_EQ(results[0].from_root, results[1].from_root) << job.query;
  }
}

// --------------------------------------------------- stats consistency

TEST(RelationCacheStatsTest, ServiceAndStoreCountersAgree) {
  Rng rng(0x57a75);
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  opts.alphabet_size = 3;
  engine::DocumentStore store;
  std::vector<engine::DocumentId> ids;
  for (int i = 0; i < 2; ++i) {
    ids.push_back(store.Insert(RandomTree(rng, opts)));
  }
  std::vector<engine::QueryJob> jobs;
  for (int i = 0; i < 16; ++i) {
    engine::QueryJob job;
    job.document = ids[static_cast<std::size_t>(i) % ids.size()];
    // Repeat 4 distinct queries so later consults hit.
    Rng qrng(static_cast<std::uint64_t>(i % 4) + 1);
    job.query =
        ppl::ToXPath(*RandomPplBin(qrng, 3, /*allow_complement=*/true))
            ->ToString();
    job.shape = engine::ResultShape::kFullRelation;
    job.overrides.engine = engine::EnginePlan::kMatrixGeneral;
    jobs.push_back(std::move(job));
  }
  engine::QueryService service(
      {.num_threads = 8, .document_store = &store});
  for (const auto& r : service.EvaluateBatch(jobs)) {
    ASSERT_TRUE(r.status.ok()) << r.status;
  }
  for (const auto& r : service.EvaluateBatch(jobs)) {
    ASSERT_TRUE(r.status.ok()) << r.status;
  }
  const engine::ServiceStats svc = service.stats();
  const engine::DocumentStoreStats doc = store.stats();
  // Every consult in this workload came from a store-served job, so the
  // service's per-job counters and the store's per-cache counters are
  // two views of the same events.
  EXPECT_GT(svc.subrel_misses, 0u);
  EXPECT_GT(svc.subrel_hits, 0u);  // warm second batch
  EXPECT_EQ(svc.subrel_hits, doc.relation_hits);
  EXPECT_EQ(svc.subrel_misses, doc.relation_misses);
  EXPECT_GT(doc.relation_cache_bytes, 0u);

  // Stream consults land in the store's counters only (documented on
  // StreamState::target): the service's job counters must not move. The
  // complement sits under a composition, so the sweep reaches it from
  // every descendant of the root and must build (and consult for) its
  // sub-matrix; a top-level `except` is swept from the root alone and
  // would consult nothing.
  auto stream = service.OpenStream(
      ids[0], "descendant::*/(descendant::* except child::a)");
  ASSERT_TRUE(stream.ok()) << stream.status();
  while (!stream->done()) {
    auto batch = stream->NextBatch(64);
    ASSERT_TRUE(batch.ok()) << batch.status();
    if (batch->empty()) break;
  }
  const engine::ServiceStats svc_after = service.stats();
  const engine::DocumentStoreStats doc_after = store.stats();
  EXPECT_EQ(svc_after.subrel_hits, svc.subrel_hits);
  EXPECT_EQ(svc_after.subrel_misses, svc.subrel_misses);
  EXPECT_GT(doc_after.relation_hits + doc_after.relation_misses,
            doc.relation_hits + doc.relation_misses);
}

// ------------------------------------------- intra-query hash-consing

TEST(HashConsingTest, DuplicateSubtreesEvaluateOnce) {
  // (a/b) | ((a/b)/c): without hash-consing the engine runs 3 Boolean
  // products; with it, the duplicated a/b costs one, for 2 total.
  Tree t = *Tree::ParseTerm("a(b(c),a(b(c(a))),c(a(b)))");
  using ppl::PplBinExpr;
  ppl::PplBinPtr ab = PplBinExpr::Compose(
      PplBinExpr::Step(Axis::kChild, "a"), PplBinExpr::Step(Axis::kChild, "b"));
  ppl::PplBinPtr p = PplBinExpr::Union(
      ab->Clone(), PplBinExpr::Compose(
                       ab->Clone(), PplBinExpr::Step(Axis::kDescendant, "c")));
  ppl::MatrixEngine engine(t);
  Result<ppl::AnyMatrix> rel = engine.EvaluateAny(*p);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(engine.stats().dense_products + engine.stats().sparse_products,
            2u);
}

// -------------------------------------------- canonical query caching

TEST(QueryCacheTest, SyntacticVariantsShareOneEntry) {
  engine::QueryCache cache;
  auto a = cache.GetOrCompile("descendant::a/child::b");
  auto b = cache.GetOrCompile("  descendant::a  /  child::b  ");
  auto c = cache.GetOrCompile("(descendant::a)/child::b");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ((*a)->canonical_text, (*b)->canonical_text);
  EXPECT_EQ((*a)->canonical_text, (*c)->canonical_text);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(cache.aliases(), 2u);
  // First sighting of each raw variant compiles (misses = compilations);
  // repeats are served through the alias index without recompiling.
  EXPECT_EQ(cache.misses(), 3u);
  cache.GetOrCompile("  descendant::a  /  child::b  ");
  cache.GetOrCompile("(descendant::a)/child::b");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(QueryCacheTest, CommutedUnionsShareOneEntry) {
  engine::QueryCache cache;
  auto a = cache.GetOrCompile("child::a union child::b");
  auto b = cache.GetOrCompile("child::b union child::a");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->canonical_text, (*b)->canonical_text);
  EXPECT_EQ(cache.size(), 1u);
  // The commuted spelling aliases onto the same canonical entry: its
  // repeat is a hit, not a third compilation.
  cache.GetOrCompile("child::b union child::a");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace xpv
