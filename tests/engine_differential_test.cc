// Differential equivalence suite for the batch query-evaluation subsystem:
// on seeded random trees and random queries, the efficient engines
// (ppl::GkpEngine, ppl::MatrixEngine) and the batched QueryService at
// every thread count must agree with the literal Fig. 2 semantics
// (xpath::DirectEvaluator), and batch results must be byte-identical
// across thread counts.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/query_service.h"
#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "tree/generators.h"
#include "xpath/eval.h"
#include "xpath/parser.h"

namespace xpv {
namespace {

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

Tree MakeRandomTree(Rng& rng) {
  RandomTreeOptions opts;
  opts.num_nodes = 4 + rng.Below(28);
  opts.alphabet_size = 3;
  return RandomTree(rng, opts);
}

/// Ground truth: the Fig. 2 denotational semantics on the Core XPath 2.0
/// image of the PPLbin expression.
BitMatrix GroundTruth(const Tree& t, const ppl::PplBinExpr& p) {
  xpath::DirectEvaluator eval(t);
  return eval.EvalPath(*ppl::ToXPath(p), {});
}

// ------------------------------------------------------- engine agreement

class EngineDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineDifferentialTest, MatrixEngineMatchesDirectSemantics) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/true);
    ppl::MatrixEngine engine(t);
    EXPECT_EQ(engine.Evaluate(*p), GroundTruth(t, *p))
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
  }
}

TEST_P(EngineDifferentialTest, GkpEngineMatchesDirectSemantics) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/false);
    ASSERT_TRUE(p->IsPositive());
    ppl::GkpEngine engine(t);
    Result<BitMatrix> rel = engine.Relation(*p);
    ASSERT_TRUE(rel.ok()) << rel.status();
    EXPECT_EQ(*rel, GroundTruth(t, *p))
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
  }
}

// ----------------------------------------------- QueryService equivalence

struct Batch {
  std::vector<Tree> trees;
  std::vector<ppl::PplBinPtr> exprs;   // queries[i] is exprs[i] as text
  std::vector<std::size_t> tree_of;    // jobs[i] runs on trees[tree_of[i]]
  std::vector<std::string> queries;
};

/// A mixed batch over several trees; queries are submitted as Core XPath
/// 2.0 surface text, exercising the full parse -> plan -> execute path.
/// Trees repeat so jobs share per-document axis caches, and query texts
/// repeat so the compiled-query cache gets hits.
Batch MakeBatch(std::uint64_t seed, std::size_t num_jobs) {
  Batch b;
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) b.trees.push_back(MakeRandomTree(rng));
  for (std::size_t i = 0; i < num_jobs; ++i) {
    ppl::PplBinPtr p = i % 5 == 4 && i >= 5
                           ? b.exprs[i - 5]->Clone()  // repeat query text
                           : RandomPplBin(rng, 3, /*allow_complement=*/true);
    b.tree_of.push_back(rng.Below(b.trees.size()));
    b.queries.push_back(ppl::ToXPath(*p)->ToString());
    b.exprs.push_back(std::move(p));
  }
  return b;
}

/// Stores copies of the batch's trees in `store` and returns the batch's
/// jobs addressing them.
std::vector<engine::QueryJob> StoreJobs(const Batch& batch,
                                        engine::DocumentStore& store) {
  std::vector<engine::DocumentId> ids;
  for (const Tree& t : batch.trees) ids.push_back(store.Insert(Tree(t)));
  std::vector<engine::QueryJob> jobs;
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    engine::QueryJob job;
    job.document = ids[batch.tree_of[i]];
    job.query = batch.queries[i];
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void ExpectResultsEqual(const std::vector<engine::QueryResult>& a,
                        const std::vector<engine::QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "job " << i;
    EXPECT_TRUE(a[i].plan == b[i].plan)
        << "job " << i << ": " << a[i].plan.DebugString() << " vs "
        << b[i].plan.DebugString();
    EXPECT_EQ(a[i].relation, b[i].relation) << "job " << i;
    EXPECT_EQ(a[i].from_root, b[i].from_root) << "job " << i;
    EXPECT_EQ(a[i].tuples, b[i].tuples) << "job " << i;
    EXPECT_EQ(a[i].boolean, b[i].boolean) << "job " << i;
    EXPECT_EQ(a[i].count, b[i].count) << "job " << i;
  }
}

class ServiceDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ServiceDifferentialTest, ServiceMatchesDirectSemanticsAllThreadCounts) {
  Batch batch = MakeBatch(GetParam(), 40);
  std::vector<std::vector<engine::QueryResult>> per_thread_count;
  for (std::size_t threads : {1u, 2u, 8u}) {
    // A fresh store per service: every thread count starts cold.
    engine::DocumentStore store;
    const std::vector<engine::QueryJob> jobs = StoreJobs(batch, store);
    engine::QueryService service(
        {.num_threads = threads, .document_store = &store});
    per_thread_count.push_back(service.EvaluateBatch(jobs));
    const auto& results = per_thread_count.back();
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << "threads=" << threads << " job " << i << ": "
          << results[i].status << "\nquery: " << jobs[i].query;
      const Tree& t = batch.trees[batch.tree_of[i]];
      BitMatrix truth = GroundTruth(t, *batch.exprs[i]);
      EXPECT_EQ(results[i].relation, truth)
          << "threads=" << threads << " job " << i
          << "\nquery: " << jobs[i].query;
      // The monadic restriction must be the root row of the relation.
      EXPECT_EQ(results[i].from_root, truth.Row(t.root()))
          << "threads=" << threads << " job " << i;
    }
  }
  // Determinism: same seed => byte-identical results at 1, 2, 8 threads.
  ExpectResultsEqual(per_thread_count[0], per_thread_count[1]);
  ExpectResultsEqual(per_thread_count[0], per_thread_count[2]);
}

TEST_P(ServiceDifferentialTest, RepeatedBatchesAreDeterministic) {
  Batch batch = MakeBatch(GetParam() ^ 0xabcdef, 20);
  engine::DocumentStore store;
  const std::vector<engine::QueryJob> jobs = StoreJobs(batch, store);
  engine::QueryService service({.num_threads = 8, .document_store = &store});
  auto first = service.EvaluateBatch(jobs);
  auto second = service.EvaluateBatch(jobs);
  ExpectResultsEqual(first, second);
  // Every distinct query compiled exactly once across both batches.
  EXPECT_EQ(service.cache().hits() + service.cache().misses(),
            2 * jobs.size());
  EXPECT_LT(service.cache().misses(), service.cache().hits());
}

// --------------------------------------------- DocumentStore equivalence

TEST_P(ServiceDifferentialTest, ShardedStoreMatchesSingleStore) {
  // The sharded corpus must be invisible to results: the same batch
  // served from stores with 1 (the pre-sharding behavior), 4, and 16
  // shards is byte-identical at every thread count. Shard counts straddle
  // the document count (4), so some shards hold several documents and
  // some none.
  Batch batch = MakeBatch(GetParam() ^ 0x5a5a, 40);
  std::vector<std::vector<engine::QueryResult>> baselines;
  for (std::size_t threads : {1u, 2u, 8u}) {
    baselines.emplace_back();
    for (std::size_t shards : {1u, 4u, 16u}) {
      engine::DocumentStore store(
          {.max_hot_caches = 64, .num_shards = shards});
      engine::QueryService service(
          {.num_threads = threads, .document_store = &store});
      auto results = service.EvaluateBatch(StoreJobs(batch, store));
      for (const auto& r : results) ASSERT_TRUE(r.status.ok()) << r.status;
      if (baselines.back().empty()) {
        baselines.back() = std::move(results);
      } else {
        ExpectResultsEqual(baselines.back(), results);  // across shards
      }
    }
  }
  ExpectResultsEqual(baselines[0], baselines[1]);  // across thread counts
  ExpectResultsEqual(baselines[0], baselines[2]);
}

TEST_P(ServiceDifferentialTest, StoreCachesPersistAcrossBatches) {
  Batch batch = MakeBatch(GetParam() ^ 0xcafe, 30);
  engine::DocumentStore store;
  std::vector<engine::QueryJob> doc_jobs = StoreJobs(batch, store);
  std::vector<engine::DocumentId> ids;
  for (const engine::QueryJob& job : doc_jobs) {
    if (std::find(ids.begin(), ids.end(), job.document) == ids.end()) {
      ids.push_back(job.document);
    }
  }

  engine::QueryService service(
      {.num_threads = 8, .document_store = &store});
  auto first = service.EvaluateBatch(doc_jobs);
  const engine::DocumentStoreStats after_first = store.stats();
  auto second = service.EvaluateBatch(doc_jobs);
  auto third = service.EvaluateBatch(doc_jobs);
  const engine::DocumentStoreStats after_third = store.stats();
  ExpectResultsEqual(first, second);
  ExpectResultsEqual(first, third);

  // Axis-cache reuse across batches: each document's cache was built at
  // most once (during the first batch), and the later batches only hit.
  EXPECT_LE(after_first.cache_builds, ids.size());
  EXPECT_EQ(after_third.cache_builds, after_first.cache_builds);
  EXPECT_GT(after_third.cache_hits, after_first.cache_hits);
  EXPECT_EQ(after_third.cache_retirements, 0u);
  // And the caches really are warm: no document's AxisCache materializes
  // any new relation during a repeated batch.
  std::vector<std::size_t> built;
  for (engine::DocumentId id : ids) {
    built.push_back(store.AxisCacheFor(id)->matrices_built());
  }
  auto fourth = service.EvaluateBatch(doc_jobs);
  ExpectResultsEqual(first, fourth);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(store.AxisCacheFor(ids[k])->matrices_built(), built[k])
        << "document " << ids[k];
  }
}

TEST(DocumentStoreTest, InternDeduplicatesByContent) {
  engine::DocumentStore store;
  Tree a = *Tree::ParseTerm("a(b,c(d))");
  Tree b = *Tree::ParseTerm("a(b,c(d))");
  Tree c = *Tree::ParseTerm("a(b,c(e))");
  engine::DocumentId id1 = store.Intern(std::move(a));
  engine::DocumentId id2 = store.Intern(std::move(b));
  engine::DocumentId id3 = store.Intern(std::move(c));
  EXPECT_EQ(id1, id2);
  EXPECT_NE(id1, id3);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().intern_hits, 1u);
}

TEST(DocumentStoreTest, InternKeyIsUnambiguousForAdversarialLabels) {
  // TreeBuilder accepts arbitrary label bytes; a single node labeled
  // "a(b)" must not collide with the two-node tree ParseTerm("a(b)").
  engine::DocumentStore store;
  TreeBuilder adversarial;
  adversarial.Leaf("a(b)");
  Tree one_node = *std::move(adversarial).Finish();
  Tree two_nodes = *Tree::ParseTerm("a(b)");
  engine::DocumentId id1 = store.Intern(std::move(one_node));
  engine::DocumentId id2 = store.Intern(std::move(two_nodes));
  EXPECT_NE(id1, id2);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().intern_hits, 0u);
}

TEST(DocumentStoreTest, LruRetiresColdCaches) {
  // One shard so the four documents compete for one LRU budget.
  engine::DocumentStore store({.max_hot_caches = 2, .num_shards = 1});
  Rng rng(3);
  std::vector<engine::DocumentId> ids;
  for (int i = 0; i < 4; ++i) {
    RandomTreeOptions opts;
    opts.num_nodes = 12;
    ids.push_back(store.Insert(RandomTree(rng, opts)));
  }
  // Touch all four: only the last two stay hot.
  std::vector<std::shared_ptr<AxisCache>> held;
  for (engine::DocumentId id : ids) held.push_back(store.AxisCacheFor(id));
  engine::DocumentStoreStats stats = store.stats();
  EXPECT_EQ(stats.cache_builds, 4u);
  EXPECT_EQ(stats.hot_caches, 2u);
  EXPECT_EQ(stats.cache_retirements, 2u);
  // Retired caches stay usable through outstanding handles...
  EXPECT_EQ(held[0]->Matrix(Axis::kChild).size(), 12u);
  // ...and a cold document rebuilds on next access.
  std::shared_ptr<AxisCache> rebuilt = store.AxisCacheFor(ids[0]);
  EXPECT_NE(rebuilt.get(), held[0].get());
  EXPECT_EQ(store.stats().cache_builds, 5u);
}

TEST(DocumentStoreTest, PerShardLruBudgetsAreIndependent) {
  // 4 shards, budget 4 => one hot cache per shard. Two documents in the
  // same shard thrash that shard's budget; documents in other shards are
  // untouched.
  engine::DocumentStore store({.max_hot_caches = 4, .num_shards = 4});
  Rng rng(5);
  std::vector<engine::DocumentId> ids;
  for (int i = 0; i < 8; ++i) {
    RandomTreeOptions opts;
    opts.num_nodes = 10;
    ids.push_back(store.Insert(RandomTree(rng, opts)));
  }
  // Ids are allocated round-robin across shards: ids[0] and ids[4] share
  // a shard, ids[1] lives elsewhere.
  ASSERT_EQ(store.shard_of(ids[0]), store.shard_of(ids[4]));
  ASSERT_NE(store.shard_of(ids[0]), store.shard_of(ids[1]));
  store.AxisCacheFor(ids[0]);
  store.AxisCacheFor(ids[1])->Matrix(Axis::kChild);  // materialize bytes
  store.AxisCacheFor(ids[4]);  // evicts ids[0] from their shared shard
  const std::vector<engine::DocumentStoreStats> per_shard =
      store.shard_stats();
  ASSERT_EQ(per_shard.size(), 4u);
  EXPECT_EQ(per_shard[store.shard_of(ids[0])].cache_retirements, 1u);
  EXPECT_EQ(per_shard[store.shard_of(ids[1])].cache_retirements, 0u);
  EXPECT_EQ(per_shard[store.shard_of(ids[1])].hot_caches, 1u);
  // The aggregate is the sum of the shards.
  const engine::DocumentStoreStats total = store.stats();
  EXPECT_EQ(total.documents, 8u);
  EXPECT_EQ(total.hot_caches, 2u);
  EXPECT_EQ(total.cache_builds, 3u);
  EXPECT_EQ(total.cache_retirements, 1u);
  EXPECT_GT(total.hot_cache_bytes, 0u);
}

TEST(DocumentStoreTest, ErrorsForUnknownOrAmbiguousAddressing) {
  engine::DocumentStore store;
  engine::QueryService service({.document_store = &store});
  // Unknown id.
  engine::QueryResult r = service.Evaluate(engine::DocumentId{42}, "child::a");
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  // No store configured.
  engine::QueryService storeless({.num_threads = 1});
  engine::QueryJob job;
  job.document = 1;
  job.query = "child::a";
  auto results = storeless.EvaluateBatch({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(DocumentStoreTest, NoDocumentIsInvalidArgumentOnEveryPath) {
  // kNoDocument has one typed answer -- InvalidArgument -- on the batch,
  // Evaluate and OpenStream paths, with or without a store.
  engine::DocumentStore store;
  store.Insert(*Tree::ParseTerm("a(b)"));
  engine::QueryService stored({.num_threads = 2, .document_store = &store});
  engine::QueryService storeless({.num_threads = 1});
  for (engine::QueryService* service : {&stored, &storeless}) {
    engine::QueryJob job;  // document = kNoDocument
    job.query = "child::b";
    auto batch = service->EvaluateBatch({job, job});
    ASSERT_EQ(batch.size(), 2u);
    for (const engine::QueryResult& r : batch) {
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << r.status;
    }
    EXPECT_EQ(service->Evaluate(engine::kNoDocument, "child::b").status.code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        service->OpenStream(engine::kNoDocument, "child::b").status().code(),
        StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------------- n-ary dispatch

TEST(ServiceNaryTest, VariableQueriesMatchNaiveEnumeration) {
  // PPL queries with free variables route to the Section 7 answer
  // machinery; ground truth is brute-force assignment enumeration.
  const std::vector<std::string> queries = {
      "descendant::a/$x",
      "$x/descendant::b",
      "descendant::*[child::a]/$x/child::*",
      "(descendant::a union descendant::b)/$y",
  };
  Rng rng(7);
  engine::QueryService service({.num_threads = 2});
  for (int trial = 0; trial < 4; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 4 + rng.Below(8);  // naive is |t|^k
    Tree t = RandomTree(rng, opts);
    for (const std::string& text : queries) {
      engine::QueryResult result = service.Evaluate(t, text);
      ASSERT_TRUE(result.status.ok()) << text << ": " << result.status;
      ASSERT_EQ(result.plan.engine, engine::EnginePlan::kNaryAnswer) << text;

      Result<xpath::PathPtr> path = xpath::ParsePath(text);
      ASSERT_TRUE(path.ok());
      const std::set<std::string> free_vars = xpath::FreeVars(**path);
      std::vector<std::string> tuple_vars(free_vars.begin(), free_vars.end());
      xpath::DirectEvaluator eval(t);
      EXPECT_EQ(result.tuples, eval.EvalNaryNaive(**path, tuple_vars))
          << text << "\ntree: " << t.ToTerm();
    }
  }
}

// --------------------------------------------------------- plan selection

TEST(CompileQueryTest, AdmissibleEnginesMatchFragments) {
  using engine::EnginePlan;
  auto admissible_of = [](std::string_view text) {
    auto q = engine::CompileQuery(text);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status();
    return (*q)->admissible;
  };
  const std::vector<EnginePlan> positive = {EnginePlan::kGkpPositive,
                                            EnginePlan::kMatrixGeneral};
  const std::vector<EnginePlan> general = {EnginePlan::kMatrixGeneral};
  const std::vector<EnginePlan> nary = {EnginePlan::kNaryAnswer};
  EXPECT_EQ(admissible_of("child::a/descendant::b"), positive);
  EXPECT_EQ(admissible_of("descendant::*[child::a]"), positive);
  EXPECT_EQ(admissible_of("child::* except child::a"), general);
  EXPECT_EQ(admissible_of("descendant::a/$x"), nary);

  // Abbreviated syntax is accepted and desugared.
  EXPECT_EQ(admissible_of("a//b"), positive);

  // Syntax errors and non-PPL queries are rejected.
  EXPECT_FALSE(engine::CompileQuery("child::").ok());
  // NVS(/): $x shared across a composition is outside PPL.
  EXPECT_EQ(engine::CompileQuery("$x/child::*/$x").status().code(),
            StatusCode::kFragmentViolation);
}

// -------------------------------------------- new BitMatrix kernel checks

TEST(BitMatrixKernelTest, BlockedMultiplyMatchesNaive) {
  Rng rng(11);
  for (std::size_t n : {1u, 63u, 64u, 65u, 200u, 700u}) {
    BitMatrix a(n), b(n);
    for (std::size_t k = 0; k < n * n / 7 + 1; ++k) {
      a.Set(rng.Below(n), rng.Below(n));
      b.Set(rng.Below(n), rng.Below(n));
    }
    EXPECT_EQ(a.Multiply(b), a.MultiplyNaive(b)) << "n=" << n;
  }
}

TEST(BitMatrixKernelTest, BlockTransposeMatchesNaive) {
  Rng rng(13);
  for (std::size_t n : {1u, 63u, 64u, 65u, 200u, 700u}) {
    BitMatrix m(n);
    for (std::size_t k = 0; k < n * n / 5 + 1; ++k) {
      m.Set(rng.Below(n), rng.Below(n));
    }
    BitMatrix t = m.Transpose();
    BitMatrix expected(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (m.Get(r, c)) expected.Set(c, r);
      }
    }
    EXPECT_EQ(t, expected) << "n=" << n;
    EXPECT_EQ(t.Transpose(), m) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5));
INSTANTIATE_TEST_SUITE_P(Seeds, ServiceDifferentialTest,
                         ::testing::Values(10, 20, 30));

}  // namespace
}  // namespace xpv
