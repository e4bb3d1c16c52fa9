// Admission-control and shard-scheduling tests for the QueryService front
// end: bounded TrySubmit queue with kOverloaded backpressure, accepted
// batches that always complete exactly once, per-batch deadlines and
// cancellation, ServiceStats accounting, and a shard-rebalance stress test
// that removes documents while batches are in flight on their shard.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/document_store.h"
#include "engine/query_service.h"
#include "tree/generators.h"

namespace xpv {
namespace {

using engine::BatchHandle;
using engine::BatchOptions;
using engine::DocumentId;
using engine::DocumentStore;
using engine::QueryJob;
using engine::QueryResult;
using engine::QueryService;
using engine::ServiceStats;

Tree MakeTree(std::uint64_t seed, std::size_t nodes) {
  Rng rng(seed);
  RandomTreeOptions opts;
  opts.num_nodes = nodes;
  opts.alphabet_size = 3;
  return RandomTree(rng, opts);
}

/// A batch of `n` jobs running `query` against stored document `id`.
std::vector<QueryJob> DocBatch(DocumentId id, const std::string& query,
                               std::size_t n) {
  std::vector<QueryJob> jobs(n);
  for (QueryJob& job : jobs) {
    job.document = id;
    job.query = query;
  }
  return jobs;
}

// A general-PPLbin (complement) query keeps the matrix engine busy with
// full O(n^3/64) Boolean products, so a batch of them holds the service
// in flight long enough for the admission queue to fill behind it. Stores
// serving it disable the relation cache, so every job evaluates instead of
// hitting the first job's cached relation.
constexpr char kHeavyQuery[] = "descendant::* except descendant::a";
constexpr char kLightQuery[] = "child::a";

TEST(AdmissionTest, OverfilledQueueRejectsWithOverloaded) {
  Tree heavy_tree = MakeTree(1, 1200);
  Tree light_tree = MakeTree(2, 12);
  DocumentStore store({.relation_cache_bytes = 0});
  const DocumentId heavy_id = store.Insert(Tree(heavy_tree));
  const DocumentId light_id = store.Insert(Tree(light_tree));
  QueryService service({.num_threads = 2,
                        .document_store = &store,
                        .max_queued_batches = 1,
                        .max_inflight_batches = 1});

  // Expected results, computed on an unrelated service so this service's
  // counters stay attributable to the submissions below.
  QueryService oracle({.num_threads = 1});
  const QueryResult heavy_expected =
      oracle.Evaluate(heavy_tree, kHeavyQuery);
  const QueryResult light_expected =
      oracle.Evaluate(light_tree, kLightQuery);
  ASSERT_TRUE(heavy_expected.status.ok());
  ASSERT_TRUE(light_expected.status.ok());

  // One slow batch occupies the single in-flight slot...
  auto heavy = service.TrySubmit(DocBatch(heavy_id, kHeavyQuery, 6));
  ASSERT_TRUE(heavy.ok()) << heavy.status();
  // ...so a burst of further submissions overfills the depth-1 queue.
  std::vector<BatchHandle> accepted = {*heavy};
  std::vector<std::size_t> accepted_sizes = {6};
  std::size_t rejected = 0;
  for (int i = 0; i < 32; ++i) {
    auto h = service.TrySubmit(DocBatch(light_id, kLightQuery, 2));
    if (h.ok()) {
      accepted.push_back(*h);
      accepted_sizes.push_back(2);
    } else {
      EXPECT_EQ(h.status().code(), StatusCode::kOverloaded) << h.status();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);

  // Every *accepted* batch still completes with correct results: the
  // rejections neither lost nor re-ran accepted jobs.
  std::size_t total_accepted_jobs = 0;
  for (std::size_t b = 0; b < accepted.size(); ++b) {
    std::vector<QueryResult> results = accepted[b].Wait();
    ASSERT_EQ(results.size(), accepted_sizes[b]);
    total_accepted_jobs += results.size();
    const QueryResult& expected = b == 0 ? heavy_expected : light_expected;
    for (const QueryResult& r : results) {
      ASSERT_TRUE(r.status.ok()) << r.status;
      EXPECT_EQ(r.relation, expected.relation);
      EXPECT_EQ(r.from_root, expected.from_root);
    }
  }

  // The counters add up at quiescence.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches_accepted, accepted.size());
  EXPECT_EQ(stats.batches_rejected, rejected);
  EXPECT_EQ(stats.batches_completed, accepted.size());
  EXPECT_EQ(stats.batches_queued, 0u);
  EXPECT_EQ(stats.batches_running, 0u);
  EXPECT_EQ(stats.jobs_completed, total_accepted_jobs);
  EXPECT_EQ(stats.jobs_cancelled, 0u);
  EXPECT_EQ(stats.jobs_deadline_exceeded, 0u);
}

TEST(AdmissionTest, AcceptedJobsRunExactlyOnceUnderChurn) {
  DocumentStore store;
  const DocumentId id = store.Insert(MakeTree(3, 40));
  QueryService service({.num_threads = 2,
                        .document_store = &store,
                        .max_queued_batches = 4,
                        .max_inflight_batches = 2});
  std::vector<BatchHandle> accepted;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 100; ++i) {
    auto h = service.TrySubmit(DocBatch(id, "descendant::b", 3));
    if (h.ok()) {
      accepted.push_back(*h);
    } else {
      ASSERT_EQ(h.status().code(), StatusCode::kOverloaded);
      ++rejected;
    }
  }
  for (BatchHandle& h : accepted) {
    std::vector<QueryResult> results = h.Wait();
    ASSERT_EQ(results.size(), 3u);
    for (const QueryResult& r : results) EXPECT_TRUE(r.status.ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches_accepted, accepted.size());
  EXPECT_EQ(stats.batches_rejected, rejected);
  EXPECT_EQ(stats.batches_accepted + stats.batches_rejected, 100u);
  EXPECT_EQ(stats.batches_completed, accepted.size());
  // Exactly-once accounting: had any accepted job been lost, Wait() above
  // would have returned a short vector; had any been double-run, the
  // executed-job counter would exceed 3 per accepted batch.
  EXPECT_EQ(stats.jobs_completed, 3 * accepted.size());
}

TEST(AdmissionTest, DestructionDrainsAcceptedBatches) {
  DocumentStore store;  // outlives the service and its batches
  const DocumentId id = store.Insert(MakeTree(4, 64));
  std::vector<BatchHandle> handles;
  {
    QueryService service({.num_threads = 2,
                          .document_store = &store,
                          .max_queued_batches = 0,  // unbounded queue
                          .max_inflight_batches = 1});
    for (int i = 0; i < 8; ++i) {
      auto h = service.TrySubmit(DocBatch(id, "descendant::a", 4));
      ASSERT_TRUE(h.ok()) << h.status();
      handles.push_back(*h);
    }
    // Destructor runs here with most batches still queued.
  }
  for (BatchHandle& h : handles) {
    EXPECT_TRUE(h.done());
    std::vector<QueryResult> results = h.Wait();
    ASSERT_EQ(results.size(), 4u);
    for (const QueryResult& r : results) EXPECT_TRUE(r.status.ok());
  }
}

TEST(AdmissionTest, ExpiredDeadlineSkipsJobsWithDeadlineExceeded) {
  DocumentStore store({.num_shards = 2});
  const DocumentId id = store.Insert(MakeTree(5, 30));
  QueryService service({.num_threads = 2, .document_store = &store});
  BatchOptions options;
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  std::vector<QueryJob> jobs(5);
  for (QueryJob& job : jobs) {
    job.document = id;
    job.query = kLightQuery;
  }
  auto h = service.TrySubmit(std::move(jobs), options);
  ASSERT_TRUE(h.ok()) << h.status();
  std::vector<QueryResult> results = h->Wait();
  ASSERT_EQ(results.size(), 5u);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_deadline_exceeded, 5u);
  EXPECT_EQ(stats.jobs_completed, 0u);
  EXPECT_EQ(stats.batches_completed, 1u);  // skipped batches still complete
  // A doomed batch must not churn the corpus: no document was resolved,
  // no axis cache built, no LRU touched.
  EXPECT_EQ(store.stats().cache_builds, 0u);
  EXPECT_EQ(store.stats().cache_hits, 0u);
}

TEST(AdmissionTest, CancelSkipsUnstartedJobsAndAccountsExactly) {
  DocumentStore store({.relation_cache_bytes = 0});
  const DocumentId id = store.Insert(MakeTree(6, 900));
  QueryService service({.num_threads = 2,
                        .document_store = &store,
                        .max_inflight_batches = 1});
  auto h = service.TrySubmit(DocBatch(id, kHeavyQuery, 8));
  ASSERT_TRUE(h.ok()) << h.status();
  h->Cancel();
  std::vector<QueryResult> results = h->Wait();
  ASSERT_EQ(results.size(), 8u);
  std::size_t ran = 0, cancelled = 0;
  for (const QueryResult& r : results) {
    if (r.status.ok()) {
      ++ran;  // was already running when the cancel landed
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
      ++cancelled;
    }
  }
  EXPECT_EQ(ran + cancelled, 8u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, ran);
  EXPECT_EQ(stats.jobs_cancelled, cancelled);
  EXPECT_EQ(stats.batches_completed, 1u);
}

TEST(AdmissionTest, DeadlinePassingInsideAProductStopsTheDenseJob) {
  // A forced-dense, parse-order chain on a path: descendant x child is a
  // ~n^3/128-word product (~0.8 s at n = 6144 on a 4-core VM, optimized
  // build), and its result times child is a second one. The deadline
  // lands 20 ms after submit, about 40x inside the first product, yet
  // after the job has started. The engine must notice it between the
  // two products, not run the whole chain and return OK. Dense axes,
  // built before the timed batch, keep the leaves to a copy each.
  DocumentStore store(
      {.axis_backing = AxisBacking::kDense, .relation_cache_bytes = 0});
  const DocumentId id = store.Insert(PathTree(6144));
  QueryService service({.num_threads = 1, .document_store = &store});
  QueryJob job;
  job.document = id;
  job.query = "descendant::*/child::*/child::*";
  job.overrides.engine = engine::EnginePlan::kMatrixGeneral;
  job.overrides.repr = MatrixRepr::kDense;
  job.overrides.parse_order = true;
  ASSERT_TRUE(service
                  .Evaluate(id, "descendant::* union child::*",
                            engine::ResultShape::kCount)
                  .status.ok());

  BatchOptions options;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  auto h = service.TrySubmit({job}, options);
  ASSERT_TRUE(h.ok()) << h.status();
  std::vector<QueryResult> results = h->Wait();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded)
      << results[0].status;
  // Fired inside the engine, not by the start-of-job admission check.
  EXPECT_NE(results[0].status.message().find("mid-run"), std::string::npos)
      << results[0].status;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_deadline_exceeded, 1u);
  // The second product never ran. (A slow sanitizer build may pass the
  // deadline before the first one starts; that stops the job too.)
  EXPECT_LE(stats.dense_products, 1u);
}

// ------------------------------------------- shard rebalance under Remove
//
// Documents are removed (and fresh ones inserted) while batches are in
// flight on their shard. Resolved documents are pinned by shared_ptr at
// batch start, so an accepted job must either produce the correct result
// for its document's (immutable) content or report NotFound when the
// document was removed before its batch resolved it -- never crash, hang,
// or return a wrong payload. A few documents are never churned, and every
// batch addresses one of them, so every batch runs at least one job
// whatever the interleaving: the NotFound branch never starves the OK one.
TEST(AdmissionStressTest, ShardRebalanceUnderRemove) {
  // Every document is structurally identical, so any OK result must match
  // one precomputed expectation per query regardless of interleaving.
  const std::string term = "a(b(a,c),c(b(a),a),b)";
  Tree content = *Tree::ParseTerm(term);
  const std::vector<std::string> queries = {
      "descendant::a", "child::*[descendant::c]", kHeavyQuery};
  QueryService oracle({.num_threads = 1});
  std::vector<QueryResult> expected;
  for (const std::string& q : queries) {
    expected.push_back(oracle.Evaluate(content, q));
    ASSERT_TRUE(expected.back().status.ok());
  }

  DocumentStore store({.max_hot_caches = 4, .num_shards = 4});
  QueryService service({.num_threads = 4,
                        .document_store = &store,
                        .max_queued_batches = 0,
                        .max_inflight_batches = 2});
  constexpr std::size_t kDocs = 16;
  constexpr std::size_t kPinned = 4;  // live[0..kPinned) are never removed
  std::vector<std::atomic<DocumentId>> live(kDocs);
  for (std::size_t d = 0; d < kDocs; ++d) {
    live[d] = store.InsertTerm(term).value();
  }

  // Churn thread: keep removing unpinned documents and replacing them
  // with fresh ids (which land on rotating shards) while batches run.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t d = kPinned + rng.Below(kDocs - kPinned);
      const DocumentId old_id = live[d].load(std::memory_order_relaxed);
      const DocumentId new_id = store.InsertTerm(term).value();
      live[d].store(new_id, std::memory_order_relaxed);
      EXPECT_TRUE(store.Remove(old_id));
      std::this_thread::yield();
    }
  });

  Rng rng(7);
  std::vector<BatchHandle> handles;
  std::vector<std::vector<std::size_t>> query_of_job;
  std::vector<std::vector<bool>> pinned_job;
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<QueryJob> jobs;
    std::vector<std::size_t> qids;
    std::vector<bool> pinned;
    for (int j = 0; j < 12; ++j) {
      QueryJob job;
      // The first job of every batch addresses a never-removed document.
      const std::size_t d = j == 0 ? rng.Below(kPinned) : rng.Below(kDocs);
      job.document = live[d].load(std::memory_order_relaxed);
      const std::size_t qid = rng.Below(queries.size());
      job.query = queries[qid];
      jobs.push_back(std::move(job));
      qids.push_back(qid);
      pinned.push_back(d < kPinned);
    }
    auto h = service.TrySubmit(std::move(jobs));
    ASSERT_TRUE(h.ok()) << h.status();  // queue is unbounded here
    handles.push_back(*h);
    query_of_job.push_back(std::move(qids));
    pinned_job.push_back(std::move(pinned));
  }

  std::size_t ok_jobs = 0, not_found_jobs = 0;
  for (std::size_t b = 0; b < handles.size(); ++b) {
    std::vector<QueryResult> results = handles[b].Wait();
    ASSERT_EQ(results.size(), query_of_job[b].size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const QueryResult& r = results[i];
      if (r.status.ok()) {
        const QueryResult& e = expected[query_of_job[b][i]];
        EXPECT_EQ(r.relation, e.relation) << "batch " << b << " job " << i;
        EXPECT_EQ(r.from_root, e.from_root);
        ++ok_jobs;
      } else {
        EXPECT_EQ(r.status.code(), StatusCode::kNotFound) << r.status;
        EXPECT_FALSE(pinned_job[b][i]) << "batch " << b << " job " << i;
        ++not_found_jobs;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();

  EXPECT_EQ(ok_jobs + not_found_jobs, 40u * 12u);
  EXPECT_GT(ok_jobs, 0u);
  EXPECT_EQ(store.size(), kDocs);  // every remove was paired with an insert
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches_completed, handles.size());
  EXPECT_EQ(stats.jobs_completed, 40u * 12u);
  ASSERT_EQ(stats.shard_stats.size(), 4u);
}

TEST(AdmissionTest, SingleJobAndEmptyBatchesComplete) {
  // Single-job batches are the natural RPC shape; they must flow through
  // the pool (not serialize on the dispatcher thread) and empty batches
  // must complete immediately instead of hanging their handle.
  DocumentStore store;
  const DocumentId id = store.Insert(MakeTree(8, 20));
  QueryService service({.num_threads = 2,
                        .document_store = &store,
                        .max_queued_batches = 0,
                        .max_inflight_batches = 4});
  auto empty = service.TrySubmit({});
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->Wait().empty());
  std::vector<BatchHandle> handles;
  for (int i = 0; i < 20; ++i) {
    auto h = service.TrySubmit(DocBatch(id, kLightQuery, 1));
    ASSERT_TRUE(h.ok()) << h.status();
    handles.push_back(*h);
  }
  for (BatchHandle& h : handles) {
    std::vector<QueryResult> results = h.Wait();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].status.ok()) << results[0].status;
  }
  EXPECT_EQ(service.stats().batches_completed, 21u);
}

TEST(AdmissionTest, StatsSnapshotShapes) {
  DocumentStore store({.num_shards = 3});
  QueryService service({.num_threads = 1, .document_store = &store});
  ServiceStats fresh = service.stats();
  EXPECT_EQ(fresh.batches_accepted, 0u);
  EXPECT_EQ(fresh.jobs_completed, 0u);
  ASSERT_EQ(fresh.shard_stats.size(), 3u);

  Tree t = *Tree::ParseTerm("a(b,c)");
  const DocumentId id = store.Insert(std::move(t));
  std::vector<QueryJob> jobs(2);
  for (QueryJob& job : jobs) {
    job.document = id;
    job.query = kLightQuery;
  }
  auto results = service.EvaluateBatch(jobs);
  ASSERT_EQ(results.size(), 2u);
  // Synchronous batches bypass admission but still count executed jobs.
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.jobs_completed, 2u);
  EXPECT_EQ(after.batches_accepted, 0u);
  std::uint64_t shard_builds = 0;
  for (const auto& s : after.shard_stats) shard_builds += s.cache_builds;
  EXPECT_EQ(shard_builds, 1u);
}

}  // namespace
}  // namespace xpv
