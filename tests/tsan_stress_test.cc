// ThreadSanitizer-targeted stress: real threads hammering the exact
// cross-shard surfaces the annotations in common/mutex.h protect.
//
// The other suites exercise concurrency through the QueryService's own
// pool with disjoint documents; this one deliberately *collides* --
// spill/fault-in, Remove + re-Intern, open streams, batch evaluation,
// and stats polling all race on a small document set so TSan (cmake
// -DXPV_SANITIZE=thread) observes every lock pairing the store, the
// admission front-end, and the per-document caches claim to have. The
// test also runs (fast) without TSan as an ordinary ctest entry; its
// assertions are deliberately weak -- the sanitizer is the oracle.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include "common/rng.h"
#include "engine/document_store.h"
#include "engine/query_service.h"
#include "engine/query_stream.h"
#include "tree/generators.h"
#include "tree/tree.h"

namespace xpv {
namespace {

std::string MakeTempDir() {
  static int counter = 0;
  std::string path = ::testing::TempDir() + "xpv_tsan_stress_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter++);
  EXPECT_EQ(::mkdir(path.c_str(), 0755), 0) << path;
  return path;
}

// Under TSan everything is ~10x slower and the point is interleaving
// coverage, not volume: keep iteration counts small.
#if defined(__SANITIZE_THREAD__)
constexpr int kIters = 30;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kIters = 30;
#else
constexpr int kIters = 120;
#endif
#else
constexpr int kIters = 120;
#endif

// Spill / fault-in / Remove / re-Intern racing open streams, batch
// evaluation, and stats readers on one deliberately tiny residency
// budget, so documents constantly cross the resident<->spilled boundary
// while other threads hold pins into them.
TEST(TsanStressTest, SpillRemoveStreamsAndBatchesCollide) {
  const std::string dir = MakeTempDir();
  engine::DocumentStore store({.max_hot_caches = 2,
                               .num_shards = 2,
                               .spill_dir = dir,
                               .max_resident_docs = 2});
  engine::QueryService service({.num_threads = 3,
                                .document_store = &store,
                                .max_inflight_batches = 4});

  // A fixed pool of structurally distinct documents; index -> id is
  // re-established by the churn thread as it removes and re-inserts.
  constexpr std::size_t kDocs = 6;
  std::vector<std::string> terms;
  std::vector<std::atomic<engine::DocumentId>> ids(kDocs);
  {
    Rng rng(7);
    for (std::size_t i = 0; i < kDocs; ++i) {
      Tree tree = BibliographyTree(rng, 2 + i);
      terms.push_back(tree.ToTerm());
      ids[i].store(store.Insert(std::move(tree), "d" + std::to_string(i)));
    }
  }
  const std::vector<std::string> queries = {
      "child::book", "descendant::author", "descendant::*/child::title"};

  std::atomic<bool> stop{false};
  std::atomic<int> ok_results{0};
  std::vector<std::thread> threads;

  // Churn: Remove a document mid-serve, then re-insert the same content
  // under a fresh id (ids are never reused, so racing readers see
  // kNotFound at worst, never a wrong document). It runs at least kIters
  // rounds and on until a batch has completed against it: spill writes
  // are not fsynced, so kIters rounds of these small documents take about
  // 2 ms and can end before the batch thread submits anything. The cap
  // turns a batch path that never succeeds into the failure below, not a
  // hang.
  threads.emplace_back([&] {
    Rng rng(11);
    for (int it = 0;
         it < kIters || (ok_results.load() == 0 && it < 100 * kIters);
         ++it) {
      const std::size_t slot = rng.Below(kDocs);
      const engine::DocumentId old_id = ids[slot].load();
      Result<Tree> tree = Tree::ParseTerm(terms[slot]);
      ASSERT_TRUE(tree.ok());
      const engine::DocumentId fresh =
          store.Insert(std::move(tree).value(), "d" + std::to_string(slot));
      ids[slot].store(fresh);
      store.Remove(old_id);
    }
    stop.store(true);
  });

  // Fault-in hammer: Fetch random ids so spilled documents decode from
  // disk while the churn thread deletes segments under them.
  threads.emplace_back([&] {
    Rng rng(13);
    while (!stop.load()) {
      Result<engine::DocumentPtr> doc =
          store.Fetch(ids[rng.Below(kDocs)].load());
      if (doc.ok()) {
        // Touch the tree so a torn reload would be observable.
        ASSERT_GT(doc.value()->tree().size(), 0u);
      }
    }
  });

  // Streams: open, pull a few batches, close -- holding document pins
  // across Remove() and spill decisions.
  threads.emplace_back([&] {
    Rng rng(17);
    while (!stop.load()) {
      Result<engine::QueryStream> stream = service.OpenStream(
          ids[rng.Below(kDocs)].load(), queries[rng.Below(queries.size())]);
      if (!stream.ok()) continue;
      for (int pulls = 0; pulls < 3 && !stream.value().done(); ++pulls) {
        Result<std::vector<xpath::NodeTuple>> batch =
            stream.value().NextBatch(4);
        if (!batch.ok()) break;
        if (batch.value().empty()) break;
      }
    }
  });

  // Batches: cross-shard batch evaluation through the admission queue.
  threads.emplace_back([&] {
    Rng rng(19);
    while (!stop.load()) {
      std::vector<engine::QueryJob> jobs;
      for (std::size_t j = 0; j < 4; ++j) {
        engine::QueryJob job;
        job.document = ids[rng.Below(kDocs)].load();
        job.query = queries[rng.Below(queries.size())];
        job.shape = engine::ResultShape::kCount;
        jobs.push_back(std::move(job));
      }
      Result<engine::BatchHandle> handle = service.TrySubmit(std::move(jobs));
      if (!handle.ok()) continue;
      for (const engine::QueryResult& r : handle.value().Wait()) {
        if (r.status.ok()) ok_results.fetch_add(1);
      }
    }
  });

  // Stats readers: every snapshot path the monitoring surface exposes.
  threads.emplace_back([&] {
    while (!stop.load()) {
      (void)service.stats();
      (void)store.stats();
      (void)store.shard_stats();
    }
  });

  for (std::thread& t : threads) t.join();
  // Weak sanity only -- the sanitizer is the oracle: some batch jobs must
  // have found a live document and produced a real count.
  EXPECT_GT(ok_results.load(), 0);
  auto stats = store.stats();
  EXPECT_EQ(stats.documents, kDocs);
}

}  // namespace
}  // namespace xpv
