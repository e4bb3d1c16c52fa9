// Demo of the batched query-evaluation subsystem: documents are loaded
// into a sharded DocumentStore corpus once, then batches of
// (document-id, query) jobs are evaluated across a thread pool, printing
// per-plan routing, cache effectiveness (query cache and per-document
// axis caches, per shard), and throughput. A second identical batch shows
// the cross-batch axis-cache reuse the corpus layer buys, and a final
// burst goes through the admission-controlled TrySubmit front door,
// demonstrating kOverloaded backpressure and the ServiceStats snapshot.
//
//   ./batch_server [num_threads] [tree_nodes] [batch_size] \
//       [--snapshot_dir=DIR] [--repeat=N]
//
// With --snapshot_dir, the corpus is reloaded from DIR when it holds a
// valid snapshot (zero parses, zero index builds -- the "corpus" line and
// the process-wide Tree counters prove it) and built-then-saved there
// otherwise, so a kill -9 + restart serves byte-identical answers without
// re-parsing (tools/restart_harness.py drives exactly that and compares
// the printed result digest). --repeat re-runs the cold batch N times to
// widen the window a harness has for killing the process mid-serve.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "engine/document_store.h"
#include "engine/query_service.h"
#include "tree/generators.h"

namespace {

using namespace xpv;

const char* kQueryMix[] = {
    // Positive PPLbin: full relations on GkpEngine (one set image per
    // source) or the sparse matrix engine, whichever the planner prices
    // cheaper; monadic shapes on the matrix engine's image sweep.
    "descendant::book/child::author",
    "child::*[descendant::title]",
    "descendant::*[child::author]/following_sibling::*",
    // General PPLbin (complement) -> MatrixEngine (Boolean matrices).
    "descendant::* except descendant::book",
    "child::* except child::author[following_sibling::title]",
    // N-ary PPL (free variables) -> Section 7 answer machinery.
    "descendant::book[child::author]/$x",
    "$x/child::title",
};

/// FNV-1a over every byte of every result: status, plan, the full
/// relation bits, the from-root set, answer tuples, and scalar payloads.
/// Two runs print the same digest iff they produced byte-identical
/// results in the same order -- the restart harness's equality oracle.
std::uint64_t DigestResults(const std::vector<engine::QueryResult>& results) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const engine::QueryResult& r : results) {
    mix(static_cast<std::uint64_t>(r.status.code()));
    if (!r.status.ok()) continue;
    // Deliberately NOT digested: r.plan. Engine routing may differ run
    // to run (the cost model sees whatever cache state concurrent jobs
    // left behind) while the answers stay identical -- which is exactly
    // the equality the harness is after.
    mix(r.relation.size());
    for (std::size_t row = 0; row < r.relation.size(); ++row) {
      // Row() returns the BitVector by value; name it so its words stay
      // alive for the loop (a temporary would die before the body runs).
      const BitVector row_bits = r.relation.Row(row);
      for (std::uint64_t w : row_bits.words()) mix(w);
    }
    if (r.relation_sparse != nullptr) {
      mix(r.relation_sparse->num_runs());
      for (std::size_t row = 0; row < r.relation_sparse->size(); ++row) {
        auto [first, last] = r.relation_sparse->RunsOf(row);
        for (auto it = first; it != last; ++it) {
          mix(it->begin);
          mix(it->end);
        }
      }
    }
    for (std::uint64_t w : r.from_root.words()) mix(w);
    for (const xpath::NodeTuple& tuple : r.tuples) {
      mix(tuple.size());
      for (NodeId v : tuple) mix(v);
    }
    mix(r.boolean ? 1 : 0);
    mix(r.count);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> positional;
  std::string snapshot_dir;
  std::size_t repeat = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--snapshot_dir=", 15) == 0) {
      snapshot_dir = argv[a] + 15;
    } else if (std::strncmp(argv[a], "--repeat=", 9) == 0) {
      repeat = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::atoi(argv[a] + 9)));
    } else {
      positional.push_back(static_cast<std::size_t>(std::atoi(argv[a])));
    }
  }
  const std::size_t num_threads = positional.size() > 0 ? positional[0] : 4;
  const std::size_t tree_nodes = positional.size() > 1 ? positional[1] : 120;
  const std::size_t batch_size = positional.size() > 2 ? positional[2] : 200;

  // Corpus: a few bibliography-shaped documents, stored once and addressed
  // by DocumentId from then on. Four shards so the shard-aware batch
  // scheduler has independent lock domains to group jobs by. With a
  // snapshot directory, a prior run's corpus reloads with zero parses and
  // zero index builds; otherwise the documents go in through the term
  // *parser* (not Insert) so the parse counter proves which path ran.
  const engine::DocumentStoreOptions store_options{.max_hot_caches = 64,
                                                   .num_shards = 4};
  std::unique_ptr<engine::DocumentStore> owned_store;
  bool reloaded = false;
  if (!snapshot_dir.empty()) {
    auto opened = engine::DocumentStore::OpenSnapshot(snapshot_dir,
                                                      store_options);
    if (opened.ok()) {
      owned_store = std::move(opened).value();
      reloaded = true;
    } else if (opened.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "batch_server: snapshot load failed: %s\n",
                   opened.status().ToString().c_str());
      return 2;
    }
  }
  if (owned_store == nullptr) {
    owned_store = std::make_unique<engine::DocumentStore>(store_options);
  }
  engine::DocumentStore& store = *owned_store;

  std::vector<engine::DocumentId> ids;
  if (reloaded) {
    // Fresh inserts below would have received ids 1..4; the snapshot
    // preserves ids, so the reloaded corpus answers to the same ones.
    for (engine::DocumentId id = 1; id <= store.size(); ++id) {
      ids.push_back(id);
    }
  } else {
    Rng corpus_rng(1);
    for (int i = 0; i < 4; ++i) {
      const Tree generated = BibliographyTree(corpus_rng, tree_nodes / 6);
      auto inserted = store.InsertTerm(generated.ToTerm(),
                                       "bib-" + std::to_string(i));
      if (!inserted.ok()) {
        std::fprintf(stderr, "batch_server: corpus build failed: %s\n",
                     inserted.status().ToString().c_str());
        return 2;
      }
      ids.push_back(inserted.value());
    }
    if (!snapshot_dir.empty()) {
      ::mkdir(snapshot_dir.c_str(), 0755);  // EEXIST is fine
      const Status saved = store.SaveSnapshot(snapshot_dir);
      if (!saved.ok()) {
        std::fprintf(stderr, "batch_server: snapshot save failed: %s\n",
                     saved.ToString().c_str());
        return 2;
      }
    }
  }
  std::printf(
      "  corpus:         %s; parses=%llu, index_builds=%llu\n",
      reloaded ? "snapshot reload" : "fresh build",
      static_cast<unsigned long long>(Tree::GlobalParses()),
      static_cast<unsigned long long>(Tree::GlobalIndexBuilds()));

  // Deterministic job mix, independent of how the corpus came to be.
  Rng job_rng(7);
  std::vector<engine::QueryJob> jobs;
  for (std::size_t i = 0; i < batch_size; ++i) {
    engine::QueryJob job;
    job.document = ids[job_rng.Below(ids.size())];
    job.query = kQueryMix[job_rng.Below(std::size(kQueryMix))];
    jobs.push_back(std::move(job));
  }

  engine::QueryService service({.num_threads = num_threads,
                                .document_store = &store,
                                .max_queued_batches = 2,
                                .max_inflight_batches = 1});
  std::printf(
      "batch_server: %zu jobs over %zu stored documents, %zu worker "
      "thread(s)\n",
      jobs.size(), store.size(), service.num_threads());

  Timer timer;
  std::vector<engine::QueryResult> results = service.EvaluateBatch(jobs);
  const double seconds = timer.ElapsedSeconds();

  // The digest commits to every byte of every result; the restart
  // harness compares it across kill -9 boundaries. --repeat re-serves
  // the same batch (checking the digest each time) to widen the window
  // in which a harness can kill the process mid-serve.
  const std::uint64_t digest = DigestResults(results);
  bool digest_sane = true;
  for (std::size_t run = 1; run < repeat; ++run) {
    if (DigestResults(service.EvaluateBatch(jobs)) != digest) {
      digest_sane = false;
    }
  }
  std::printf("  result digest:  %016llx%s\n",
              static_cast<unsigned long long>(digest),
              digest_sane ? "" : " (INCONSISTENT ACROSS REPEATS)");

  // A repeated batch reuses the per-document axis caches built above.
  Timer warm_timer;
  std::vector<engine::QueryResult> warm_results = service.EvaluateBatch(jobs);
  const double warm_seconds = warm_timer.ElapsedSeconds();

  std::size_t by_plan[3] = {0, 0, 0};
  std::size_t failed = 0;
  for (const engine::QueryResult& r : warm_results) {
    if (!r.status.ok()) ++failed;
  }
  std::size_t selected_cells = 0;
  std::size_t tuples = 0;
  for (const engine::QueryResult& r : results) {
    if (!r.status.ok()) {
      ++failed;
      continue;
    }
    ++by_plan[static_cast<int>(r.plan.engine)];
    selected_cells += r.relation.Count();
    tuples += r.tuples.size();
  }

  std::printf("  gkp-positive:   %zu jobs\n", by_plan[0]);
  std::printf("  matrix-general: %zu jobs\n", by_plan[1]);
  std::printf("  nary-answer:    %zu jobs (%zu answer tuples)\n", by_plan[2],
              tuples);
  std::printf("  failed:         %zu jobs\n", failed);
  std::printf("  selected pairs: %zu\n", selected_cells);
  std::printf("  query cache:    %zu distinct compiled, %zu hits / %zu misses\n",
              service.cache().size(), service.cache().hits(),
              service.cache().misses());
  const engine::ServiceStats kernel_stats = service.stats();
  std::printf(
      "  matrix kernels: %llu dense / %llu sparse products, %llu repr "
      "crossovers\n",
      static_cast<unsigned long long>(kernel_stats.dense_products),
      static_cast<unsigned long long>(kernel_stats.sparse_products),
      static_cast<unsigned long long>(kernel_stats.repr_crossovers));
  std::printf(
      "  subrelations:   %llu hits / %llu misses (%zu KiB resident), "
      "%llu chains reassociated\n",
      static_cast<unsigned long long>(kernel_stats.subrel_hits),
      static_cast<unsigned long long>(kernel_stats.subrel_misses),
      store.stats().relation_cache_bytes / 1024,
      static_cast<unsigned long long>(kernel_stats.chains_reassociated));
  const engine::DocumentStoreStats stats = store.stats();
  std::printf(
      "  axis caches:    %llu built, %llu hits, %llu retired (%zu hot, "
      "%zu KiB)\n",
      static_cast<unsigned long long>(stats.cache_builds),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_retirements),
      stats.hot_caches, stats.hot_cache_bytes / 1024);
  const std::vector<engine::DocumentStoreStats> per_shard =
      store.shard_stats();
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const auto& ss = per_shard[s];
    const std::uint64_t lookups = ss.cache_hits + ss.cache_builds;
    std::printf(
        "    shard %zu:      %zu docs, %llu/%llu cache hits (%.0f%%), "
        "%zu hot\n",
        s, ss.documents, static_cast<unsigned long long>(ss.cache_hits),
        static_cast<unsigned long long>(lookups),
        lookups == 0 ? 0.0 : 100.0 * static_cast<double>(ss.cache_hits) /
                                 static_cast<double>(lookups),
        ss.hot_caches);
  }
  std::printf("  wall time:      %.3f s cold  (%.0f jobs/s)\n", seconds,
              static_cast<double>(jobs.size()) / seconds);
  std::printf("  wall time:      %.3f s warm  (%.0f jobs/s)\n", warm_seconds,
              static_cast<double>(jobs.size()) / warm_seconds);

  // The same batch again, declaring that callers only consume the
  // from-root node set: the planner routes every binary query through
  // the monadic row-restricted fast path (no O(n^2) relation).
  std::vector<engine::QueryJob> monadic_jobs = jobs;
  for (engine::QueryJob& job : monadic_jobs) {
    job.shape = engine::ResultShape::kFromRootSet;
  }
  Timer monadic_timer;
  std::vector<engine::QueryResult> monadic_results =
      service.EvaluateBatch(monadic_jobs);
  const double monadic_seconds = monadic_timer.ElapsedSeconds();
  std::size_t from_root_nodes = 0;
  for (const engine::QueryResult& r : monadic_results) {
    if (r.status.ok()) from_root_nodes += r.from_root.Count();
  }
  std::printf(
      "  wall time:      %.3f s from-root shape (%.0f jobs/s, %zu nodes)\n",
      monadic_seconds,
      static_cast<double>(monadic_jobs.size()) / monadic_seconds,
      from_root_nodes);

  // Admission-controlled front door: a burst of async submissions against
  // a depth-2 queue. Overflow is rejected with kOverloaded (explicit
  // backpressure -- the caller retries or sheds load); every accepted
  // batch completes.
  std::vector<engine::BatchHandle> handles;
  std::size_t rejected = 0;
  for (int burst = 0; burst < 8; ++burst) {
    auto handle = service.TrySubmit(jobs);
    if (handle.ok()) {
      handles.push_back(*handle);
    } else {
      ++rejected;
    }
  }
  std::size_t async_ok = 0;
  for (engine::BatchHandle& handle : handles) {
    for (const engine::QueryResult& r : handle.Wait()) {
      if (r.status.ok()) ++async_ok;
    }
  }
  const engine::ServiceStats service_stats = service.stats();
  std::printf("  admission:      burst of 8 batches -> %zu accepted, %zu "
              "rejected (kOverloaded)\n",
              handles.size(), rejected);
  std::printf("  service stats:  %llu accepted / %llu rejected / %llu "
              "completed batches; %llu jobs run, %llu cancelled, %llu past "
              "deadline\n",
              static_cast<unsigned long long>(service_stats.batches_accepted),
              static_cast<unsigned long long>(service_stats.batches_rejected),
              static_cast<unsigned long long>(service_stats.batches_completed),
              static_cast<unsigned long long>(service_stats.jobs_completed),
              static_cast<unsigned long long>(service_stats.jobs_cancelled),
              static_cast<unsigned long long>(
                  service_stats.jobs_deadline_exceeded));
  const bool admission_sane =
      handles.size() + rejected == 8 &&
      service_stats.batches_completed == service_stats.batches_accepted &&
      async_ok == handles.size() * jobs.size();
  if (!admission_sane) std::printf("  admission state INCONSISTENT\n");

  // Streaming front door: page through an n-ary answer set with a cursor
  // instead of materializing it. The stream pins its document, counts
  // against the inflight budget while open, and reports how much
  // answer-dependent memory the backing actually holds.
  bool stream_sane = true;
  {
    const std::size_t page_size = batch_size > 0 ? batch_size : 64;
    engine::StreamOptions stream_options;
    stream_options.limit = 3 * page_size;
    auto stream =
        service.OpenStream(ids[0], "$x/descendant::*/$y", stream_options);
    if (!stream.ok()) {
      std::printf("  stream:         open failed: %s\n",
                  stream.status().ToString().c_str());
      stream_sane = false;
    } else {
      std::size_t pages = 0, tuples = 0;
      // Snapshot the backing footprint while the stream is live -- once
      // drained it releases the backing and would report 0 bytes.
      std::size_t live_backing_bytes = 0;
      while (true) {
        auto page = stream->NextBatch(page_size);
        if (!page.ok()) {
          std::printf("  stream:         failed: %s\n",
                      page.status().ToString().c_str());
          stream_sane = false;
          break;
        }
        if (page->empty()) break;
        ++pages;
        tuples += page->size();
        live_backing_bytes =
            std::max(live_backing_bytes, stream->stats().backing_bytes);
      }
      const engine::StreamStats stream_stats = stream->stats();
      std::printf(
          "  stream:         %zu tuples in %zu pages via %s backing "
          "(cursor %llu, peak backing %zu bytes)\n",
          tuples, pages,
          std::string(engine::StreamBackingName(stream_stats.plan.backing))
              .c_str(),
          static_cast<unsigned long long>(stream_stats.cursor),
          live_backing_bytes);
      stream_sane = stream_sane && tuples == stream_stats.produced &&
                    service.stats().stream_tuples >= tuples;
    }
  }
  const engine::ServiceStats final_stats = service.stats();
  std::printf("  stream stats:   %llu opened / %llu closed, %zu open now, "
              "%llu tuples streamed\n",
              static_cast<unsigned long long>(final_stats.streams_opened),
              static_cast<unsigned long long>(final_stats.streams_closed),
              final_stats.streams_open,
              static_cast<unsigned long long>(final_stats.stream_tuples));
  stream_sane = stream_sane && final_stats.streams_open == 0 &&
                final_stats.streams_opened == final_stats.streams_closed;
  if (!stream_sane) std::printf("  stream state INCONSISTENT\n");
  return failed == 0 && admission_sane && stream_sane && digest_sane ? 0 : 1;
}
