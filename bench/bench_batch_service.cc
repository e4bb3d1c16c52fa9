// E12 -- throughput of the batched QueryService: a fixed 100-job batch of
// mixed positive/general PPLbin queries over a handful of stored documents,
// evaluated at 1..8 worker threads. Jobs on one document share its
// persistent AxisCache and distinct query texts compile once, so the
// scaling curve isolates the execute stage. Also measures the compile stage alone (cold vs warm
// query cache), the DocumentStore serving path, and the axis-relation
// materialization cost of the indexed interval builders against the seed's
// walk-based builders (kept as naive::AxisMatrix).
//
// Unlike the other benchmarks this binary has its own main(): every run
// additionally writes machine-readable results (items/s per thread count,
// cold/warm compile, axis build times) to BENCH_batch_service.json --
// override with --benchmark_out=... -- so the perf trajectory is tracked
// across PRs. `--smoke` caps min-time for a fast CI pass.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "engine/document_store.h"
#include "engine/compiled_query.h"
#include "engine/query_service.h"
#include "engine/snapshot.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"
#include "tree/naive_reference.h"

namespace xpv {
namespace {

ppl::PplBinPtr RandomPplBin(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(1, 3)) {
    if (rng.Chance(1, 5)) return ppl::PplBinExpr::Self();
    return ppl::PplBinExpr::Step(
        kAllAxes[rng.Below(kAllAxes.size())],
        rng.Chance(1, 3) ? "*" : GeneratorLabel(rng.Below(3)));
  }
  switch (rng.Below(4)) {
    case 0:
      return ppl::PplBinExpr::Compose(RandomPplBin(rng, depth - 1),
                                      RandomPplBin(rng, depth - 1));
    case 1:
      return ppl::PplBinExpr::Union(RandomPplBin(rng, depth - 1),
                                    RandomPplBin(rng, depth - 1));
    case 2:
      return ppl::PplBinExpr::Filter(RandomPplBin(rng, depth - 1));
    default:
      return ppl::PplBinExpr::Complement(RandomPplBin(rng, depth - 1));
  }
}

/// 100 jobs: depth-4 queries over 4 documents of `tree_nodes` nodes,
/// inserted into `store`, with every 3rd job repeating an earlier query
/// text (cache hits, as in a template-driven serving workload).
std::vector<engine::QueryJob> MakeWorkload(std::size_t tree_nodes,
                                           engine::DocumentStore& store) {
  Rng rng(42);
  std::vector<engine::DocumentId> ids;
  for (int i = 0; i < 4; ++i) {
    RandomTreeOptions opts;
    opts.num_nodes = tree_nodes;
    ids.push_back(store.Insert(RandomTree(rng, opts)));
  }
  std::vector<std::string> texts;
  std::vector<engine::QueryJob> jobs;
  for (int i = 0; i < 100; ++i) {
    std::string text;
    if (i % 3 == 2 && !texts.empty()) {
      text = texts[rng.Below(texts.size())];
    } else {
      text = ppl::ToXPath(*RandomPplBin(rng, 4))->ToString();
      texts.push_back(text);
    }
    engine::QueryJob job;
    job.document = ids[rng.Below(ids.size())];
    job.query = std::move(text);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The 100-job batch served by DocumentId: per-document axis caches
/// persist across EvaluateBatch calls, so steady-state batches skip all
/// axis materialization.
void RunStoreBench(benchmark::State& state, std::size_t threads,
                   std::size_t tree_nodes, std::size_t num_shards) {
  engine::DocumentStore store({.num_shards = num_shards});
  const std::vector<engine::QueryJob> jobs = MakeWorkload(tree_nodes, store);
  engine::QueryService service(
      {.num_threads = threads, .document_store = &store});
  // Warm the caches; a failing workload must not report throughput.
  for (const engine::QueryResult& r : service.EvaluateBatch(jobs)) {
    if (!r.status.ok()) {
      state.SkipWithError(r.status.ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.EvaluateBatch(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}

void BM_Batch100DocumentStore(benchmark::State& state) {
  RunStoreBench(state, static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)),
                engine::DocumentStoreOptions{}.num_shards);
}
BENCHMARK(BM_Batch100DocumentStore)
    ->ArgsProduct({{1, 2, 4, 8}, {64, 256}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------------------------------------------- sharded vs single store
//
// The same store-served batch with the corpus split across 1 (the
// pre-sharding single-mutex behavior), 4, and 16 shards: results are
// byte-identical (enforced by engine_differential_test); what changes is
// lock spread and scheduler affinity. Args are (threads, shards). CI
// fails if this section goes missing from BENCH_batch_service.json.

void BM_Batch100StoreSharded(benchmark::State& state) {
  RunStoreBench(state, static_cast<std::size_t>(state.range(0)),
                /*tree_nodes=*/128,
                static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_Batch100StoreSharded)
    ->ArgsProduct({{1, 4, 8}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CompileColdCache(benchmark::State& state) {
  engine::DocumentStore store;
  const std::vector<engine::QueryJob> jobs = MakeWorkload(16, store);
  for (auto _ : state) {
    engine::QueryCache cache;
    for (const auto& job : jobs) {
      benchmark::DoNotOptimize(cache.GetOrCompile(job.query));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_CompileColdCache);

void BM_CompileWarmCache(benchmark::State& state) {
  engine::DocumentStore store;
  const std::vector<engine::QueryJob> jobs = MakeWorkload(16, store);
  engine::QueryCache cache;
  for (const auto& job : jobs) {
    benchmark::DoNotOptimize(cache.GetOrCompile(job.query));
  }
  for (auto _ : state) {
    for (const auto& job : jobs) {
      benchmark::DoNotOptimize(cache.GetOrCompile(job.query));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_CompileWarmCache);

Tree BenchTree(std::size_t nodes) {
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_nodes = nodes;
  opts.alphabet_size = 3;
  return RandomTree(rng, opts);
}

// ------------------------------------------- result-shape comparison
//
// The planner's monadic fast path: a matrix-engine (general PPLbin)
// query whose caller only consumes the from-root node set propagates a
// single BitVector, materializing a sub-matrix only for a complement of
// a non-step operand that the sweep reaches from more than one node (this
// query's complements are of steps) -- while the kFullRelation shape
// pays |P| full O(n^3/64) Boolean products. The
// gap must widen asymptotically with the tree (the acceptance bar:
// measurably faster at >= 2k nodes). Served through a DocumentStore so
// the persistent AxisCache and plan memo isolate the evaluation cost.
// The full-relation shape has two arms: cold (second arg 0, no
// RelationCache -- every iteration evaluates) and warm (1, the default
// cache -- after the first job every iteration is a cache hit).

/// A general-PPLbin query: a positive chain with complements of leaf
/// steps inside, so the full-relation path needs Boolean products while
/// the row-restricted path only touches small sub-matrices.
std::string ShapeBenchQueryText() {
  using ppl::PplBinExpr;
  ppl::PplBinPtr p = PplBinExpr::Compose(
      PplBinExpr::Step(Axis::kChild, ""),
      PplBinExpr::Compose(
          PplBinExpr::Complement(PplBinExpr::Step(Axis::kSelf, "a")),
          PplBinExpr::Compose(
              PplBinExpr::Step(Axis::kDescendant, ""),
              PplBinExpr::Complement(PplBinExpr::Step(Axis::kSelf, "b")))));
  return ppl::ToXPath(*p)->ToString();
}

void RunShapeBench(benchmark::State& state, engine::ResultShape shape,
                   bool relation_cache = true) {
  const auto tree_nodes = static_cast<std::size_t>(state.range(0));
  engine::DocumentStoreOptions store_options;
  if (!relation_cache) store_options.relation_cache_bytes = 0;
  engine::DocumentStore store(store_options);
  const engine::DocumentId id = store.Insert(BenchTree(tree_nodes));
  engine::QueryService service(
      {.num_threads = 1, .document_store = &store});
  const std::string text = ShapeBenchQueryText();
  // Warm the axis cache, plan memo, and query cache; refuse to report a
  // number for a failing or mis-planned workload.
  engine::QueryResult warm = service.Evaluate(id, text, shape);
  if (!warm.status.ok()) {
    state.SkipWithError(warm.status.ToString().c_str());
    return;
  }
  if (warm.plan.engine != engine::EnginePlan::kMatrixGeneral) {
    state.SkipWithError("expected the matrix engine");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Evaluate(id, text, shape));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ShapeFullRelation(benchmark::State& state) {
  RunShapeBench(state, engine::ResultShape::kFullRelation,
                /*relation_cache=*/state.range(1) != 0);
}
BENCHMARK(BM_ShapeFullRelation)
    ->ArgsProduct({{512, 2048}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_ShapeFromRootSet(benchmark::State& state) {
  RunShapeBench(state, engine::ResultShape::kFromRootSet);
}
BENCHMARK(BM_ShapeFromRootSet)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_ShapeBoolean(benchmark::State& state) {
  RunShapeBench(state, engine::ResultShape::kBoolean);
}
BENCHMARK(BM_ShapeBoolean)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- from-root set difference
//
// The serving workload's `except` template, one from-root job per batch:
// `descendant::X except descendant::Y[child::Z]` compiles to
// except(except L union R), a complement of a non-step operand. Reached
// from the root alone it needs only the root's row, which the image
// sweep computes directly -- no n x n sub-matrix at any tree size.
// Random trees (6 labels, fan-out <= 8) served through a DocumentStore:
// axis cache, plan memo and query cache warm, relation cache off, so
// every iteration evaluates the query as a unique cold read would.

void BM_ShapeFromRootExcept(benchmark::State& state) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_nodes = static_cast<std::size_t>(state.range(0));
  opts.alphabet_size = 6;
  opts.max_children = 8;
  engine::DocumentStoreOptions store_options;
  store_options.relation_cache_bytes = 0;
  engine::DocumentStore store(store_options);
  const engine::DocumentId id = store.Insert(RandomTree(rng, opts));
  engine::QueryService service(
      {.num_threads = 1, .document_store = &store});
  const std::vector<engine::QueryJob> jobs = {
      {.document = id,
       .query = "descendant::a except descendant::b[child::c]",
       .shape = engine::ResultShape::kFromRootSet}};
  const engine::QueryResult warm = service.EvaluateBatch(jobs)[0];
  if (!warm.status.ok()) {
    state.SkipWithError(warm.status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.EvaluateBatch(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShapeFromRootExcept)->Arg(4096)->Arg(16384)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- streaming vs materializing
//
// The streaming subsystem's acceptance evidence: first-answer latency of
// OpenStream + NextBatch(100) on an n-ary query whose answer set grows
// cubically with the tree (the 3-variable descendant chain has
// (n-1)^2 n answers on a path of n nodes -- 500k at n=80, 3.9M at
// n=140, 7.9M at n=200), against materializing the full tuple set
// through the batch path (smaller sizes, 25k at n=30 and 120k at n=50).
// The batch job drains the same enumerator the stream pulls from, so
// materialize-all pays that drain plus one TupleSet insert per answer.
// First-K time must stay flat as the answer count explodes;
// materialize-all grows with it. CI fails if this section goes missing
// from BENCH_batch_service.json.

const char* kStreamBenchQuery = "$x/descendant::*/$y/descendant::*/$z";

void BM_StreamFirstK(benchmark::State& state) {
  const auto path_nodes = static_cast<std::size_t>(state.range(0));
  Tree t = PathTree(path_nodes);
  engine::QueryService service({.num_threads = 1});
  // Warm the compile cache; the axis cache is rebuilt per stream on a
  // caller-owned tree, so the measured cost is open + preprocessing + 100
  // tuples.
  {
    auto warm = service.OpenStream(t, kStreamBenchQuery);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
    auto batch = warm->NextBatch(1);
    if (!batch.ok() ||
        warm->stats().plan.backing != engine::StreamBacking::kEnumerator) {
      state.SkipWithError("expected a working enumerator backing");
      return;
    }
  }
  std::size_t tuples = 0;
  for (auto _ : state) {
    auto stream = service.OpenStream(t, kStreamBenchQuery);
    auto first = stream->NextBatch(100);
    if (!first.ok()) {
      state.SkipWithError(first.status().ToString().c_str());
      return;
    }
    tuples += first->size();
    benchmark::DoNotOptimize(*first);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tuples));
}
BENCHMARK(BM_StreamFirstK)->Arg(80)->Arg(140)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_MaterializeAll(benchmark::State& state) {
  const auto path_nodes = static_cast<std::size_t>(state.range(0));
  Tree t = PathTree(path_nodes);
  engine::QueryService service({.num_threads = 1});
  std::size_t answers = 0;
  for (auto _ : state) {
    engine::QueryResult result = service.Evaluate(t, kStreamBenchQuery);
    if (!result.status.ok()) {
      state.SkipWithError(result.status.ToString().c_str());
      return;
    }
    answers = result.tuples.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MaterializeAll)->Arg(30)->Arg(50)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------ n-ary batch vs stream drain
//
// A batch n-ary job drains the backing a stream over the same query
// pulls (engine/query_stream.h, internal::NaryBacking), so the two must
// cost about the same. BM_NaryBatchVsDrain times one cold job both ways
// on BibliographyTree(seed 7) with 50 / 100 books (257 / 497 nodes):
// drain = 0 runs QueryService::Evaluate at kFullRelation, drain = 1
// drains OpenStream in pages of 1024. Each iteration uses a fresh
// service over the caller-owned tree, so axis relations are rebuilt.
// query 0 is `descendant::book/$x/child::author/$y`, query 1
// `$x/child::author/$y`; both are ACQs and run on the enumerator.
// BM_NaryUnionBatch keeps the Fig. 8 answerer measured: the batch job of
// the union template below, which has no ACQ form.

const char* const kNaryBatchQueries[] = {
    "descendant::book/$x/child::author/$y",
    "$x/child::author/$y",
};

Tree Bibliography(std::size_t books) {
  Rng rng(7);
  return BibliographyTree(rng, books);
}

void BM_NaryBatchVsDrain(benchmark::State& state) {
  Tree t = Bibliography(static_cast<std::size_t>(state.range(0)));
  const char* query = kNaryBatchQueries[state.range(1)];
  const bool drain = state.range(2) != 0;
  std::size_t tuples = 0;
  for (auto _ : state) {
    engine::QueryService service({.num_threads = 1});
    tuples = 0;
    if (drain) {
      auto stream = service.OpenStream(t, query);
      if (!stream.ok()) {
        state.SkipWithError(stream.status().ToString().c_str());
        return;
      }
      while (true) {
        auto page = stream->NextBatch(1024);
        if (!page.ok()) {
          state.SkipWithError(page.status().ToString().c_str());
          return;
        }
        if (page->empty()) break;
        tuples += page->size();
        benchmark::DoNotOptimize(*page);
      }
    } else {
      engine::QueryResult result = service.Evaluate(t, query);
      if (!result.status.ok()) {
        state.SkipWithError(result.status.ToString().c_str());
        return;
      }
      tuples = result.tuples.size();
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["nodes"] = static_cast<double>(t.size());
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_NaryBatchVsDrain)
    ->ArgsProduct({{50, 100}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_NaryUnionBatch(benchmark::State& state) {
  Tree t = Bibliography(static_cast<std::size_t>(state.range(0)));
  const char* query =
      "descendant::book/$x/(child::author union child::title)/$y";
  std::size_t tuples = 0;
  for (auto _ : state) {
    engine::QueryService service({.num_threads = 1});
    engine::QueryResult result = service.Evaluate(t, query);
    if (!result.status.ok() ||
        result.plan.backing != engine::StreamBacking::kMaterialized) {
      state.SkipWithError("expected a working Fig. 8 (materialized) job");
      return;
    }
    tuples = result.tuples.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["nodes"] = static_cast<double>(t.size());
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_NaryUnionBatch)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------ projected enumeration
//
// BM_ProjectedEnumeration/<nodes>: one kCount job of
// `descendant::*[child::*/$x][child::*/$y]/$z` on PathTree(nodes),
// served by a DocumentStore-backed QueryService whose caches stay warm
// across iterations. The projected anchor keeps degree 3, survives
// elimination, and the output frames under it run extension checks, so
// this times projected enumeration per answer: nodes^3 answers, each
// produced once. Counter: `answers`.

void BM_ProjectedEnumeration(benchmark::State& state) {
  engine::DocumentStore store;
  const engine::DocumentId id =
      store.Insert(PathTree(static_cast<std::size_t>(state.range(0))));
  engine::QueryService service({.num_threads = 1, .document_store = &store});
  const std::vector<engine::QueryJob> jobs = {
      {id, "descendant::*[child::*/$x][child::*/$y]/$z",
       engine::ResultShape::kCount}};
  std::uint64_t answers = 0;
  for (auto _ : state) {
    std::vector<engine::QueryResult> results = service.EvaluateBatch(jobs);
    if (!results[0].status.ok()) {
      state.SkipWithError(results[0].status.ToString().c_str());
      return;
    }
    answers = results[0].count;
    benchmark::DoNotOptimize(results);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_ProjectedEnumeration)->Arg(20)->Arg(40)->Arg(60)->Arg(120)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------- axis materialization cost
//
// The index payoff: building ch+ (descendant) / ch* rows as pre-order
// subtree intervals and ns+ (following-sibling) rows by in-place row ORs,
// against the seed's walk-based builders (per-child row temporaries),
// on a ~2k-node tree. "Indexed" is the production AxisMatrix; "Walk" is
// naive::AxisMatrix, the retained oracle.

void BM_AxisBuildDescendantIndexed(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AxisMatrix(t, Axis::kDescendant));
  }
}
BENCHMARK(BM_AxisBuildDescendantIndexed)->Arg(2048);

void BM_AxisBuildDescendantWalk(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::AxisMatrix(t, Axis::kDescendant));
  }
}
BENCHMARK(BM_AxisBuildDescendantWalk)->Arg(2048);

void BM_AxisBuildFollowingSiblingIndexed(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AxisMatrix(t, Axis::kFollowingSibling));
  }
}
BENCHMARK(BM_AxisBuildFollowingSiblingIndexed)->Arg(2048);

void BM_AxisBuildFollowingSiblingWalk(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::AxisMatrix(t, Axis::kFollowingSibling));
  }
}
BENCHMARK(BM_AxisBuildFollowingSiblingWalk)->Arg(2048);

/// Full AxisCache materialization (all 7 relations), as a batch's first
/// job on a cold document pays it.
void BM_AxisCacheBuildAllIndexed(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    AxisCache cache(t);
    for (Axis axis : kAllAxes) benchmark::DoNotOptimize(cache.Matrix(axis));
  }
}
BENCHMARK(BM_AxisCacheBuildAllIndexed)->Arg(2048);

void BM_AxisCacheBuildAllWalk(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (Axis axis : kAllAxes) {
      benchmark::DoNotOptimize(naive::AxisMatrix(t, axis));
    }
  }
}
BENCHMARK(BM_AxisCacheBuildAllWalk)->Arg(2048);

// ------------------------------------------------------- axis images
//
// L1: one AxisImage step, the set-at-a-time sweep under from-root jobs,
// streams, filter domains and GKP's per-source loop. Args are (nodes,
// axis index into kAllAxes, frontier 0=root / 1=one label (`a`, about
// n/6 nodes) / 2=`a/child::b` / 3=all nodes) on random trees (6 labels,
// fan-out <= 8). Descendant fills one interval per maximal frontier
// node at any density; child, ancestor and sibling images walk from
// frontiers of at most n / kAxisImagePushDivisor nodes (frontiers 0-2,
// which cost their frontier and image) and pull-sweep denser ones
// (frontier 3). Counters: `frontier` and `image` (node counts). CI fails
// if this section goes missing from BENCH_batch_service.json.

BitVector ImageBenchFrontier(const Tree& t, std::int64_t frontier) {
  BitVector from(t.size());
  switch (frontier) {
    case 0:
      from.Set(t.root());
      return from;
    case 1:
      return LabelSet(t, "a");
    case 2:
      from = AxisImage(t, Axis::kChild, LabelSet(t, "a"));
      from.AndWith(LabelSet(t, "b"));
      return from;
    default:
      from.Fill();
      return from;
  }
}

void BM_AxisImage(benchmark::State& state) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_nodes = static_cast<std::size_t>(state.range(0));
  opts.alphabet_size = 6;
  opts.max_children = 8;
  const Tree t = RandomTree(rng, opts);
  const Axis axis = kAllAxes[static_cast<std::size_t>(state.range(1))];
  const BitVector from = ImageBenchFrontier(t, state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AxisImage(t, axis, from));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["frontier"] = static_cast<double>(from.Count());
  state.counters["image"] =
      static_cast<double>(AxisImage(t, axis, from).Count());
}
BENCHMARK(BM_AxisImage)
    ->ArgsProduct({{4096, 65536}, {0, 1, 2, 3, 4, 5, 6}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMicrosecond);

// ----------------------------------------- representation comparison
//
// Dense vs interval backing for the whole 7-relation AxisCache on one
// tree size: build time in the loop, resident footprint as a counter.
// The interval build wins on memory by orders of magnitude and on time
// by skipping the O(n^2 / 64) word writes; the dense build wins row
// kernels on small trees (why AxisCache::kAutoDenseMaxNodes exists).

void BM_AxisBuildDense(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    AxisCache cache(t, AxisBacking::kDense);
    for (Axis axis : kAllAxes) benchmark::DoNotOptimize(cache.Matrix(axis));
    bytes = cache.approx_resident_bytes();
  }
  state.counters["resident_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_AxisBuildDense)->Arg(2048);

void BM_AxisBuildInterval(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    AxisCache cache(t, AxisBacking::kInterval);
    for (Axis axis : kAllAxes) benchmark::DoNotOptimize(cache.Matrix(axis));
    bytes = cache.approx_resident_bytes();
  }
  state.counters["resident_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_AxisBuildInterval)->Arg(2048);

/// The headline number: all 7 axis relations of a million-node document,
/// built under the kAuto policy (interval runs). `resident_bytes` is the
/// real footprint, `dense_formula_bytes` what the dense representation
/// would need (7 * n * ceil(n/64) * 8 -- ~1 TiB), `dense_to_interval` the
/// reduction ratio (the ROADMAP acceptance floor is 100x).
void BM_MillionNodeAxisMemory(benchmark::State& state) {
  Tree t = BenchTree(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = t.size();
  std::size_t bytes = 0;
  for (auto _ : state) {
    AxisCache cache(t);
    for (Axis axis : kAllAxes) benchmark::DoNotOptimize(cache.Matrix(axis));
    bytes = cache.approx_resident_bytes();
  }
  const double dense_formula = 7.0 * static_cast<double>(n) *
                               static_cast<double>((n + 63) / 64) * 8.0;
  state.counters["resident_bytes"] = static_cast<double>(bytes);
  state.counters["dense_formula_bytes"] = dense_formula;
  state.counters["dense_to_interval"] =
      dense_formula / static_cast<double>(bytes);
}
BENCHMARK(BM_MillionNodeAxisMemory)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

// --------------------------------------- dense/sparse composition kernels
//
// The sparse boolean composition engine (common/sparse_matrix.h) against
// the dense bit-packed kernels, on the three structural extremes --
// path (maximally run-structured), star (one fat row), random (mixed) --
// at 512..65536 nodes. Args are (nodes, tree shape 0=path/1=star/2=random,
// repr 0=auto/1=dense/2=sparse); dense combinations above
// BitMatrix::kMaxDenseNodes are omitted (no dense n x n form exists
// there -- the gap the sparse engine closes). Counters report the result
// footprint and the engine's kernel mix so the trajectory records *what*
// ran, not just how fast. CI fails if this section goes missing from
// BENCH_batch_service.json.

Tree CrossoverTree(std::int64_t shape, std::size_t nodes) {
  switch (shape) {
    case 0:
      return PathTree(nodes);
    case 1:
      return StarTree(nodes);
    default:
      return BenchTree(nodes);
  }
}

const char* kComposeQuery = "descendant::a/child::a";

void ApplyCrossoverArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t nodes : {512, 2048, 8192, 65536}) {
    for (std::int64_t shape : {0, 1, 2}) {
      for (std::int64_t repr : {0, 1, 2}) {
        if (repr == static_cast<std::int64_t>(MatrixRepr::kDense) &&
            nodes > static_cast<std::int64_t>(BitMatrix::kMaxDenseNodes)) {
          continue;
        }
        b->Args({nodes, shape, repr});
      }
    }
  }
  b->Unit(benchmark::kMillisecond);
}

/// Engine-level: one full-relation evaluation of a composed step query,
/// representation forced, axis cache prebuilt (pure kernel cost).
void BM_SparseCompose(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto repr = static_cast<MatrixRepr>(state.range(2));
  Tree t = CrossoverTree(state.range(1), nodes);
  auto cache = std::make_shared<AxisCache>(t);
  for (Axis axis : kAllAxes) cache->Matrix(axis);
  auto compiled = engine::CompileQuery(kComposeQuery);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  const ppl::PplBinExpr& p = *(*compiled)->pplbin;
  std::size_t result_bytes = 0;
  std::size_t result_bits = 0;
  ppl::MatrixEngineStats stats;
  for (auto _ : state) {
    ppl::MatrixEngine eng(cache, ppl::MultiplyMode::kBitPacked, repr);
    Result<ppl::AnyMatrix> rel = eng.EvaluateAny(p);
    if (!rel.ok()) {
      state.SkipWithError(rel.status().ToString().c_str());
      return;
    }
    result_bytes = rel->resident_bytes();
    result_bits = rel->Count();
    stats = eng.stats();
    benchmark::DoNotOptimize(rel);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["result_bytes"] = static_cast<double>(result_bytes);
  state.counters["result_bits"] = static_cast<double>(result_bits);
  state.counters["dense_products"] = static_cast<double>(stats.dense_products);
  state.counters["sparse_products"] =
      static_cast<double>(stats.sparse_products);
}
BENCHMARK(BM_SparseCompose)->Apply(ApplyCrossoverArgs);

/// Service-level: the same query through the full compile-plan-execute
/// path with the representation forced per job (repr 0 leaves the
/// planner in charge -- GKP, dense or sparse, the number the ROADMAP
/// acceptance compares against the forced extremes). Above the dense
/// ceiling this is the previously-refused full-relation workload. The
/// RelationCache is off so every arm times evaluation, not a cache hit.
void BM_CrossoverFullRelation(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto repr = static_cast<MatrixRepr>(state.range(2));
  Tree t = CrossoverTree(state.range(1), nodes);
  engine::DocumentStoreOptions store_options;
  store_options.relation_cache_bytes = 0;
  engine::DocumentStore store(store_options);
  const engine::DocumentId id = store.Insert(std::move(t));
  engine::QueryService service(
      {.num_threads = 1, .document_store = &store});
  engine::QueryJob job;
  job.document = id;
  job.query = kComposeQuery;
  job.shape = engine::ResultShape::kFullRelation;
  if (repr != MatrixRepr::kAuto) job.overrides.repr = repr;
  const std::vector<engine::QueryJob> jobs = {job};
  // Warm caches and refuse to report a failing workload.
  engine::ExecutionPlan plan;
  {
    std::vector<engine::QueryResult> warm = service.EvaluateBatch(jobs);
    if (!warm[0].status.ok()) {
      state.SkipWithError(warm[0].status.ToString().c_str());
      return;
    }
    plan = warm[0].plan;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.EvaluateBatch(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  const engine::ServiceStats stats = service.stats();
  state.counters["plan_gkp"] =
      plan.engine == engine::EnginePlan::kGkpPositive ? 1.0 : 0.0;
  state.counters["plan_sparse"] =
      plan.repr == MatrixRepr::kSparse ? 1.0 : 0.0;
  state.counters["dense_products"] = static_cast<double>(stats.dense_products);
  state.counters["sparse_products"] =
      static_cast<double>(stats.sparse_products);
  state.counters["repr_crossovers"] =
      static_cast<double>(stats.repr_crossovers);
}
BENCHMARK(BM_CrossoverFullRelation)->Apply(ApplyCrossoverArgs);

// ------------------------------------------ subrelation memoization
//
// The cross-job subrelation cache (ppl/relation_cache.h): a store-served
// batch of overlapping compose queries, each repeated 8x (the shape of a
// template-driven serving workload), with the per-document RelationCache
// enabled (arg 1 = 1) vs disabled (arg 1 = 0). With the cache on,
// steady-state batches serve every interior -- and root -- subrelation
// from the cache instead of re-running Boolean products; the acceptance
// bar is >= 5x over the disabled arm at 512 nodes (Release, 4-core VM:
// ~13x at both 512 and 2048 nodes). `hit_rate` is
// subrel_hits / (subrel_hits + subrel_misses) over the whole run. CI
// fails if this section goes missing from BENCH_batch_service.json.

void BM_SubrelationReuse(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const bool cache_on = state.range(1) != 0;
  engine::DocumentStoreOptions store_options;
  if (!cache_on) store_options.relation_cache_bytes = 0;
  engine::DocumentStore store(store_options);
  const engine::DocumentId id = store.Insert(BenchTree(nodes));
  engine::QueryService service(
      {.num_threads = 1, .document_store = &store});
  // Four queries sharing the descendant::a/child::a prefix (and a
  // child::b/descendant::c suffix), forced to the matrix engine so the
  // full-relation interior products are what the cache elides.
  const std::vector<std::string> texts = {
      "descendant::a/child::a",
      "descendant::a/child::a/child::b",
      "descendant::a/child::a/child::b/descendant::c",
      "child::b/descendant::c",
  };
  std::vector<engine::QueryJob> jobs;
  for (int rep = 0; rep < 8; ++rep) {
    for (const std::string& text : texts) {
      engine::QueryJob job;
      job.document = id;
      job.query = text;
      job.shape = engine::ResultShape::kFullRelation;
      job.overrides.engine = engine::EnginePlan::kMatrixGeneral;
      jobs.push_back(std::move(job));
    }
  }
  // Warm caches; refuse to report throughput for a failing workload.
  for (const engine::QueryResult& r : service.EvaluateBatch(jobs)) {
    if (!r.status.ok()) {
      state.SkipWithError(r.status.ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.EvaluateBatch(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
  const engine::ServiceStats stats = service.stats();
  const double consults =
      static_cast<double>(stats.subrel_hits + stats.subrel_misses);
  state.counters["hit_rate"] =
      consults == 0.0 ? 0.0
                      : static_cast<double>(stats.subrel_hits) / consults;
  state.counters["subrel_bytes"] =
      static_cast<double>(store.stats().relation_cache_bytes);
}
BENCHMARK(BM_SubrelationReuse)
    ->ArgsProduct({{512, 2048}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --------------------------------------------- densifying a run list
//
// Under the dense ceiling a full-relation job's payload is a dense
// BitMatrix whatever representation the engine composed in, so
// QueryService::RunJob densifies every run-list result once. This times
// that step alone: AnyMatrix::ToDense of a run-list relation shaped like
// the serving workload's full-relation jobs (random tree, 6 labels,
// fan-out <= 8, `descendant::a/child::b/child::e` composed sparse), plus
// destroying the dense matrix. BitMatrix storage comes from zeroed
// pages, so the step costs O(n + runs) page touches rather than n^2 bits
// of zero-filling. Counters: `runs` (the input's run count) and
// `result_bytes` (the dense payload's reserved bytes). CI fails if this
// section goes missing from BENCH_batch_service.json.

void BM_DensifyRunList(benchmark::State& state) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_nodes = static_cast<std::size_t>(state.range(0));
  opts.alphabet_size = 6;
  opts.max_children = 8;
  const Tree t = RandomTree(rng, opts);
  auto compiled = engine::CompileQuery("descendant::a/child::b/child::e");
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  ppl::MatrixEngine eng(std::make_shared<AxisCache>(t),
                        ppl::MultiplyMode::kBitPacked, MatrixRepr::kSparse);
  Result<ppl::AnyMatrix> rel = eng.EvaluateAny(*(*compiled)->pplbin);
  if (!rel.ok() || rel->is_dense()) {
    state.SkipWithError("expected a run-list relation");
    return;
  }
  std::size_t result_bytes = 0;
  for (auto _ : state) {
    Result<BitMatrix> dense = rel->ToDense();
    if (!dense.ok()) {
      state.SkipWithError(dense.status().ToString().c_str());
      return;
    }
    result_bytes = dense->resident_bytes();
    benchmark::DoNotOptimize(dense);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["runs"] = static_cast<double>(rel->sparse().num_runs());
  state.counters["result_bytes"] = static_cast<double>(result_bytes);
}
BENCHMARK(BM_DensifyRunList)
    ->Arg(4096)->Arg(8192)->Arg(16384)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------ composition reassociation
//
// The planner's matrix-chain DP (engine/planner.h): a skewed 3-factor
// compose chain -- two wildcard steps into a rare label -- evaluated as
// parsed (left-associated, so the wide descendant-times-child product
// runs first) against the cost model's association (the selective
// child::rare factor composed first). Args are (nodes, tree shape
// 0=path/1=star/2=random, force-parse-order 0/1). The subrelation cache
// is disabled so every iteration pays the real product chain. The DP
// must beat parse order on at least one skewed family (the ROADMAP
// acceptance); `chains_reassociated` > 0 on the optimized arm records
// that the plan actually changed. CI fails if this section goes missing
// from BENCH_batch_service.json.

std::string SkewLabel(std::size_t i) {
  return i % 256 == 255 ? "rare" : "a";
}

/// Path / star / random tree with label "rare" on every 256th node.
Tree SkewTree(std::int64_t shape, std::size_t nodes) {
  TreeBuilder builder;
  if (shape == 0) {
    for (std::size_t i = 0; i < nodes; ++i) builder.Open(SkewLabel(i));
    for (std::size_t i = 0; i < nodes; ++i) builder.Close();
  } else if (shape == 1) {
    builder.Open(SkewLabel(0));
    for (std::size_t i = 1; i < nodes; ++i) builder.Leaf(SkewLabel(i));
    builder.Close();
  } else {
    Rng rng(1234);
    builder.Open(SkewLabel(0));
    std::size_t depth = 1;
    for (std::size_t i = 1; i < nodes; ++i) {
      builder.Open(SkewLabel(i));
      ++depth;
      while (depth > 1 && rng.Chance(2, 3)) {
        builder.Close();
        --depth;
      }
    }
    while (depth > 0) {
      builder.Close();
      --depth;
    }
  }
  return std::move(builder).Finish().value();
}

const char* kChainQuery = "descendant::*/child::*/child::rare";

void BM_ChainReassociation(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const bool parse_order = state.range(2) != 0;
  engine::DocumentStoreOptions store_options;
  store_options.relation_cache_bytes = 0;  // measure products, not the cache
  engine::DocumentStore store(store_options);
  const engine::DocumentId id =
      store.Insert(SkewTree(state.range(1), nodes));
  engine::QueryService service(
      {.num_threads = 1, .document_store = &store});
  engine::QueryJob job;
  job.document = id;
  job.query = kChainQuery;
  job.shape = engine::ResultShape::kFullRelation;
  job.overrides.engine = engine::EnginePlan::kMatrixGeneral;
  job.overrides.parse_order = parse_order;
  const std::vector<engine::QueryJob> jobs = {job};
  // Warm caches and capture the plan; refuse to report a failing job.
  engine::ExecutionPlan plan;
  {
    std::vector<engine::QueryResult> warm = service.EvaluateBatch(jobs);
    if (!warm[0].status.ok()) {
      state.SkipWithError(warm[0].status.ToString().c_str());
      return;
    }
    plan = warm[0].plan;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.EvaluateBatch(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["chains_reassociated"] =
      static_cast<double>(plan.chains_reassociated);
  state.counters["plan_sparse"] =
      plan.repr == MatrixRepr::kSparse ? 1.0 : 0.0;
}
BENCHMARK(BM_ChainReassociation)
    ->ArgsProduct({{2048, 8192, 65536}, {0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------ snapshot persistence
//
// The disk path (engine/snapshot.h): a save+load round trip of one
// indexed document with warm axis relations, at several tree sizes. The
// headline counter is `reload_speedup`: how many times faster decoding
// the segment is than re-parsing the term and rebuilding the indexes --
// the whole point of persisting them. The ROADMAP acceptance bar is
// >= 5x at 2048 nodes; tools/bench_compare.py fails the release job if
// the counter drops below that or this section goes missing from
// BENCH_batch_service.json.
//
// The counter models *startup*: a fresh process deciding between
// opening a snapshot and rebuilding the corpus. Parse cost is dominated
// by small-node allocation, so it roughly halves once a long-lived
// process has warmed the allocator's freelists -- running this
// benchmark after the rest of the suite understates the ratio by ~2x.
// CI therefore measures the counter in a dedicated fresh-process
// invocation (see .github/workflows/ci.yml) and passes that file to
// bench_compare.py --counters.

/// Fresh scratch directory for segment files; caller removes the files.
std::string BenchScratchDir() {
  char templ[] = "/tmp/xpv_bench_snap_XXXXXX";
  const char* dir = ::mkdtemp(templ);
  return dir == nullptr ? std::string("/tmp") : std::string(dir);
}

void BM_SnapshotSaveLoad(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(77);
  const Tree tree = BibliographyTree(rng, nodes / 6);
  const std::string term = tree.ToTerm();
  AxisCache cache(tree);
  cache.Matrix(Axis::kChild);
  cache.Matrix(Axis::kDescendant);
  const std::string dir = BenchScratchDir();
  const std::string path = dir + "/" + engine::SegmentFileName(1);

  // Counter arms, measured outside the timed loop: cold reload (decode
  // only, warm axes included in the segment) vs the work a fresh build
  // does to reach the same query-ready state -- parse + reindex
  // (Tree::ParseTerm builds the indexes) + materializing the same two
  // axis relations the segment hands back for free.
  // Median of per-rep times, not the mean: on a shared box a single
  // descheduling spike in either arm would otherwise skew the ratio.
  constexpr int kReps = 11;
  std::vector<double> parse_reps;
  parse_reps.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    Timer rep_timer;
    auto parsed = Tree::ParseTerm(term);
    if (!parsed.ok()) {
      state.SkipWithError(parsed.status().ToString().c_str());
      return;
    }
    AxisCache fresh(parsed.value());
    fresh.Matrix(Axis::kChild);
    fresh.Matrix(Axis::kDescendant);
    benchmark::DoNotOptimize(parsed.value());
    parse_reps.push_back(rep_timer.ElapsedSeconds());
  }
  std::nth_element(parse_reps.begin(), parse_reps.begin() + kReps / 2,
                   parse_reps.end());
  const double parse_seconds = parse_reps[kReps / 2];
  if (!engine::WriteDocumentSegment(path, 1, "bench", tree, &cache, false)
           .ok()) {
    state.SkipWithError("segment write failed");
    return;
  }
  std::vector<double> reload_reps;
  reload_reps.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    Timer rep_timer;
    auto loaded = engine::LoadDocumentSegment(path);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(loaded.value());
    reload_reps.push_back(rep_timer.ElapsedSeconds());
  }
  std::nth_element(reload_reps.begin(), reload_reps.begin() + kReps / 2,
                   reload_reps.end());
  const double reload_seconds = reload_reps[kReps / 2];

  for (auto _ : state) {
    Status written =
        engine::WriteDocumentSegment(path, 1, "bench", tree, &cache, false);
    auto loaded = engine::LoadDocumentSegment(path);
    if (!written.ok() || !loaded.ok()) {
      state.SkipWithError("save/load round trip failed");
      return;
    }
    benchmark::DoNotOptimize(loaded.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["reload_speedup"] =
      reload_seconds > 0 ? parse_seconds / reload_seconds : 0.0;
  state.counters["parse_ms"] = parse_seconds * 1e3;
  state.counters["reload_ms"] = reload_seconds * 1e3;
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}
BENCHMARK(BM_SnapshotSaveLoad)
    ->Arg(512)->Arg(2048)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// Spill-to-disk residency under deliberate thrash: a corpus 4x the
// resident budget, fetched round-robin so nearly every access evicts one
// cold document and faults another in (segment write amortizes away --
// immutable documents re-spill for free once their segment exists). The
// `reloads_per_fetch` counter tracks the miss rate (~1.0 under LRU +
// round-robin, the worst case); `resident_fraction` proves the RSS bound
// held: only a budget's worth of trees is ever hot. CI fails if this
// section goes missing from BENCH_batch_service.json.
void BM_SpillThrash(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const std::string dir = BenchScratchDir();
  constexpr std::size_t kCorpus = 12;
  constexpr std::size_t kBudget = 3;
  engine::DocumentStore store({.num_shards = 1,
                               .spill_dir = dir,
                               .max_resident_docs = kBudget});
  Rng rng(78);
  std::vector<engine::DocumentId> ids;
  std::size_t total_tree_bytes = 0;
  for (std::size_t i = 0; i < kCorpus; ++i) {
    Tree tree = BibliographyTree(rng, nodes / 6);
    total_tree_bytes += tree.resident_bytes();
    ids.push_back(store.Insert(std::move(tree)));
  }
  std::size_t next = 0;
  std::uint64_t failures = 0;
  for (auto _ : state) {
    auto fetched = store.Fetch(ids[next]);
    if (!fetched.ok()) ++failures;
    benchmark::DoNotOptimize(fetched);
    next = (next + 1) % ids.size();
  }
  if (failures != 0) {
    state.SkipWithError("spilled fetch failed");
    return;
  }
  const auto stats = store.stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["reloads_per_fetch"] =
      state.iterations() > 0
          ? static_cast<double>(stats.doc_reloads) /
                static_cast<double>(state.iterations())
          : 0.0;
  state.counters["resident_fraction"] =
      total_tree_bytes > 0
          ? static_cast<double>(stats.resident_doc_bytes) /
                static_cast<double>(total_tree_bytes)
          : 0.0;
  state.counters["mmap_mb"] =
      static_cast<double>(stats.mmap_bytes) / (1024.0 * 1024.0);
  for (const engine::DocumentId id : ids) {
    ::unlink((dir + "/" + engine::SegmentFileName(id)).c_str());
  }
  ::rmdir(dir.c_str());
}
BENCHMARK(BM_SpillThrash)
    ->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// One cold_churn-style write on each layer it crosses. BM_ParseTerm (L1)
// parses the term of a random document (6 labels, at most 8 children, the
// shape perfbench's cold_churn writes); counter `ns_per_node`.
// BM_StoreChurn (L5) is the whole write against a spilling store: the
// store keeps a window of 6 live documents with 4 resident, so each
// iteration's InsertTerm spills one document to a segment and its Remove
// deletes the oldest document's segment. Counters: `spills_per_write`,
// `ns_per_node`. CI fails if either section goes missing from
// BENCH_batch_service.json.

std::string ChurnTerm(std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  return RandomTree(rng, {.num_nodes = nodes,
                          .alphabet_size = 6,
                          .max_children = 8})
      .ToTerm();
}

void BM_ParseTerm(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const std::string term = ChurnTerm(nodes, 79);
  for (auto _ : state) {
    Result<Tree> tree = Tree::ParseTerm(term);
    if (!tree.ok()) {
      state.SkipWithError(tree.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(tree.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["ns_per_node"] = benchmark::Counter(
      static_cast<double>(nodes) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ParseTerm)
    ->Arg(4096)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void BM_StoreChurn(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTerms = 8;
  constexpr std::size_t kWindow = 6;
  std::vector<std::string> terms;
  for (std::size_t i = 0; i < kTerms; ++i) {
    terms.push_back(ChurnTerm(nodes, 80 + i));
  }
  const std::string dir = BenchScratchDir();
  std::uint64_t failures = 0;
  std::vector<engine::DocumentId> live;
  std::uint64_t spills = 0;
  {
    engine::DocumentStore store({.num_shards = 2,
                                 .spill_dir = dir,
                                 .max_resident_docs = 4});
    std::size_t next = 0;
    for (; next < kWindow; ++next) {
      auto id = store.InsertTerm(terms[next % kTerms]);
      if (id.ok()) live.push_back(id.value());
    }
    const std::uint64_t spills_before = store.stats().doc_spills;
    for (auto _ : state) {
      auto id = store.InsertTerm(terms[next++ % kTerms]);
      if (!id.ok() || !store.Remove(live.front())) ++failures;
      live.erase(live.begin());
      if (id.ok()) live.push_back(id.value());
    }
    spills = store.stats().doc_spills - spills_before;
    for (const engine::DocumentId id : live) store.Remove(id);
  }
  ::rmdir(dir.c_str());
  if (failures != 0) {
    state.SkipWithError("churn write failed");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["spills_per_write"] =
      state.iterations() > 0 ? static_cast<double>(spills) /
                                   static_cast<double>(state.iterations())
                             : 0.0;
  state.counters["ns_per_node"] = benchmark::Counter(
      static_cast<double>(nodes) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_StoreChurn)
    ->Arg(4096)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpv

// Custom main: always emit machine-readable results. Unless the caller
// passed an explicit --benchmark_out, results go to
// BENCH_batch_service.json in the working directory; `--smoke` shrinks
// min-time so CI can run the whole suite in seconds.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  bool has_out = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    args.push_back(argv[i]);
  }
  static std::string out_flag = "--benchmark_out=BENCH_batch_service.json";
  static std::string format_flag = "--benchmark_out_format=json";
  static std::string min_time_flag = "--benchmark_min_time=0.01";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  if (smoke) args.push_back(min_time_flag.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
