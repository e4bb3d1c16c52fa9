// Differential suite for the pluggable axis-relation representations
// (common/bool_matrix.h): the succinct IntervalMatrix must agree
// bit-for-bit with the dense BitMatrix -- and with the walk-based
// naive::* oracles -- for every axis, every kernel, every engine
// (MatrixEngine, DirectEvaluator, HCL leaves, GKP), every result shape
// of the QueryService at 1/2/8 threads, whichever backing the AxisCache
// is forced to. Also covers the dense-only bugfixes that ride along:
// the fallible BitMatrix::Create guard, the planner's dense-ceiling
// refusal, representation-exact approx_resident_bytes(), the
// publication ordering of the cache's build counters under concurrency,
// and the large-tree (1M-node) flat-memory smoke.
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_matrix.h"
#include "common/bool_matrix.h"
#include "common/rng.h"
#include "common/sparse_matrix.h"
#include "engine/document_store.h"
#include "engine/query_service.h"
#include "hcl/binary_query.h"
#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "tree/axes.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"
#include "tree/naive_reference.h"
#include "xpath/eval.h"

namespace xpv {
namespace {

std::vector<Tree> Corpus(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tree> corpus;
  for (std::size_t nodes : {1u, 2u, 13u, 64u, 65u, 130u}) {
    RandomTreeOptions opts;
    opts.num_nodes = nodes;
    opts.alphabet_size = 1 + rng.Below(4);
    corpus.push_back(RandomTree(rng, opts));
  }
  corpus.push_back(PathTree(67));
  corpus.push_back(StarTree(66));
  corpus.push_back(PerfectBinaryTree(5));
  return corpus;
}

BitVector RandomNodeSet(Rng& rng, std::size_t n, std::size_t density_pct) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Below(100) < density_pct) v.Set(i);
  }
  return v;
}

class BoolMatrixPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

// ------------------------------------------- representation equivalence

TEST_P(BoolMatrixPropertyTest, IntervalMatrixMatchesNaiveOracle) {
  for (const Tree& t : Corpus(GetParam())) {
    for (Axis axis : kAllAxes) {
      const IntervalMatrix m = AxisIntervalMatrix(t, axis);
      const BitMatrix oracle = naive::AxisMatrix(t, axis);
      ASSERT_EQ(m.size(), t.size());
      Result<BitMatrix> dense = m.ToDense();
      ASSERT_TRUE(dense.ok()) << dense.status();
      EXPECT_EQ(*dense, oracle)
          << AxisName(axis) << "\ntree: " << t.ToTerm();
      EXPECT_EQ(m.Count(), oracle.Count()) << AxisName(axis);
      // Runs must be canonical: sorted, disjoint, maximal, nonempty.
      for (NodeId v = 0; v < t.size(); ++v) {
        auto [first, last] = m.RunsOf(v);
        for (auto it = first; it != last; ++it) {
          EXPECT_LT(it->begin, it->end);
          if (it + 1 != last) EXPECT_LT(it->end, (it + 1)->begin);
        }
      }
    }
  }
}

TEST_P(BoolMatrixPropertyTest, KernelsMatchDenseOnEveryAxis) {
  Rng rng(GetParam() * 977 + 5);
  for (const Tree& t : Corpus(GetParam())) {
    const std::size_t n = t.size();
    for (Axis axis : kAllAxes) {
      const IntervalMatrix interval = AxisIntervalMatrix(t, axis);
      const DenseBoolMatrix dense(AxisMatrix(t, axis));
      EXPECT_EQ(interval.NonEmptyRows(), dense.NonEmptyRows());
      for (std::size_t probe = 0; probe < 16; ++probe) {
        const auto r = static_cast<std::size_t>(rng.Below(n));
        const auto c = static_cast<std::size_t>(rng.Below(n));
        EXPECT_EQ(interval.Get(r, c), dense.Get(r, c))
            << AxisName(axis) << " (" << r << "," << c << ")";
      }
      BitVector scratch;  // pooled across rows on purpose
      std::vector<std::uint32_t> some_rows;
      for (NodeId v = 0; v < n; ++v) {
        interval.RowInto(v, scratch);
        EXPECT_EQ(scratch, dense.Row(v)) << AxisName(axis) << " row " << v;
        if (v % 3 == 0) some_rows.push_back(v);
      }
      const auto batch_i = interval.Rows(some_rows);
      const auto batch_d = dense.Rows(some_rows);
      ASSERT_EQ(batch_i.size(), batch_d.size());
      for (std::size_t i = 0; i < batch_i.size(); ++i) {
        EXPECT_EQ(batch_i[i], batch_d[i]);
      }
      for (std::size_t density : {0u, 3u, 40u, 100u}) {
        const BitVector sel = RandomNodeSet(rng, n, density);
        EXPECT_EQ(interval.ImageOf(sel), dense.ImageOf(sel))
            << AxisName(axis) << " density " << density;
        EXPECT_EQ(interval.AndOfRows(sel), dense.AndOfRows(sel))
            << AxisName(axis) << " density " << density;
        EXPECT_EQ(interval.RowsContaining(sel), dense.RowsContaining(sel))
            << AxisName(axis) << " density " << density;
      }
    }
  }
}

TEST(BitVectorRangeTest, ClearRangeAndAnyInRangeMatchBitLoops) {
  Rng rng(7);
  for (std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    for (int trial = 0; trial < 30; ++trial) {
      BitVector v = RandomNodeSet(rng, n, 50);
      const std::size_t a = rng.Below(n + 1);
      const std::size_t b = a + rng.Below(n + 1 - a);
      bool any = false;
      for (std::size_t i = a; i < b; ++i) any = any || v.Get(i);
      EXPECT_EQ(v.AnyInRange(a, b), any) << n << " [" << a << "," << b << ")";
      BitVector cleared = v;
      cleared.ClearRange(a, b);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(cleared.Get(i), v.Get(i) && (i < a || i >= b)) << i;
      }
    }
  }
}

// --------------------------------------------------- allocation guards

TEST(DenseCeilingTest, CreateRefusesOversizedDimensions) {
  Result<BitMatrix> small = BitMatrix::Create(17);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->size(), 17u);
  Result<BitMatrix> huge = BitMatrix::Create(BitMatrix::kMaxDenseNodes + 1);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
  // ToDense on an interval matrix of an oversized tree fails the same way
  // instead of attempting the O(n^2)-bit allocation.
  Tree big = PathTree(BitMatrix::kMaxDenseNodes + 2);
  Result<BitMatrix> expanded =
      AxisIntervalMatrix(big, Axis::kDescendant).ToDense();
  ASSERT_FALSE(expanded.ok());
  EXPECT_EQ(expanded.status().code(), StatusCode::kResourceExhausted);
}

// Densifying a run list writes only its runs into calloc'd storage. The
// result must equal a matrix set bit by bit -- also when the allocator
// recycles the chunk of a full matrix destroyed just before.
TEST(DenseCeilingTest, ToDenseOfARunListMatchesABitwiseOracle) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_nodes = 16384;
  opts.alphabet_size = 6;
  opts.max_children = 8;
  const Tree t = RandomTree(rng, opts);
  const std::size_t n = t.size();
  // descendant::a/child::b/child::e, composed in the run-list form.
  const ppl::PplBinPtr p = ppl::PplBinExpr::Compose(
      ppl::PplBinExpr::Compose(ppl::PplBinExpr::Step(Axis::kDescendant, "a"),
                               ppl::PplBinExpr::Step(Axis::kChild, "b")),
      ppl::PplBinExpr::Step(Axis::kChild, "e"));
  ppl::MatrixEngine engine(std::make_shared<AxisCache>(t),
                           ppl::MultiplyMode::kBitPacked, MatrixRepr::kSparse);
  Result<ppl::AnyMatrix> rel = engine.EvaluateAny(*p);
  ASSERT_TRUE(rel.ok()) << rel.status();
  ASSERT_FALSE(rel->is_dense());
  const SparseBoolMatrix& runs = rel->sparse();
  ASSERT_GT(runs.num_runs(), 0u);

  BitMatrix oracle(n);
  std::size_t bits = 0;
  for (std::size_t r = 0; r < n; ++r) {
    auto [first, last] = runs.RunsOf(r);
    for (auto it = first; it != last; ++it) {
      for (std::size_t c = it->begin; c < it->end; ++c) oracle.Set(r, c);
      bits += it->end - it->begin;
    }
  }
  { const BitMatrix dirty = BitMatrix::Full(n); }
  Result<BitMatrix> dense = rel->ToDense();
  ASSERT_TRUE(dense.ok()) << dense.status();
  EXPECT_EQ(dense->Count(), bits);
  EXPECT_EQ(oracle.Count(), bits);
  EXPECT_TRUE(*dense == oracle);
}

TEST(DenseCeilingTest, ServiceCrossesOverToSparseOnOversizedTrees) {
  Tree t = PathTree(BitMatrix::kMaxDenseNodes + 10);
  const std::size_t n = t.size();
  engine::QueryService service({.num_threads = 1});
  // The full-relation answer of a path tree's descendant axis is the
  // strict upper triangle -- n runs, far under the sparse byte budget, so
  // the planner crosses over to the sparse engine instead of refusing.
  // Above the ceiling the payload arrives as the run-list relation.
  engine::QueryResult full =
      service.Evaluate(t, "descendant::a", engine::ResultShape::kFullRelation);
  ASSERT_TRUE(full.status.ok())
      << full.status << " " << full.plan.DebugString();
  EXPECT_EQ(full.plan.repr, MatrixRepr::kSparse) << full.plan.DebugString();
  ASSERT_NE(full.relation_sparse, nullptr);
  EXPECT_EQ(full.relation.size(), 0u);
  EXPECT_EQ(full.relation_sparse->Count(), n * (n - 1) / 2);
  EXPECT_TRUE(full.relation_sparse->Get(0, n - 1));
  EXPECT_FALSE(full.relation_sparse->Get(5, 3));
  BitVector root_only(n);
  root_only.Set(0);
  EXPECT_EQ(full.from_root, full.relation_sparse->ImageOf(root_only));
  // N-ary machinery is dense end-to-end: still refused for batch shapes
  // and streams alike.
  engine::QueryResult nary = service.Evaluate(t, "$x/descendant::*/$y",
                                              engine::ResultShape::kCount);
  EXPECT_EQ(nary.status.code(), StatusCode::kResourceExhausted);
  Result<engine::QueryStream> stream =
      service.OpenStream(t, "$x/descendant::*/$y");
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kResourceExhausted);
  // A from-root set difference builds no matrix at all. Surface `except`
  // compiles to except(except L union R), and a complement reached from
  // the root alone needs only the root's row, which the image sweep
  // computes directly. So the job consults an attached relation cache
  // not once, and even a forced dense representation is not refused. On
  // a path, descendants of the root minus its children = nodes 2..n-1.
  engine::DocumentStore store;
  const engine::DocumentId doc = store.Insert(Tree(t));
  engine::QueryService stored({.num_threads = 1, .document_store = &store});
  for (std::optional<MatrixRepr> repr :
       {std::optional<MatrixRepr>(), std::optional(MatrixRepr::kDense)}) {
    engine::QueryJob job{.document = doc,
                         .query = "descendant::a except child::a",
                         .shape = engine::ResultShape::kCount};
    job.overrides.repr = repr;
    const engine::QueryResult cmpl = stored.EvaluateBatch({job})[0];
    ASSERT_TRUE(cmpl.status.ok())
        << cmpl.status << " " << cmpl.plan.DebugString();
    EXPECT_EQ(cmpl.count, n - 2);
  }
  EXPECT_EQ(stored.stats().subrel_hits + stored.stats().subrel_misses, 0u);
  EXPECT_EQ(store.stats().relation_hits + store.stats().relation_misses, 0u);
  // Monadic shapes of positive queries -- the serving workload -- keep
  // working through interval axes.
  engine::QueryResult count =
      service.Evaluate(t, "descendant::a", engine::ResultShape::kCount);
  ASSERT_TRUE(count.status.ok()) << count.status;
  EXPECT_EQ(count.count, t.size() - 1);
  engine::QueryResult filtered = service.Evaluate(
      t, "descendant::a[child::a]", engine::ResultShape::kBoolean);
  ASSERT_TRUE(filtered.status.ok())
      << filtered.status << " " << filtered.plan.DebugString();
  EXPECT_TRUE(filtered.boolean);
  // And a bare complement-of-step stays dense-free on the same oversized
  // tree: for a single source node, image-of-complement is the complement
  // of the image, which pins down the fast path without any oracle.
  auto cache = std::make_shared<AxisCache>(t);
  ASSERT_TRUE(cache->interval_backed());
  ppl::MatrixEngine engine(cache);
  BitVector root(t.size());
  root.Set(0);
  ppl::PplBinPtr step = ppl::PplBinExpr::Step(Axis::kChild, "*");
  BitVector expected = engine.Image(*step, root).value();
  expected.Complement();
  EXPECT_EQ(engine
                .Image(*ppl::PplBinExpr::Complement(
                           ppl::PplBinExpr::Step(Axis::kChild, "*")),
                       root)
                .value(),
            expected);
}

// ------------------------------------------- engine differentials (forced)

ppl::PplBinPtr RandomPplBin(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(1, 3)) {
    if (rng.Chance(1, 5)) return ppl::PplBinExpr::Self();
    return ppl::PplBinExpr::Step(
        kAllAxes[rng.Below(kAllAxes.size())],
        rng.Chance(1, 3) ? "*" : GeneratorLabel(rng.Below(3)));
  }
  switch (rng.Below(4u)) {
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

TEST_P(BoolMatrixPropertyTest, MatrixEngineAgreesAcrossBackings) {
  Rng rng(GetParam() * 31 + 1);
  for (const Tree& t : Corpus(GetParam())) {
    auto dense_cache = std::make_shared<AxisCache>(t, AxisBacking::kDense);
    auto interval_cache =
        std::make_shared<AxisCache>(t, AxisBacking::kInterval);
    ASSERT_FALSE(dense_cache->interval_backed());
    ASSERT_TRUE(interval_cache->interval_backed());
    ppl::MatrixEngine dense_engine(dense_cache);
    ppl::MatrixEngine interval_engine(interval_cache);
    for (int trial = 0; trial < 8; ++trial) {
      ppl::PplBinPtr p = RandomPplBin(rng, 3);
      EXPECT_EQ(dense_engine.Evaluate(*p), interval_engine.Evaluate(*p))
          << p->ToString() << "\ntree: " << t.ToTerm();
      EXPECT_EQ(dense_engine.EvaluateFromRoot(*p).value(),
                interval_engine.EvaluateFromRoot(*p).value())
          << p->ToString();
      EXPECT_EQ(dense_engine.Domain(*p).value(),
                interval_engine.Domain(*p).value())
          << p->ToString();
      const BitVector from = RandomNodeSet(rng, t.size(), 25);
      EXPECT_EQ(dense_engine.Image(*p, from).value(),
                interval_engine.Image(*p, from).value())
          << p->ToString();
      EXPECT_EQ(dense_engine.Preimage(*p, from).value(),
                interval_engine.Preimage(*p, from).value())
          << p->ToString();
    }
    // The complement-of-step fast path, explicitly, for every axis: both
    // the masked and the wildcard variant, against the dense oracle.
    for (Axis axis : kAllAxes) {
      for (const char* name : {"", "a"}) {
        ppl::PplBinPtr p =
            ppl::PplBinExpr::Complement(ppl::PplBinExpr::Step(axis, name));
        const BitVector from = RandomNodeSet(rng, t.size(), 30);
        EXPECT_EQ(dense_engine.Image(*p, from).value(),
                  interval_engine.Image(*p, from).value())
            << p->ToString();
        EXPECT_EQ(dense_engine.Preimage(*p, from).value(),
                  interval_engine.Preimage(*p, from).value())
            << p->ToString();
        const BitVector empty(t.size());
        EXPECT_EQ(dense_engine.Image(*p, empty).value(),
                  interval_engine.Image(*p, empty).value());
        EXPECT_EQ(dense_engine.Preimage(*p, empty).value(),
                  interval_engine.Preimage(*p, empty).value());
      }
    }
  }
}

TEST_P(BoolMatrixPropertyTest, DirectHclAndGkpAgreeAcrossBackings) {
  Rng rng(GetParam() * 67 + 2);
  for (const Tree& t : Corpus(GetParam())) {
    auto dense_cache = std::make_shared<AxisCache>(t, AxisBacking::kDense);
    auto interval_cache =
        std::make_shared<AxisCache>(t, AxisBacking::kInterval);
    // DirectEvaluator (Fig. 2 semantics).
    xpath::DirectEvaluator dense_eval(dense_cache);
    xpath::DirectEvaluator interval_eval(interval_cache);
    for (int trial = 0; trial < 4; ++trial) {
      ppl::PplBinPtr p = RandomPplBin(rng, 2);
      EXPECT_EQ(dense_eval.EvalPath(*ppl::ToXPath(*p), {}),
                interval_eval.EvalPath(*ppl::ToXPath(*p), {}))
          << p->ToString();
    }
    // HCL axis leaves.
    for (Axis axis : kAllAxes) {
      for (const char* name : {"", "a"}) {
        hcl::AxisQuery leaf(axis, name);
        EXPECT_EQ(leaf.EvaluateCached(dense_cache).value(),
                  leaf.EvaluateCached(interval_cache).value())
            << leaf.ToString();
        EXPECT_EQ(leaf.EvaluateCached(interval_cache).value(),
                  leaf.Evaluate(t))
            << leaf.ToString();
      }
    }
    // GKP (label sets come from the same cache object).
    ppl::GkpEngine dense_gkp(dense_cache);
    ppl::GkpEngine interval_gkp(interval_cache);
    ppl::PplBinPtr step = ppl::PplBinExpr::Step(Axis::kDescendant, "a");
    Result<BitMatrix> a = dense_gkp.Relation(*step);
    Result<BitMatrix> b = interval_gkp.Relation(*step);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST_P(BoolMatrixPropertyTest, ServiceShapesAgreeAcrossBackingsAndThreads) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    std::vector<std::vector<engine::QueryResult>> per_backing;
    for (AxisBacking backing : {AxisBacking::kDense, AxisBacking::kInterval}) {
      engine::DocumentStoreOptions store_options;
      store_options.axis_backing = backing;
      engine::DocumentStore store(store_options);
      std::vector<engine::DocumentId> ids;
      for (Tree& t : Corpus(GetParam())) {
        ids.push_back(store.Insert(std::move(t)));
      }
      engine::QueryService service(
          {.num_threads = threads, .document_store = &store});
      const std::vector<std::string> queries = {
          "descendant::a",
          "child::*/following-sibling::a",
          "descendant::a except child::a",
          "ancestor::*",
          "preceding-sibling::a/parent::*",
          "self::a[descendant::b]",
      };
      std::vector<engine::QueryResult> results;
      for (engine::DocumentId id : ids) {
        for (const std::string& q : queries) {
          for (engine::ResultShape shape :
               {engine::ResultShape::kFullRelation,
                engine::ResultShape::kFromRootSet,
                engine::ResultShape::kBoolean, engine::ResultShape::kCount}) {
            results.push_back(service.Evaluate(id, q, shape));
          }
        }
      }
      per_backing.push_back(std::move(results));
    }
    ASSERT_EQ(per_backing[0].size(), per_backing[1].size());
    for (std::size_t i = 0; i < per_backing[0].size(); ++i) {
      const engine::QueryResult& d = per_backing[0][i];
      const engine::QueryResult& v = per_backing[1][i];
      EXPECT_EQ(d.status, v.status) << i;
      EXPECT_TRUE(d.plan == v.plan) << i;
      EXPECT_EQ(d.relation, v.relation) << i;
      EXPECT_EQ(d.from_root, v.from_root) << i;
      EXPECT_EQ(d.boolean, v.boolean) << i;
      EXPECT_EQ(d.count, v.count) << i;
    }
  }
}

// --------------------------------------------------- resident accounting

TEST(AxisCacheBytesTest, ResidentBytesMatchesChosenRepresentation) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_nodes = 300;
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);
  for (AxisBacking backing : {AxisBacking::kDense, AxisBacking::kInterval}) {
    AxisCache cache(t, backing);
    EXPECT_EQ(cache.approx_resident_bytes(), 0u);
    std::size_t expected = 0;
    for (Axis axis : kAllAxes) {
      const BoolMatrix& m = cache.Matrix(axis);
      EXPECT_EQ(m.name(),
                backing == AxisBacking::kDense ? "dense" : "interval");
      expected += m.resident_bytes();
    }
    // Within 10% of the chosen representation's true footprint (labels not
    // built yet, so matrices are the whole story).
    const std::size_t got = cache.approx_resident_bytes();
    EXPECT_GE(got * 10, expected * 9) << got << " vs " << expected;
    EXPECT_LE(got * 10, expected * 11) << got << " vs " << expected;
    // Label sets add their payload plus the documented map-node overhead.
    const std::size_t before = cache.approx_resident_bytes();
    cache.Labels("a");
    cache.Labels("*");
    const std::size_t words = (t.size() + 63) / 64;
    EXPECT_GE(cache.approx_resident_bytes(),
              before + 2 * words * 8 + 2 * AxisCache::kLabelMapNodeBytes);
  }
  // The dense and interval footprints must actually differ (the old stat
  // reported the dense formula for both).
  AxisCache dense(t, AxisBacking::kDense);
  AxisCache interval(t, AxisBacking::kInterval);
  for (Axis axis : kAllAxes) {
    dense.Matrix(axis);
    interval.Matrix(axis);
  }
  EXPECT_NE(dense.approx_resident_bytes(), interval.approx_resident_bytes());
}

TEST(AxisCacheBytesTest, StatNeverReadsHalfBuiltState) {
  Rng rng(13);
  RandomTreeOptions opts;
  opts.num_nodes = 600;
  Tree t = RandomTree(rng, opts);
  for (int round = 0; round < 4; ++round) {
    AxisCache cache(t, round % 2 == 0 ? AxisBacking::kDense
                                      : AxisBacking::kInterval);
    std::vector<std::thread> workers;
    // Builders hammer all 7 axes concurrently...
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&cache, w] {
        for (std::size_t i = 0; i < kAllAxes.size(); ++i) {
          cache.Matrix(kAllAxes[(i + static_cast<std::size_t>(w)) %
                                kAllAxes.size()]);
        }
      });
    }
    // ...while readers watch the stats: bytes and counters must be
    // monotone, and a counter of k implies at least k readable entries'
    // bytes (publication precedes counting).
    std::vector<std::thread> readers;
    for (int w = 0; w < 2; ++w) {
      readers.emplace_back([&cache] {
        std::size_t last_bytes = 0;
        std::size_t last_built = 0;
        for (int i = 0; i < 2000; ++i) {
          const std::size_t built = cache.matrices_built();
          const std::size_t bytes = cache.approx_resident_bytes();
          EXPECT_GE(built, last_built);
          EXPECT_GE(bytes, last_bytes);
          EXPECT_LE(built, kAllAxes.size());
          if (built > 0) EXPECT_GT(bytes, 0u);
          last_built = built;
          last_bytes = bytes;
        }
      });
    }
    for (auto& th : workers) th.join();
    for (auto& th : readers) th.join();
    EXPECT_EQ(cache.matrices_built(), kAllAxes.size());
  }
}

// ------------------------------------------------- million-node smoke

TEST(MillionNodeSmokeTest, AxisRelationsStayNearLinear) {
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_nodes = 1u << 20;
  opts.alphabet_size = 3;
  struct Case {
    const char* name;
    Tree tree;
  };
  std::vector<Case> cases;
  cases.push_back({"path", PathTree(1u << 20)});
  cases.push_back({"star", StarTree(1u << 20)});
  cases.push_back({"random", RandomTree(rng, opts)});
  for (const Case& c : cases) {
    const std::size_t n = c.tree.size();
    // kAuto: interval above the dense threshold.
    auto cache = std::make_shared<AxisCache>(c.tree);
    ASSERT_TRUE(cache->interval_backed()) << c.name;
    for (Axis axis : kAllAxes) cache->Matrix(axis);
    const std::size_t bytes = cache->approx_resident_bytes();
    const std::size_t dense_formula =
        kAllAxes.size() * n * ((n + 63) / 64) * 8;
    // Flat memory: O(n log n) bytes, and >= 100x below the dense formula
    // (the ROADMAP acceptance; the real ratio is ~5 orders of magnitude).
    const double cap = 24.0 * static_cast<double>(n) *
                       std::log2(static_cast<double>(n));
    EXPECT_LT(static_cast<double>(bytes), cap) << c.name;
    EXPECT_LT(bytes * 100, dense_formula) << c.name;
    // And the monadic serving path works end-to-end at this size.
    engine::QueryService service({.num_threads = 1});
    engine::QueryResult count = service.Evaluate(
        c.tree, "descendant::*", engine::ResultShape::kCount);
    ASSERT_TRUE(count.status.ok()) << c.name << ": " << count.status;
    EXPECT_EQ(count.count, n - 1) << c.name;
    // Complement-of-step stays consistent at this scale too: from a single
    // source node, image-of-complement == complement-of-image.
    ppl::MatrixEngine matrix(cache);
    BitVector root(n);
    root.Set(0);
    BitVector expected =
        matrix.Image(*ppl::PplBinExpr::Step(Axis::kChild, "*"), root).value();
    expected.Complement();
    EXPECT_EQ(matrix
                  .Image(*ppl::PplBinExpr::Complement(
                             ppl::PplBinExpr::Step(Axis::kChild, "*")),
                         root)
                  .value(),
              expected)
        << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoolMatrixPropertyTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace xpv
