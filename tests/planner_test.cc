// Differential property suite for the cost-based, result-shape-aware
// query planner (engine/planner.h) and the monadic row-restricted engine
// entry points it dispatches to.
//
// The planner's contract: the cost model may pick *any* admissible
// engine, and a caller may request *any* result shape, without the answer
// changing. So for seeded random (tree, query, shape) triples, every
// admissible plan choice (forced via PlanOverrides::engine) and every
// shape must produce results consistent with the full-relation
// matrix-engine ground truth, byte-identical at 1, 2 and 8 threads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/planner.h"
#include "engine/query_service.h"
#include "engine/query_stream.h"
#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "tree/generators.h"

namespace xpv {
namespace {

using engine::EnginePlan;
using engine::ExecutionPlan;
using engine::ResultShape;

constexpr ResultShape kAllShapes[] = {
    ResultShape::kFullRelation,
    ResultShape::kFromRootSet,
    ResultShape::kBoolean,
    ResultShape::kCount,
};

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

/// Ground truth for every shape: the full relation from the matrix
/// engine's bottom-up Section 4 evaluation.
BitMatrix GroundTruth(const Tree& t, const ppl::PplBinExpr& p) {
  ppl::MatrixEngine eng(t);
  return eng.Evaluate(p);
}

/// Checks one QueryResult against the ground-truth relation under the
/// requested shape's payload contract.
void ExpectShapeConsistent(const engine::QueryResult& result,
                           ResultShape shape, const Tree& t,
                           const BitMatrix& truth, const std::string& ctx) {
  ASSERT_TRUE(result.status.ok()) << ctx << ": " << result.status;
  const BitVector root_row = truth.Row(t.root());
  switch (shape) {
    case ResultShape::kFullRelation:
      EXPECT_EQ(result.relation, truth) << ctx;
      EXPECT_EQ(result.from_root, root_row) << ctx;
      break;
    case ResultShape::kFromRootSet:
      EXPECT_EQ(result.from_root, root_row) << ctx;
      EXPECT_EQ(result.relation.size(), 0u) << ctx;
      break;
    case ResultShape::kBoolean:
      EXPECT_EQ(result.boolean, root_row.Any()) << ctx;
      break;
    case ResultShape::kCount:
      EXPECT_EQ(result.count, root_row.Count()) << ctx;
      break;
  }
}

/// Serves `jobs` on `t` through a fresh store and service (every job is
/// pointed at the stored copy), so each call starts with cold caches.
std::vector<engine::QueryResult> EvaluateOnFreshStore(
    const Tree& t, std::vector<engine::QueryJob> jobs, std::size_t threads) {
  engine::DocumentStore store;
  const engine::DocumentId id = store.Insert(Tree(t));
  for (engine::QueryJob& job : jobs) job.document = id;
  engine::QueryService service(
      {.num_threads = threads, .document_store = &store});
  return service.EvaluateBatch(jobs);
}

// ----------------------------------------- engine-level monadic kernels

class PlannerDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerDifferentialTest, MatrixImagePreimageDomainMatchRelation) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/true);
    ppl::MatrixEngine eng(t);
    const BitMatrix truth = eng.Evaluate(*p);
    // A random node set, sometimes empty, sometimes full.
    BitVector from(t.size());
    for (NodeId v = 0; v < t.size(); ++v) {
      if (rng.Chance(1, 3)) from.Set(v);
    }
    if (rng.Chance(1, 10)) from.Clear();
    EXPECT_EQ(eng.Image(*p, from).value(), truth.ImageOf(from))
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
    EXPECT_EQ(eng.Preimage(*p, from).value(), truth.Transpose().ImageOf(from))
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
    EXPECT_EQ(eng.Domain(*p).value(), truth.NonEmptyRows())
        << "query: " << p->ToString() << "\ntree: " << t.ToTerm();
  }
}

TEST_P(PlannerDifferentialTest, GkpRelationRowsMatchFromNodeImages) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/false);
    ASSERT_TRUE(p->IsPositive());
    ppl::GkpEngine gkp(t);
    const BitMatrix truth = GroundTruth(t, *p);
    Result<BitMatrix> rel = gkp.Relation(*p);
    ASSERT_TRUE(rel.ok()) << rel.status();
    EXPECT_EQ(*rel, truth) << "query: " << p->ToString();
    const NodeId u = static_cast<NodeId>(rng.Below(t.size()));
    ppl::MatrixEngine matrix(t);
    Result<BitVector> image = matrix.EvaluateFromNode(*p, u);
    ASSERT_TRUE(image.ok()) << image.status();
    EXPECT_EQ(*image, truth.Row(u))
        << "query: " << p->ToString() << " node " << u;
    Result<BitVector> from_root = gkp.FromRoot(*p);
    ASSERT_TRUE(from_root.ok()) << from_root.status();
    EXPECT_EQ(*from_root, truth.Row(t.root())) << "query: " << p->ToString();
  }
}

// ------------------------- every admissible plan x shape x thread count

TEST_P(PlannerDifferentialTest, AllPlansAndShapesAgreeWithGroundTruth) {
  Rng rng(GetParam() ^ 0x91a);
  for (int trial = 0; trial < 8; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/true);
    const std::string text = ppl::ToXPath(*p)->ToString();
    const BitMatrix truth = GroundTruth(t, *p);

    auto compiled = engine::CompileQuery(text);
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();

    // Jobs: planner's own choice plus every admissible engine forced,
    // crossed with every shape.
    std::vector<engine::QueryJob> jobs;
    std::vector<ResultShape> job_shapes;
    for (ResultShape shape : kAllShapes) {
      engine::QueryJob job;
      job.query = text;
      job.shape = shape;
      jobs.push_back(job);
      job_shapes.push_back(shape);
      for (EnginePlan forced : (*compiled)->admissible) {
        job.overrides.engine = forced;
        jobs.push_back(job);
        job_shapes.push_back(shape);
      }
    }

    std::vector<std::vector<engine::QueryResult>> per_thread_count;
    for (std::size_t threads : {1u, 2u, 8u}) {
      per_thread_count.push_back(EvaluateOnFreshStore(t, jobs, threads));
      const auto& results = per_thread_count.back();
      ASSERT_EQ(results.size(), jobs.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::string ctx = "threads=" + std::to_string(threads) + " job " +
                          std::to_string(i) + " plan " +
                          results[i].plan.DebugString() + "\nquery: " + text +
                          "\ntree: " + t.ToTerm();
        ExpectShapeConsistent(results[i], job_shapes[i], t, truth, ctx);
        // A forced engine must actually be the one that ran.
        if (jobs[i].overrides.engine.has_value()) {
          EXPECT_EQ(results[i].plan.engine, *jobs[i].overrides.engine) << ctx;
        }
      }
    }
    // Byte-identical across thread counts.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (std::size_t tc = 1; tc < per_thread_count.size(); ++tc) {
        EXPECT_TRUE(per_thread_count[0][i].plan == per_thread_count[tc][i].plan);
        EXPECT_EQ(per_thread_count[0][i].relation,
                  per_thread_count[tc][i].relation);
        EXPECT_EQ(per_thread_count[0][i].from_root,
                  per_thread_count[tc][i].from_root);
        EXPECT_EQ(per_thread_count[0][i].boolean,
                  per_thread_count[tc][i].boolean);
        EXPECT_EQ(per_thread_count[0][i].count, per_thread_count[tc][i].count);
      }
    }
  }
}

// ------------------- every representation x engine x shape x threads

constexpr MatrixRepr kAllReprs[] = {
    MatrixRepr::kDense,
    MatrixRepr::kSparse,
    MatrixRepr::kAuto,
};

TEST_P(PlannerDifferentialTest, AllReprsAndShapesAgreeWithGroundTruth) {
  Rng rng(GetParam() ^ 0xc0de);
  for (int trial = 0; trial < 5; ++trial) {
    Tree t = MakeRandomTree(rng);
    ppl::PplBinPtr p = RandomPplBin(rng, 3, /*allow_complement=*/true);
    const std::string text = ppl::ToXPath(*p)->ToString();
    const BitMatrix truth = GroundTruth(t, *p);

    auto compiled = engine::CompileQuery(text);
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();

    // Jobs: every forced representation, alone (which routes to the
    // matrix engine) and crossed with every admissible forced engine and
    // every shape. Results must be byte-identical to the dense ground
    // truth regardless of the representation the kernels composed in.
    std::vector<engine::QueryJob> jobs;
    std::vector<ResultShape> job_shapes;
    for (ResultShape shape : kAllShapes) {
      for (MatrixRepr repr : kAllReprs) {
        engine::QueryJob job;
        job.query = text;
        job.shape = shape;
        job.overrides.repr = repr;
        jobs.push_back(job);
        job_shapes.push_back(shape);
        for (engine::EnginePlan forced : (*compiled)->admissible) {
          job.overrides.engine = forced;
          jobs.push_back(job);
          job_shapes.push_back(shape);
        }
      }
    }

    std::vector<std::vector<engine::QueryResult>> per_thread_count;
    for (std::size_t threads : {1u, 2u, 8u}) {
      per_thread_count.push_back(EvaluateOnFreshStore(t, jobs, threads));
      const auto& results = per_thread_count.back();
      ASSERT_EQ(results.size(), jobs.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::string ctx = "threads=" + std::to_string(threads) + " repr=" +
                          std::string(MatrixReprName(*jobs[i].overrides.repr)) +
                          " job " + std::to_string(i) + " plan " +
                          results[i].plan.DebugString() + "\nquery: " + text +
                          "\ntree: " + t.ToTerm();
        ExpectShapeConsistent(results[i], job_shapes[i], t, truth, ctx);
        // Small trees always densify the payload; the sparse handoff is
        // reserved for trees above the dense ceiling.
        EXPECT_EQ(results[i].relation_sparse, nullptr) << ctx;
        if (!jobs[i].overrides.engine.has_value()) {
          // A bare repr override must route to the matrix engine and pin
          // the representation it asked for.
          EXPECT_EQ(results[i].plan.engine, EnginePlan::kMatrixGeneral)
              << ctx;
          EXPECT_EQ(results[i].plan.repr, *jobs[i].overrides.repr) << ctx;
        }
      }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (std::size_t tc = 1; tc < per_thread_count.size(); ++tc) {
        EXPECT_TRUE(per_thread_count[0][i].plan ==
                    per_thread_count[tc][i].plan);
        EXPECT_EQ(per_thread_count[0][i].relation,
                  per_thread_count[tc][i].relation);
        EXPECT_EQ(per_thread_count[0][i].from_root,
                  per_thread_count[tc][i].from_root);
        EXPECT_EQ(per_thread_count[0][i].boolean,
                  per_thread_count[tc][i].boolean);
        EXPECT_EQ(per_thread_count[0][i].count, per_thread_count[tc][i].count);
      }
    }
  }
}

// Forcing a representation on an n-ary query is meaningless: rejected.
TEST(PlannerReprOverrideTest, NaryQueriesRejectReprOverrides) {
  Tree t = *Tree::ParseTerm("a(b,c)");
  engine::QueryJob job;
  job.query = "descendant::b/$x";
  job.overrides.repr = MatrixRepr::kSparse;
  std::vector<engine::QueryResult> results =
      EvaluateOnFreshStore(t, {job}, /*threads=*/1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
}

// Full relations above the dense ceiling: the sparse crossover must hand
// back a run-list relation whose rows match an independent oracle -- the
// row-restricted image sweep, which shares no code with the sparse
// product kernels.
TEST(SparseFullRelationTest, OversizedTreeMatchesSubsampledOracleRows) {
  Rng rng(404);
  RandomTreeOptions opts;
  opts.num_nodes = (1u << 16) + 123;  // 65659 nodes, 2x the dense ceiling
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);
  ASSERT_GT(t.size(), 2 * BitMatrix::kMaxDenseNodes);
  engine::QueryService service({.num_threads = 1});

  const std::string text = "descendant::a/child::b";
  engine::QueryResult full =
      service.Evaluate(t, text, ResultShape::kFullRelation);
  ASSERT_TRUE(full.status.ok())
      << full.status << " " << full.plan.DebugString();
  ASSERT_NE(full.relation_sparse, nullptr) << full.plan.DebugString();
  EXPECT_EQ(full.plan.repr, MatrixRepr::kSparse);
  EXPECT_EQ(full.relation.size(), 0u);
  EXPECT_EQ(full.from_root, full.relation_sparse->Row(t.root()));

  auto compiled = engine::CompileQuery(text);
  ASSERT_TRUE(compiled.ok());
  ppl::MatrixEngine sweep(t);
  for (int sample = 0; sample < 16; ++sample) {
    const NodeId u = static_cast<NodeId>(rng.Below(t.size()));
    Result<BitVector> row = sweep.EvaluateFromNode(*(*compiled)->pplbin, u);
    ASSERT_TRUE(row.ok()) << row.status();
    EXPECT_EQ(full.relation_sparse->Row(u), *row) << "row " << u;
  }

  // A set difference (general complement) above the ceiling: subsampled
  // rows must equal the positive oracle rows combined by hand.
  engine::QueryResult exc = service.Evaluate(
      t, "descendant::a except child::a", ResultShape::kFullRelation);
  ASSERT_TRUE(exc.status.ok()) << exc.status << " " << exc.plan.DebugString();
  ASSERT_NE(exc.relation_sparse, nullptr);
  auto desc = engine::CompileQuery("descendant::a");
  auto child = engine::CompileQuery("child::a");
  ASSERT_TRUE(desc.ok() && child.ok());
  for (int sample = 0; sample < 8; ++sample) {
    const NodeId u = static_cast<NodeId>(rng.Below(t.size()));
    Result<BitVector> d = sweep.EvaluateFromNode(*(*desc)->pplbin, u);
    Result<BitVector> c = sweep.EvaluateFromNode(*(*child)->pplbin, u);
    ASSERT_TRUE(d.ok() && c.ok());
    BitVector expected(t.size());
    for (std::size_t v = 0; v < t.size(); ++v) {
      if (d->Get(v) && !c->Get(v)) expected.Set(v);
    }
    EXPECT_EQ(exc.relation_sparse->Row(u), expected) << "row " << u;
  }
}

// The run-shape estimate is averages-only and predicts n runs per row
// for a composed step on a deep path (it cannot see that the gathered
// runs coalesce into one) -- the planner must still cross over above
// the ceiling and let the engine's run budget be the bound, not refuse
// on the estimate. Regression: this exact shape was refused once.
TEST(SparseFullRelationTest, DeepPathComposeCrossesOverDespiteEstimate) {
  Tree t = PathTree(BitMatrix::kMaxDenseNodes + 10);
  auto compiled = engine::CompileQuery("descendant::a/child::a");
  ASSERT_TRUE(compiled.ok());
  ExecutionPlan plan =
      engine::PlanQuery(**compiled, t, ResultShape::kFullRelation);
  EXPECT_EQ(plan.engine, EnginePlan::kMatrixGeneral) << plan.DebugString();
  EXPECT_EQ(plan.repr, MatrixRepr::kSparse) << plan.DebugString();
  EXPECT_FALSE(engine::PlanRequiresDenseRelation(**compiled, plan));

  // End to end: the relation is the second-superdiagonal triangle
  // {(u, v) : v >= u + 2} -- one run per row, despite the estimate.
  const std::size_t n = t.size();
  engine::QueryService service({.num_threads = 1});
  engine::QueryResult full =
      service.Evaluate(t, "descendant::a/child::a", ResultShape::kFullRelation);
  ASSERT_TRUE(full.status.ok())
      << full.status << " " << full.plan.DebugString();
  ASSERT_NE(full.relation_sparse, nullptr);
  EXPECT_EQ(full.relation_sparse->Count(), (n - 1) * (n - 2) / 2);
  EXPECT_EQ(full.relation_sparse->num_runs(), n - 2);
  EXPECT_TRUE(full.relation_sparse->Get(0, n - 1));
  EXPECT_FALSE(full.relation_sparse->Get(0, 1));
}

// N-ary queries: shapes derive from the tuple set.
TEST(PlannerNaryShapeTest, ShapesDeriveFromTupleSet) {
  Tree t = *Tree::ParseTerm("a(b(c),b,c(b(a)))");
  engine::QueryService service({.num_threads = 2});
  const std::string text = "descendant::b/$x";
  engine::QueryResult full =
      service.Evaluate(t, text, ResultShape::kFullRelation);
  ASSERT_TRUE(full.status.ok()) << full.status;
  ASSERT_EQ(full.plan.engine, EnginePlan::kNaryAnswer);
  ASSERT_FALSE(full.tuples.empty());

  engine::QueryResult from_root =
      service.Evaluate(t, text, ResultShape::kFromRootSet);
  EXPECT_EQ(from_root.tuples, full.tuples);

  engine::QueryResult boolean =
      service.Evaluate(t, text, ResultShape::kBoolean);
  EXPECT_TRUE(boolean.boolean);
  EXPECT_TRUE(boolean.tuples.empty());

  engine::QueryResult count = service.Evaluate(t, text, ResultShape::kCount);
  EXPECT_EQ(count.count, full.tuples.size());
}

// N-ary plans name their backing by query class alone: every shape of an
// ACQ template enumerates (Prop. 8) and every shape of a union template
// materializes the Fig. 8 answer set, on tiny and large trees and
// whatever the stream limit; batch jobs run the backing their plan names.
TEST(PlannerNaryShapeTest, BackingFollowsTheQueryClassForEveryShape) {
  using engine::StreamBacking;
  const std::vector<std::pair<std::string, StreamBacking>> templates = {
      {"descendant::a/$x", StreamBacking::kEnumerator},
      {"$x/child::*/$y", StreamBacking::kEnumerator},
      {"descendant::*[child::a]/$x/child::*", StreamBacking::kEnumerator},
      {"(descendant::a union descendant::b)/$y",
       StreamBacking::kMaterialized},
      {"descendant::a/$x/(child::b union child::a)/$y",
       StreamBacking::kMaterialized},
  };
  const ResultShape shapes[] = {
      ResultShape::kFullRelation, ResultShape::kFromRootSet,
      ResultShape::kBoolean, ResultShape::kCount, ResultShape::kTupleStream};
  for (std::size_t num_nodes : {6u, 64u, 400u}) {
    Rng rng(num_nodes);
    RandomTreeOptions opts;
    opts.num_nodes = num_nodes;
    Tree t = RandomTree(rng, opts);
    engine::QueryService service({.num_threads = 1});
    for (const auto& [text, backing] : templates) {
      auto q = engine::CompileQuery(text);
      ASSERT_TRUE(q.ok()) << text << ": " << q.status();
      EXPECT_EQ((*q)->acq != nullptr, backing == StreamBacking::kEnumerator)
          << text;
      for (ResultShape shape : shapes) {
        for (std::size_t limit : {0u, 1u, 1u << 20}) {
          const ExecutionPlan plan =
              engine::PlanQuery(**q, t, shape, {}, limit);
          EXPECT_EQ(plan.engine, EnginePlan::kNaryAnswer) << text;
          EXPECT_EQ(plan.backing, backing)
              << text << " shape " << engine::ResultShapeName(shape)
              << " limit " << limit << " on " << num_nodes << " nodes";
        }
        // Executing is the Fig. 8 answerer's job for unions: keep it to
        // the smaller trees.
        if (shape == ResultShape::kTupleStream || num_nodes > 64) continue;
        engine::QueryResult r = service.Evaluate(t, text, shape);
        ASSERT_TRUE(r.status.ok()) << text << ": " << r.status;
        EXPECT_EQ(r.plan.backing, backing) << text;
      }
    }
  }
}

// The stream limit and the shape price an ACQ plan (preprocessing plus
// the expected tuple count times the delay) without moving its backing:
// a boolean job counts one tuple, a drain counts them all.
TEST(PlannerNaryShapeTest, ExpectedTupleCountPricesEnumeratorPlans) {
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_nodes = 300;
  Tree t = RandomTree(rng, opts);
  auto q = engine::CompileQuery("$x/descendant::*/$y");
  ASSERT_TRUE(q.ok()) << q.status();
  auto cost = [&](ResultShape shape, std::size_t limit) {
    return engine::PlanQuery(**q, t, shape, {}, limit).cost;
  };
  const double drain = cost(ResultShape::kFullRelation, 0);
  EXPECT_EQ(cost(ResultShape::kCount, 0), drain);
  EXPECT_EQ(cost(ResultShape::kTupleStream, 0), drain);
  EXPECT_EQ(cost(ResultShape::kTupleStream, 1), cost(ResultShape::kBoolean, 0));
  EXPECT_LT(cost(ResultShape::kBoolean, 0), cost(ResultShape::kTupleStream, 100));
  EXPECT_LT(cost(ResultShape::kTupleStream, 100), drain);
  // A limit beyond the whole answer-set estimate prices as a drain.
  EXPECT_EQ(cost(ResultShape::kTupleStream, std::size_t{1} << 40), drain);
}

// --------------------------------------------------- cost-model behavior

/// Costs, sorted ascending, of every admissible forced (engine, repr)
/// plan for `q` on `t`: GKP when the query admits it, matrix-dense, and
/// matrix-sparse unless its estimate exceeds the byte budget (a forced
/// sparse plan then reports +inf).
std::vector<double> ForcedRouteCosts(const engine::CompiledQuery& q,
                                     const Tree& t, ResultShape shape) {
  std::vector<double> costs;
  if (q.Admits(EnginePlan::kGkpPositive)) {
    costs.push_back(
        engine::PlanQuery(q, t, shape, EnginePlan::kGkpPositive).cost);
  }
  for (MatrixRepr repr : {MatrixRepr::kDense, MatrixRepr::kSparse}) {
    const double cost = engine::PlanQuery(q, t, shape,
                                          EnginePlan::kMatrixGeneral, 0, repr)
                            .cost;
    if (std::isfinite(cost)) costs.push_back(cost);
  }
  std::sort(costs.begin(), costs.end());
  return costs;
}

TEST(PlannerCostModelTest, ChosenPlanIsTheCheapestAdmissibleRoute) {
  // Over random trees and positive and general queries, at every shape,
  // the planner's own choice costs exactly the minimum over every
  // admissible forced plan. On full relations the three routes are
  // distinct, so the runner-up is the reported alternative.
  Rng rng(99);
  for (std::size_t nodes : {512u, 1500u, 4096u, 16384u}) {
    RandomTreeOptions opts;
    opts.num_nodes = nodes;
    opts.alphabet_size = 3 + rng.Below(4);
    opts.max_children = rng.Chance(1, 2) ? 0 : 2 + rng.Below(8);
    Tree t = RandomTree(rng, opts);
    for (int trial = 0; trial < 16; ++trial) {
      ppl::PplBinPtr p =
          RandomPplBin(rng, 3, /*allow_complement=*/trial % 2 == 1);
      const std::string text = ppl::ToXPath(*p)->ToString();
      auto compiled = engine::CompileQuery(text);
      ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();
      const engine::CompiledQuery& q = **compiled;
      for (ResultShape shape : kAllShapes) {
        const ExecutionPlan chosen = engine::PlanQuery(q, t, shape);
        const std::vector<double> costs = ForcedRouteCosts(q, t, shape);
        const std::string ctx = chosen.DebugString() + " on " +
                                std::to_string(nodes) + " nodes: " + text;
        ASSERT_FALSE(costs.empty()) << ctx;
        EXPECT_EQ(chosen.cost, costs.front()) << ctx;
        if (shape == ResultShape::kFullRelation) {
          EXPECT_EQ(chosen.alternative_cost, costs.size() > 1 ? costs[1] : 0.0)
              << ctx;
        }
      }
    }
  }
}

TEST(PlannerCostModelTest, LargeFullRelationTakesTheSparseRoute) {
  // Regression: a positive full relation on a 16384-node tree went to GKP
  // because GKP was only ever compared with the dense matrix cost, while
  // the sparse route was several times faster. It must plan matrix-sparse,
  // report GKP as the runner-up, and stay byte-identical to forced GKP.
  Rng rng(13);
  RandomTreeOptions opts;
  opts.num_nodes = 16384;
  opts.alphabet_size = 6;
  opts.max_children = 8;
  Tree t = RandomTree(rng, opts);
  const std::string text = "descendant::a/child::*/following_sibling::b";
  auto compiled = engine::CompileQuery(text);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE((*compiled)->positive);

  const ExecutionPlan plan =
      engine::PlanQuery(**compiled, t, ResultShape::kFullRelation);
  EXPECT_EQ(plan.engine, EnginePlan::kMatrixGeneral) << plan.DebugString();
  EXPECT_EQ(plan.repr, MatrixRepr::kSparse) << plan.DebugString();
  const ExecutionPlan gkp = engine::PlanQuery(
      **compiled, t, ResultShape::kFullRelation, EnginePlan::kGkpPositive);
  EXPECT_EQ(plan.alternative_cost, gkp.cost) << plan.DebugString();

  engine::QueryJob job;
  job.query = text;
  job.shape = ResultShape::kFullRelation;
  engine::QueryJob forced = job;
  forced.overrides.engine = EnginePlan::kGkpPositive;
  std::vector<engine::QueryResult> results =
      EvaluateOnFreshStore(t, {job, forced}, /*threads=*/2);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  ASSERT_TRUE(results[1].status.ok()) << results[1].status;
  EXPECT_EQ(results[0].plan.repr, MatrixRepr::kSparse);
  EXPECT_EQ(results[1].plan.engine, EnginePlan::kGkpPositive);
  EXPECT_GT(results[0].relation.Count(), 0u);
  EXPECT_EQ(results[0].relation, results[1].relation);
  EXPECT_EQ(results[0].from_root, results[1].from_root);
}

/// True when the from-root sweep of `p` builds a sub-matrix: it reaches a
/// complement over a non-step operand from more than one source node.
/// Follows MatrixEngine::Image: the root is one source; unions and
/// single-source complements keep it (image(not Q, {u}) is the complement
/// of image(Q, {u})); a composition's right operand and a filter's body
/// start from many.
bool SweepBuildsSubMatrix(const ppl::PplBinExpr& p, bool single_source) {
  switch (p.kind) {
    case ppl::PplBinKind::kStep:
      return false;
    case ppl::PplBinKind::kCompose:
      return SweepBuildsSubMatrix(*p.left, single_source) ||
             SweepBuildsSubMatrix(*p.right, false);
    case ppl::PplBinKind::kUnion:
      return SweepBuildsSubMatrix(*p.left, single_source) ||
             SweepBuildsSubMatrix(*p.right, single_source);
    case ppl::PplBinKind::kFilter:
      return SweepBuildsSubMatrix(*p.left, false);
    case ppl::PplBinKind::kComplement:
      return single_source ? SweepBuildsSubMatrix(*p.left, true)
                           : p.left->kind != ppl::PplBinKind::kStep;
  }
  return false;
}

TEST(PlannerCostModelTest, MonadicPlansTakeTheMatrixImageSweep) {
  // GKP is a full-relation route only: every monadic binary plan, positive
  // or not, is the matrix engine's row-restricted sweep at any size, with
  // no rejected route to report. The one exception to alternative 0 is a
  // complement over a non-step operand that the sweep reaches from more
  // than one source: its sub-matrix has a dense and a sparse
  // representation to choose between. A top-level `except` is reached
  // from the root alone and is no exception.
  Rng rng(21);
  for (std::size_t nodes : {16u, 1500u, 40000u}) {
    RandomTreeOptions opts;
    opts.num_nodes = nodes;
    Tree t = RandomTree(rng, opts);
    std::vector<std::string> texts = {"descendant::*/child::*",
                                      "descendant::a[child::b]",
                                      "descendant::* except child::b"};
    for (int trial = 0; trial < 12; ++trial) {
      texts.push_back(
          ppl::ToXPath(*RandomPplBin(rng, 3, trial % 2 == 1))->ToString());
    }
    for (const std::string& text : texts) {
      auto compiled = engine::CompileQuery(text);
      ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();
      const bool sub_matrix =
          SweepBuildsSubMatrix(*(*compiled)->pplbin, /*single_source=*/true);
      if (text == texts[2]) EXPECT_FALSE(sub_matrix) << text;
      for (ResultShape shape : {ResultShape::kFromRootSet,
                                ResultShape::kBoolean, ResultShape::kCount,
                                ResultShape::kTupleStream}) {
        const ExecutionPlan plan = engine::PlanQuery(**compiled, t, shape);
        const std::string ctx = plan.DebugString() + " on " +
                                std::to_string(nodes) + " nodes: " + text;
        EXPECT_EQ(plan.engine, EnginePlan::kMatrixGeneral) << ctx;
        EXPECT_TRUE(plan.row_restricted) << ctx;
        if (!sub_matrix) EXPECT_EQ(plan.alternative_cost, 0.0) << ctx;
      }
    }
  }
}

TEST(PlannerCostModelTest, NonMaterializingMonadicPlansBuildNoMatrix) {
  // The planner and the engine agree on where the from-root sweep builds
  // a matrix. A forced-dense monadic plan requires a dense relation
  // exactly when the planner marks it materializing; a plan it marks
  // non-materializing must run without a single RelationCache consult
  // (every interior node of a sub-matrix evaluation consults an attached
  // cache) and without a Boolean product.
  Rng rng(0x51a91e);
  std::size_t swept_complements = 0;
  for (std::size_t nodes : {64u, 700u}) {
    RandomTreeOptions opts;
    opts.num_nodes = nodes;
    Tree t = RandomTree(rng, opts);
    engine::DocumentStore store;
    const engine::DocumentId id = store.Insert(Tree(t));
    engine::QueryService service({.num_threads = 1, .document_store = &store});
    for (int trial = 0; trial < 60; ++trial) {
      const std::string text =
          ppl::ToXPath(*RandomPplBin(rng, 4, /*allow_complement=*/true))
              ->ToString();
      auto compiled = engine::CompileQuery(text);
      ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();
      const ppl::PplBinExpr& p = *(*compiled)->pplbin;
      const ExecutionPlan dense =
          engine::PlanQuery(**compiled, t, ResultShape::kFromRootSet,
                            std::nullopt, 0, MatrixRepr::kDense);
      const bool materializes =
          engine::PlanRequiresDenseRelation(**compiled, dense);
      EXPECT_EQ(materializes, SweepBuildsSubMatrix(p, true)) << text;
      if (materializes) continue;
      // A non-step complement the sweep reaches from the root alone.
      if (SweepBuildsSubMatrix(p, /*single_source=*/false)) {
        ++swept_complements;
      }
      const engine::ServiceStats before = service.stats();
      engine::QueryJob job{.document = id,
                           .query = text,
                           .shape = ResultShape::kFromRootSet};
      const engine::QueryResult r = service.EvaluateBatch({job})[0];
      ASSERT_TRUE(r.status.ok()) << text << ": " << r.status;
      EXPECT_EQ(r.plan.alternative_cost, 0.0) << r.plan.DebugString();
      const engine::ServiceStats after = service.stats();
      EXPECT_EQ(after.subrel_hits + after.subrel_misses,
                before.subrel_hits + before.subrel_misses)
          << text;
      EXPECT_EQ(after.dense_products + after.sparse_products,
                before.dense_products + before.sparse_products)
          << text;
    }
  }
  EXPECT_GT(swept_complements, 0u);
}

TEST(PlannerCostModelTest, FromRootExceptIsAPureSweepAboveTheCeiling) {
  // The serving workload's set difference on a tree above the dense
  // ceiling: the complement is reached from the root alone, so the plan
  // has no representation to choose, no chain to reassociate and no
  // dense relation to refuse -- even with kDense forced.
  Rng rng(40000);
  RandomTreeOptions opts;
  opts.num_nodes = 40000;
  Tree t = RandomTree(rng, opts);
  ASSERT_GT(t.size(), BitMatrix::kMaxDenseNodes);
  const std::string text = "descendant::* except descendant::a[child::b]";
  auto compiled = engine::CompileQuery(text);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  for (std::optional<MatrixRepr> repr :
       {std::optional<MatrixRepr>(), std::optional(MatrixRepr::kDense)}) {
    const ExecutionPlan plan = engine::PlanQuery(
        **compiled, t, ResultShape::kFromRootSet, std::nullopt, 0, repr);
    EXPECT_EQ(plan.alternative_cost, 0.0) << plan.DebugString();
    EXPECT_EQ(plan.reassociated, nullptr) << plan.DebugString();
    EXPECT_EQ(plan.chains_reassociated, 0u) << plan.DebugString();
    EXPECT_FALSE(engine::PlanRequiresDenseRelation(**compiled, plan))
        << plan.DebugString();
  }
  std::vector<engine::QueryJob> jobs(2);
  for (engine::QueryJob& job : jobs) {
    job.query = text;
    job.shape = ResultShape::kFromRootSet;
  }
  jobs[0].overrides.repr = MatrixRepr::kDense;
  jobs[1].overrides.repr = MatrixRepr::kSparse;
  const std::vector<engine::QueryResult> results =
      EvaluateOnFreshStore(t, jobs, 1);
  ASSERT_TRUE(results[0].status.ok())
      << results[0].status << " " << results[0].plan.DebugString();
  ASSERT_TRUE(results[1].status.ok())
      << results[1].status << " " << results[1].plan.DebugString();
  EXPECT_EQ(results[0].from_root, results[1].from_root);
  // By hand: every non-root node but the a-nodes with a b-child.
  BitVector expected(t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.IsRoot(v)) continue;
    bool a_with_b_child = false;
    if (t.label_name(v) == "a") {
      for (NodeId c : t.Children(v)) a_with_b_child |= t.label_name(c) == "b";
    }
    if (!a_with_b_child) expected.Set(v);
  }
  EXPECT_EQ(results[0].from_root, expected);
}

TEST(PlannerCostModelTest, SelectiveLabelsShrinkTheGkpDomainEstimate) {
  // One rare label vs a wildcard: the domain bound -- hence the estimated
  // full-relation cost -- must shrink with the posting list.
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_nodes = 400;
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);

  auto rare = engine::CompileQuery("child::zzz/descendant::*");
  auto wild = engine::CompileQuery("child::*/descendant::*");
  ASSERT_TRUE(rare.ok());
  ASSERT_TRUE(wild.ok());
  ExecutionPlan rare_plan =
      engine::PlanQuery(**rare, t, ResultShape::kFullRelation);
  ExecutionPlan wild_plan =
      engine::PlanQuery(**wild, t, ResultShape::kFullRelation);
  ASSERT_EQ(t.LabelFrequency("zzz"), 0u);
  EXPECT_LT(rare_plan.cost, wild_plan.cost)
      << rare_plan.DebugString() << " vs " << wild_plan.DebugString();
}

TEST(PlannerCostModelTest, TreeStatsArePrecomputed) {
  Tree t = *Tree::ParseTerm("a(b(c,c,c),b,a(b))");
  const TreeStats& s = t.Stats();
  EXPECT_EQ(s.node_count, 8u);
  EXPECT_EQ(s.max_depth, 2u);
  EXPECT_EQ(s.max_fanout, 3u);
  EXPECT_EQ(s.alphabet_size, 3u);
  EXPECT_EQ(s.max_label_posting, 3u);  // three b's (and three c's)
  EXPECT_EQ(s.min_label_posting, 2u);  // two a's
  EXPECT_EQ(t.LabelFrequency("b"), 3u);
  EXPECT_EQ(t.LabelFrequency("nope"), 0u);
}

// ----------------------------------------------------------- plan memo

TEST(PlanMemoTest, DocumentStoreMemoizesPlansPerShape) {
  engine::DocumentStore store;
  Rng rng(5);
  RandomTreeOptions opts;
  opts.num_nodes = 64;
  engine::DocumentId id = store.Insert(RandomTree(rng, opts));
  engine::QueryService service({.num_threads = 2, .document_store = &store});

  std::shared_ptr<engine::PlanMemo> memo = store.PlanMemoFor(id);
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->size(), 0u);

  const std::string text = "descendant::a[child::b]";
  ASSERT_TRUE(service.Evaluate(id, text).status.ok());
  EXPECT_EQ(memo->size(), 1u);
  // Same (text, shape) again: a memo hit, no new entry.
  ASSERT_TRUE(service.Evaluate(id, text).status.ok());
  EXPECT_EQ(memo->size(), 1u);
  EXPECT_GE(memo->hits(), 1u);
  // A different shape is a distinct plan.
  ASSERT_TRUE(
      service.Evaluate(id, text, ResultShape::kFromRootSet).status.ok());
  EXPECT_EQ(memo->size(), 2u);
  // Unknown documents have no memo.
  EXPECT_EQ(store.PlanMemoFor(engine::DocumentId{999}), nullptr);
}

TEST(PlanMemoTest, BoundedInsertion) {
  engine::PlanMemo memo(/*max_entries=*/2);
  int computed = 0;
  // Each computed plan carries its computation number as its cost, so a
  // memo hit is visible as an old number coming back.
  auto plan_of = [&](std::string_view text, ResultShape shape) {
    return memo.GetOrCompute(text, shape, [&] {
      ExecutionPlan plan;
      plan.cost = ++computed;
      return plan;
    });
  };
  EXPECT_EQ(plan_of("a", ResultShape::kBoolean).cost, 1.0);
  EXPECT_EQ(plan_of("b", ResultShape::kBoolean).cost, 2.0);
  // Over the bound: planned for the caller but not inserted.
  EXPECT_EQ(plan_of("c", ResultShape::kBoolean).cost, 3.0);
  EXPECT_EQ(memo.size(), 2u);
  // "a" is memoized; "c" was dropped and plans again.
  EXPECT_EQ(plan_of("a", ResultShape::kBoolean).cost, 1.0);
  EXPECT_EQ(plan_of("c", ResultShape::kBoolean).cost, 4.0);
  EXPECT_EQ(memo.size(), 2u);
  // Shape is part of the key.
  EXPECT_EQ(plan_of("a", ResultShape::kCount).cost, 5.0);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 5u);
}

// ------------------------------------------------- regression: null store

TEST(FromRootDispatchTest, EvaluateFromRootObservesCancellation) {
  // The monadic dispatch behind every job and node-set stream hands the
  // caller's token to the sweep: a top-level `except` (swept from the
  // root alone) and one under a composition (which builds a sub-matrix).
  Rng rng(5);
  RandomTreeOptions opts;
  opts.num_nodes = 300;
  Tree t = RandomTree(rng, opts);
  engine::internal::JobTarget target{.tree = &t,
                                     .cache = std::make_shared<AxisCache>(t)};
  std::atomic<bool> cancelled{true};
  std::atomic<bool> idle{false};
  const auto now = std::chrono::steady_clock::now();
  for (const char* text : {"descendant::* except descendant::a[child::b]",
                           "descendant::*/(child::* except child::a)"}) {
    auto compiled = engine::CompileQuery(text);
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();
    const ExecutionPlan plan =
        engine::PlanQuery(**compiled, t, ResultShape::kFromRootSet);
    auto run = [&](CancelToken token) {
      return engine::internal::EvaluateFromRoot(**compiled, plan, target,
                                                token, /*stats=*/nullptr);
    };
    EXPECT_EQ(run(CancelToken(&cancelled)).status().code(),
              StatusCode::kCancelled)
        << text;
    EXPECT_EQ(run(CancelToken(nullptr, now - std::chrono::seconds(1)))
                  .status()
                  .code(),
              StatusCode::kDeadlineExceeded)
        << text;
    Result<BitVector> plain = run(CancelToken());
    Result<BitVector> watched =
        run(CancelToken(&idle, now + std::chrono::hours(1)));
    ASSERT_TRUE(plain.ok() && watched.ok()) << text;
    EXPECT_EQ(*plain, *watched) << text;
    EXPECT_EQ(*plain, GroundTruth(t, *(*compiled)->pplbin).Row(t.root()))
        << text;
  }
}

TEST(NullStoreRegressionTest, DocumentJobsWithoutStoreAreInvalidArgument) {
  // A service with no DocumentStore must reject DocumentId jobs with a
  // clear InvalidArgument on both the single-query and the batch paths
  // (regression: must not crash or silently fail).
  engine::QueryService service({.num_threads = 1});
  engine::QueryResult single = service.Evaluate(engine::DocumentId{7}, "a");
  EXPECT_EQ(single.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(single.status.message().find("no DocumentStore"),
            std::string::npos)
      << single.status;

  engine::QueryJob job;
  job.document = 7;
  job.query = "child::a";
  std::vector<engine::QueryResult> batch = service.EvaluateBatch({job, job});
  ASSERT_EQ(batch.size(), 2u);
  for (const engine::QueryResult& r : batch) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status.message().find("no DocumentStore"), std::string::npos);
  }
}

TEST(NullStoreRegressionTest, OverrideMustBeAdmissible) {
  Tree t = *Tree::ParseTerm("a(b)");
  engine::QueryJob job;
  job.query = "child::* except child::a";  // general: GKP inadmissible
  job.overrides.engine = EnginePlan::kGkpPositive;
  std::vector<engine::QueryResult> results =
      EvaluateOnFreshStore(t, {job}, /*threads=*/1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------- name-helper hygiene

TEST(NameHelperTest, EveryEnumeratorHasADistinctName) {
  const EnginePlan engines[] = {EnginePlan::kGkpPositive,
                                EnginePlan::kMatrixGeneral,
                                EnginePlan::kNaryAnswer};
  std::set<std::string_view> engine_names;
  for (EnginePlan e : engines) {
    std::string_view name = engine::EnginePlanName(e);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    engine_names.insert(name);
  }
  EXPECT_EQ(engine_names.size(), std::size(engines));

  std::set<std::string_view> shape_names;
  for (ResultShape s : kAllShapes) {
    std::string_view name = engine::ResultShapeName(s);
    EXPECT_FALSE(name.empty());
    shape_names.insert(name);
  }
  EXPECT_EQ(shape_names.size(), std::size(kAllShapes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace xpv
