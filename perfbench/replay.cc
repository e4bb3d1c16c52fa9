#include "replay.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/crc32.h"
#include "common/sparse_matrix.h"
#include "engine/planner.h"
#include "hcl/answer.h"
#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "ppl/relation_cache.h"
#include "tree/axis_cache.h"
#include "xpath/eval.h"
#include "xpath/parser.h"

namespace perfbench {

using xpv::AxisCache;
using xpv::BitMatrix;
using xpv::BitVector;
using xpv::Result;
using xpv::Status;
using xpv::Tree;
using xpv::engine::CompiledQuery;
using xpv::engine::DocumentPtr;
using xpv::engine::DocumentStore;
using xpv::engine::EnginePlan;
using xpv::engine::ExecutionPlan;
using xpv::engine::QueryJob;
using xpv::engine::QueryResult;
using xpv::engine::ResultShape;

namespace {

void FinishMonadic(QueryResult& result, ResultShape shape, BitVector image) {
  switch (shape) {
    case ResultShape::kBoolean:
      result.boolean = image.Any();
      return;
    case ResultShape::kCount:
      result.count = image.Count();
      return;
    default:
      result.from_root = std::move(image);
      return;
  }
}

/// The execute and payload stages of one planned job, mirroring the
/// service: same engines, same representation, same payload contract.
void ExecutePlan(const CompiledQuery& q, const Tree& t,
                 const ExecutionPlan& plan,
                 const std::shared_ptr<AxisCache>& axes,
                 const std::shared_ptr<xpv::ppl::RelationCache>& relations,
                 Tracer& tracer, QueryResult& result) {
  switch (plan.engine) {
    case EnginePlan::kGkpPositive: {
      ScopedSpan span(tracer, "ppl.gkp");
      xpv::ppl::GkpEngine engine(axes);
      engine.set_relation_cache(relations);
      if (plan.row_restricted) {
        Result<BitVector> image = engine.FromRoot(*q.pplbin);
        if (!image.ok()) {
          result.status = image.status();
          return;
        }
        FinishMonadic(result, plan.shape, std::move(image).value());
        return;
      }
      Result<BitMatrix> rel = engine.Relation(*q.pplbin);
      if (!rel.ok()) {
        result.status = rel.status();
        return;
      }
      result.relation = std::move(rel).value();
      break;
    }
    case EnginePlan::kMatrixGeneral: {
      ScopedSpan span(tracer, "ppl.matrix");
      const xpv::ppl::PplBinExpr* expr = plan.reassociated != nullptr
                                             ? plan.reassociated.get()
                                             : q.pplbin.get();
      xpv::ppl::MatrixEngine engine(axes, xpv::ppl::MultiplyMode::kBitPacked,
                                    plan.repr);
      engine.set_relation_cache(relations);
      if (plan.row_restricted) {
        Result<BitVector> image = engine.EvaluateFromRoot(*expr);
        if (!image.ok()) {
          result.status = image.status();
          return;
        }
        FinishMonadic(result, plan.shape, std::move(image).value());
        return;
      }
      Result<xpv::ppl::AnyMatrix> rel = engine.EvaluateAny(*expr);
      if (!rel.ok()) {
        result.status = rel.status();
        return;
      }
      xpv::ppl::AnyMatrix m = std::move(rel).value();
      if (m.is_dense()) {
        result.relation = std::move(m).TakeDense();
        break;
      }
      if (t.size() <= BitMatrix::kMaxDenseNodes) {
        Result<BitMatrix> dense = m.ToDense();
        if (!dense.ok()) {
          result.status = dense.status();
          return;
        }
        result.relation = std::move(dense).value();
        break;
      }
      BitVector root_only(t.size());
      root_only.Set(t.root());
      result.from_root = m.ImageOf(root_only);
      result.relation_sparse =
          std::make_shared<const xpv::SparseBoolMatrix>(
              std::move(m).TakeSparse());
      return;
    }
    case EnginePlan::kNaryAnswer: {
      ScopedSpan span(tracer, "hcl.answer");
      xpv::hcl::QueryAnswerer answerer(t, *q.hcl, q.tuple_vars, {}, axes);
      Status prepared = answerer.Prepare();
      if (!prepared.ok()) {
        result.status = prepared;
        return;
      }
      Result<xpv::xpath::TupleSet> answered = answerer.Answer();
      if (!answered.ok()) {
        result.status = answered.status();
        return;
      }
      xpv::xpath::TupleSet tuples = std::move(answered).value();
      if (plan.shape == ResultShape::kBoolean) {
        result.boolean = !tuples.empty();
      } else if (plan.shape == ResultShape::kCount) {
        result.count = tuples.size();
      } else {
        result.tuples = std::move(tuples);
      }
      return;
    }
  }
  ScopedSpan span(tracer, "engine.payload");
  BitVector root_only(t.size());
  root_only.Set(t.root());
  result.from_root = result.relation.ImageOf(root_only);
}

std::vector<double> Ranks(const std::vector<double>& v) {
  std::vector<std::size_t> idx(v.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> rank(v.size());
  for (std::size_t i = 0; i < idx.size();) {
    std::size_t j = i;
    while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]]) ++j;
    const double r = (static_cast<double>(i) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k <= j; ++k) rank[idx[k]] = r;
    i = j + 1;
  }
  return rank;
}

double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() < 3) return 0;
  const std::vector<double> rx = Ranks(x);
  const std::vector<double> ry = Ranks(y);
  const double n = static_cast<double>(x.size());
  const double mx = std::accumulate(rx.begin(), rx.end(), 0.0) / n;
  const double my = std::accumulate(ry.begin(), ry.end(), 0.0) / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  return sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy) : 0;
}

}  // namespace

QueryResult ReplayJob(DocumentStore& store, xpv::engine::QueryCache& cache,
                      const QueryJob& job, Tracer& tracer,
                      std::uint64_t request) {
  ScopedSpan root(tracer, "job", request);
  QueryResult result;
  auto compiled = [&] {
    ScopedSpan span(tracer, "engine.compile");
    return cache.GetOrCompile(job.query);
  }();
  if (!compiled.ok()) {
    result.status = compiled.status();
    return result;
  }
  const CompiledQuery& q = **compiled;

  DocumentPtr doc;
  std::shared_ptr<AxisCache> axes;
  std::shared_ptr<xpv::engine::PlanMemo> memo;
  std::shared_ptr<xpv::ppl::RelationCache> relations;
  {
    ScopedSpan span(tracer, "engine.store");
    Result<DocumentPtr> fetched = store.Fetch(job.document);
    if (!fetched.ok()) {
      result.status = fetched.status();
      return result;
    }
    doc = std::move(fetched).value();
    axes = store.AxisCacheFor(job.document);
    memo = store.PlanMemoFor(job.document);
    relations = store.RelationCacheFor(job.document);
  }
  const Tree& t = doc->tree();
  if (axes == nullptr) axes = std::make_shared<AxisCache>(t);

  ExecutionPlan plan;
  {
    ScopedSpan span(tracer, "engine.planner");
    plan = memo != nullptr
               ? memo->GetOrCompute(q.canonical_text, job.shape,
                                    [&] { return PlanQuery(q, t, job.shape); })
               : PlanQuery(q, t, job.shape);
  }
  result.plan = plan;
  if (t.size() > BitMatrix::kMaxDenseNodes &&
      xpv::engine::PlanRequiresDenseRelation(q, plan)) {
    result.status = Status::ResourceExhausted("dense ceiling");
    return result;
  }
  ExecutePlan(q, t, plan, axes, relations, tracer, result);
  return result;
}

std::string OracleCheck(const Tree& tree, const QueryJob& job,
                        const QueryResult& result) {
  if (!result.status.ok()) {
    return "job failed: " + result.status.ToString();
  }
  auto compiled = xpv::engine::CompileQuery(job.query);
  auto parsed = xpv::xpath::ParseAbbreviatedPath(job.query);
  if (!compiled.ok() || !parsed.ok()) return "oracle cannot parse the query";
  const CompiledQuery& q = **compiled;
  xpv::xpath::DirectEvaluator oracle(tree);
  const std::string where = " (query " + job.query + ", shape " +
                            std::string(ResultShapeName(job.shape)) + ", " +
                            std::to_string(tree.size()) + " nodes)";

  if (q.pplbin == nullptr) {
    const xpv::xpath::TupleSet expected =
        oracle.EvalNaryNaive(**parsed, q.tuple_vars);
    switch (job.shape) {
      case ResultShape::kBoolean:
        if (result.boolean != !expected.empty()) return "boolean" + where;
        return {};
      case ResultShape::kCount:
        if (result.count != expected.size()) return "count" + where;
        return {};
      default:
        if (result.tuples != expected) return "tuple set" + where;
        return {};
    }
  }
  Result<BitMatrix> rel = oracle.TryEvalPath(**parsed, {});
  if (!rel.ok()) return "oracle failed: " + rel.status().ToString();
  const BitVector from_root = rel->Row(tree.root());
  switch (job.shape) {
    case ResultShape::kBoolean:
      if (result.boolean != from_root.Any()) return "boolean" + where;
      return {};
    case ResultShape::kCount:
      if (result.count != from_root.Count()) return "count" + where;
      return {};
    case ResultShape::kFromRootSet:
      if (!(result.from_root == from_root)) return "from-root set" + where;
      return {};
    default:
      if (!(result.from_root == from_root)) return "from-root set" + where;
      if (result.relation.size() != tree.size()) return "relation size" + where;
      for (std::size_t row = 0; row < tree.size(); ++row) {
        if (!(result.relation.Row(row) == rel->Row(row))) {
          return "relation row " + std::to_string(row) + where;
        }
      }
      return {};
  }
}

RegretReport ProbeRegret(DocumentStore& store,
                         const std::vector<QueryJob>& jobs) {
  RegretReport report;
  Tracer off(false);
  std::vector<double> costs;
  std::vector<double> times;
  double log_ratio_sum = 0;

  for (const QueryJob& job : jobs) {
    auto compiled = xpv::engine::CompileQuery(job.query);
    if (!compiled.ok() || (*compiled)->pplbin == nullptr) continue;
    const CompiledQuery& q = **compiled;
    Result<DocumentPtr> fetched = store.Fetch(job.document);
    if (!fetched.ok()) continue;
    const DocumentPtr doc = std::move(fetched).value();
    const Tree& t = doc->tree();
    // The store's axis cache with every axis built, so the probe times
    // only plan execution.
    std::shared_ptr<AxisCache> axes = store.AxisCacheFor(job.document);
    if (axes == nullptr) axes = std::make_shared<AxisCache>(t);
    for (xpv::Axis axis : xpv::kAllAxes) axes->Matrix(axis);

    auto time_plan = [&](const ExecutionPlan& plan, std::uint64_t* digest) {
      double best = 0;
      for (int rep = 0; rep < 3; ++rep) {
        QueryResult r;
        r.plan = plan;
        const Clock::time_point start = Clock::now();
        ExecutePlan(q, t, plan, axes, nullptr, off, r);
        const double ms = MillisBetween(start, Clock::now());
        if (rep == 0) *digest = DigestResult(r);
        best = rep == 0 ? ms : std::min(best, ms);
        if (ms > 20) break;  // one run is long enough to time
      }
      return best;
    };

    const ExecutionPlan chosen = PlanQuery(q, t, job.shape);
    std::uint64_t chosen_digest = 0;
    time_plan(chosen, &chosen_digest);  // warm label sets and CPU caches
    const double chosen_ms = time_plan(chosen, &chosen_digest);

    struct Forced {
      EnginePlan engine;
      std::optional<xpv::MatrixRepr> repr;
    };
    std::vector<Forced> forced;
    if (q.Admits(EnginePlan::kGkpPositive)) {
      forced.push_back({EnginePlan::kGkpPositive, std::nullopt});
    }
    if (q.Admits(EnginePlan::kMatrixGeneral)) {
      for (xpv::MatrixRepr repr : {xpv::MatrixRepr::kDense,
                                   xpv::MatrixRepr::kSparse,
                                   xpv::MatrixRepr::kAuto}) {
        forced.push_back({EnginePlan::kMatrixGeneral, repr});
      }
    }
    double best_ms = chosen_ms;
    std::string best_plan = chosen.DebugString();
    for (const Forced& f : forced) {
      const ExecutionPlan plan =
          PlanQuery(q, t, job.shape, f.engine, 0, f.repr);
      const bool dense = xpv::engine::PlanRequiresDenseRelation(q, plan);
      if (dense && t.size() > AxisCache::kAutoDenseMaxNodes) continue;
      std::uint64_t digest = 0;
      const double ms = time_plan(plan, &digest);
      if (digest != chosen_digest && report.error.empty()) {
        report.error = "forced plan " + plan.DebugString() +
                       " disagrees with the planner's choice on " + job.query;
      }
      costs.push_back(plan.cost);
      times.push_back(ms);
      ++report.timed_plans;
      if (ms < best_ms) {
        best_ms = ms;
        best_plan = plan.DebugString();
      }
    }
    ++report.jobs;
    if (chosen_ms > report.max_chosen_ms) {
      report.max_chosen_ms = chosen_ms;
      report.max_chosen_nodes = t.size();
      report.max_chosen_plan = chosen.DebugString();
      report.max_chosen_best_ms = best_ms;
      report.max_chosen_best_plan = best_plan;
    }
    // A rejected plan counts as regret only when it is clearly faster:
    // by a fifth, and by more than timer noise.
    if (best_ms < 0.8 * chosen_ms && chosen_ms - best_ms > 0.02) {
      ++report.regretted;
      log_ratio_sum += std::log(chosen_ms / best_ms);
    }
  }
  if (report.regretted > 0) {
    report.regret_geomean =
        std::exp(log_ratio_sum / static_cast<double>(report.regretted));
  }
  report.cost_rank_corr = Spearman(costs, times);
  return report;
}

KernelReport ReplayKernels(const Tree& dense_tree, const Tree& sparse_tree) {
  KernelReport report;
  {
    AxisCache axes(dense_tree, xpv::AxisBacking::kDense);
    const BitMatrix* a = axes.Matrix(xpv::Axis::kDescendant).AsDense();
    const BitMatrix* b = axes.Matrix(xpv::Axis::kChild).AsDense();
    const double n = static_cast<double>(dense_tree.size());
    const double words = n * n * std::ceil(n / 64.0);
    std::size_t reps = 0;
    std::size_t sink = 0;
    const Clock::time_point start = Clock::now();
    do {
      sink += a->Multiply(*b).size();
      ++reps;
    } while (SecondsSince(start) < 0.05);
    report.dense_mult_ns_per_word =
        SecondsSince(start) * 1e9 / (words * static_cast<double>(reps));
    if (sink == 0) report.dense_mult_ns_per_word = 0;
  }
  {
    AxisCache axes(sparse_tree, xpv::AxisBacking::kInterval);
    auto a = xpv::SparseBoolMatrix::FromBool(
        axes.Matrix(xpv::Axis::kDescendant));
    auto b = xpv::SparseBoolMatrix::FromBool(axes.Matrix(xpv::Axis::kChild));
    if (a.ok() && b.ok()) {
      std::size_t reps = 0;
      std::size_t runs = 0;
      const Clock::time_point start = Clock::now();
      do {
        auto c = a->Multiply(*b);
        if (c.ok()) runs += c->num_runs();
        ++reps;
      } while (SecondsSince(start) < 0.05);
      if (runs > 0) {
        report.spgemm_ns_per_run =
            SecondsSince(start) * 1e9 / static_cast<double>(runs);
      }
    }
  }
  {
    std::string buffer = sparse_tree.ToTerm();
    while (buffer.size() < (8u << 20)) buffer += buffer;
    std::size_t bytes = 0;
    std::uint32_t sink = 0;
    const Clock::time_point start = Clock::now();
    do {
      sink ^= xpv::Crc32(buffer.data(), buffer.size());
      bytes += buffer.size();
    } while (SecondsSince(start) < 0.05);
    report.crc32c_gb_per_s =
        static_cast<double>(bytes) / SecondsSince(start) / 1e9;
    if (sink == 0xffffffffu) report.crc32c_gb_per_s += 0;  // keep the loop
  }
  return report;
}

}  // namespace perfbench
