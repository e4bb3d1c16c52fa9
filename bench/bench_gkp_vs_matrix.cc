// E10 -- the Section 4 engine asymmetry: for the POSITIVE fragment
// (Core XPath 1.0 without negation), the Gottlob-Koch-Pichler successor-
// set trick answers monadic queries in O(|P||t|) and full binary queries
// in O(|P||t|^2), while the matrix product is O(|P||t|^3/64) but also
// handles `except`. Monadic queries have one evaluator, the matrix
// engine's image sweep (BM_MonadicMatrix); the binary pair locates where
// the complement generality costs. PositiveQuery's filters make
// BM_BinaryGkp the probe for the sweep's filter-domain cache, which the
// per-source loop hits once per start node.
#include <benchmark/benchmark.h>
#include <cstdint>

#include "common/rng.h"
#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "tree/generators.h"
#include "xpath/parser.h"

namespace xpv {
namespace {

ppl::PplBinPtr PositiveQuery() {
  auto path = xpath::ParsePath(
      "descendant::a[child::b]/following_sibling::*[descendant::c] union "
      "child::b/child::*");
  auto bin = ppl::FromXPath(**path);
  return std::move(bin).value();
}

Tree MakeTree(std::size_t n) {
  Rng rng(23);
  RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.alphabet_size = 3;
  return RandomTree(rng, opts);
}

void BM_MonadicMatrix(benchmark::State& state) {
  Tree t = MakeTree(static_cast<std::size_t>(state.range(0)));
  ppl::PplBinPtr q = PositiveQuery();
  for (auto _ : state) {
    ppl::MatrixEngine engine(t);
    benchmark::DoNotOptimize(engine.EvaluateFromRoot(*q));
  }
  state.SetComplexityN(static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_MonadicMatrix)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Complexity();

void BM_BinaryGkp(benchmark::State& state) {
  Tree t = MakeTree(static_cast<std::size_t>(state.range(0)));
  ppl::PplBinPtr q = PositiveQuery();
  for (auto _ : state) {
    ppl::GkpEngine engine(t);
    benchmark::DoNotOptimize(engine.Relation(*q));
  }
  state.SetComplexityN(static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_BinaryGkp)
    ->RangeMultiplier(2)
    ->Range(64, 2048)
    ->Complexity();

void BM_BinaryMatrix(benchmark::State& state) {
  Tree t = MakeTree(static_cast<std::size_t>(state.range(0)));
  ppl::PplBinPtr q = PositiveQuery();
  for (auto _ : state) {
    ppl::MatrixEngine engine(t);
    benchmark::DoNotOptimize(engine.Evaluate(*q));
  }
  state.SetComplexityN(static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_BinaryMatrix)
    ->RangeMultiplier(2)
    ->Range(64, 2048)
    ->Complexity();

}  // namespace
}  // namespace xpv
