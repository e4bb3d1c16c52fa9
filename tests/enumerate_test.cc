// Tests for the answer enumerator (the paper's closing open question on
// enumeration algorithms) and for the E11 ablation switches of the Fig. 8
// algorithm (MC filtering / memoization off preserve correctness).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <utility>

#include "common/cancel.h"
#include "common/rng.h"
#include "fo/acq.h"
#include "fo/enumerate.h"
#include "hcl/answer.h"
#include "tree/generators.h"

namespace xpv::fo {
namespace {

Tree MustTree(std::string_view term) {
  Result<Tree> t = Tree::ParseTerm(term);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

CqAtom Atom(Axis axis, std::string name, std::string x, std::string y) {
  return {hcl::MakeAxisQuery(axis, std::move(name)), std::move(x),
          std::move(y)};
}

/// Drains `e`, failing the test if any tuple is produced twice.
xpath::TupleSet Drain(AcqEnumerator& e) {
  xpath::TupleSet out;
  while (true) {
    Result<std::optional<xpath::NodeTuple>> next = e.Next();
    EXPECT_TRUE(next.ok()) << next.status();
    if (!next.ok() || !next->has_value()) break;
    EXPECT_TRUE(out.insert(**next).second) << "repeated tuple";
  }
  return out;
}

TEST(AcqEnumeratorTest, MatchesBatchAnswerOnChain) {
  Tree t = MustTree("a(b(c),b(c,c),d)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "b", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "c", "y", "z"));
  q.output_vars = {"x", "y", "z"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(Drain(*e), *AnswerAcqYannakakis(t, q));
  EXPECT_EQ(e->produced(), 3u);
}

TEST(AcqEnumeratorTest, ProjectionDeduplicates) {
  Tree t = MustTree("a(b,b,b)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "b", "x", "y"));
  q.output_vars = {"x"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(Drain(*e), (xpath::TupleSet{{0}}));
  EXPECT_EQ(e->produced(), 1u);
}

TEST(AcqEnumeratorTest, EmptyQueryYieldsEmptyTupleOnce) {
  Tree t = MustTree("a(b)");
  ConjunctiveQuery q;  // no atoms, no outputs: trivially true once
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  Result<std::optional<xpath::NodeTuple>> first = e->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_TRUE((*first)->empty());
  Result<std::optional<xpath::NodeTuple>> second = e->Next();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->has_value());
}

TEST(AcqEnumeratorTest, UnsatisfiableYieldsNothing) {
  Tree t = MustTree("a(b)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "zzz", "x", "y"));
  q.output_vars = {"x"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->Next()->has_value());
  EXPECT_FALSE(e->Next()->has_value());  // stays exhausted
}

TEST(AcqEnumeratorTest, RejectsCyclicQueries) {
  Tree t = MustTree("a(b)");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "*", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "*", "y", "z"));
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "z"));
  EXPECT_FALSE(AcqEnumerator::Create(t, q).ok());
}

class AcqEnumeratorRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AcqEnumeratorRandomTest, AgreesWithYannakakis) {
  Rng rng(GetParam());
  const std::vector<std::string> var_names = {"x", "y", "z", "w"};
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(10);
    Tree t = RandomTree(rng, opts);
    ConjunctiveQuery q;
    std::size_t num_vars = 2 + rng.Below(3);
    for (std::size_t i = 1; i < num_vars; ++i) {
      q.atoms.push_back(Atom(kAllAxes[rng.Below(kAllAxes.size())],
                             rng.Chance(1, 3) ? "*"
                                              : GeneratorLabel(rng.Below(2)),
                             var_names[rng.Below(i)], var_names[i]));
    }
    for (std::size_t i = 0; i < num_vars; ++i) {
      if (rng.Chance(2, 3)) q.output_vars.push_back(var_names[i]);
    }
    if (q.output_vars.empty()) q.output_vars.push_back("x");

    Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
    ASSERT_TRUE(e.ok()) << e.status();
    Result<xpath::TupleSet> batch = AnswerAcqYannakakis(t, q);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(Drain(*e), *batch)
        << q.ToString() << "\ntree: " << t.ToTerm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcqEnumeratorRandomTest,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

// When every variable is an output variable, the DFS walks today's
// frames and produces each answer exactly once.
TEST(AcqEnumeratorTest, FullOutputHasNoDuplicateWork) {
  Rng rng(99);
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "*", "y", "z"));
  q.output_vars = {"x", "y", "z"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  const std::size_t resident = e->resident_bytes();
  std::size_t count = 0;
  while ((*e->Next()).has_value()) ++count;
  EXPECT_EQ(count, e->produced());
  EXPECT_EQ(count, AnswerAcqYannakakis(t, q)->size());
  EXPECT_EQ(e->resident_bytes(), resident);
}

// E11 ablation correctness: disabling the MC filter and/or memoization
// must not change answers, only performance.
class AblationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AblationTest, AllConfigurationsAgree) {
  Rng rng(GetParam());
  using hcl::HclExpr;
  for (int trial = 0; trial < 6; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(8);
    Tree t = RandomTree(rng, opts);
    // A query with unions and filters: exercises both the MC pruning and
    // the memo sharing.
    hcl::HclPtr c = HclExpr::Compose(
        HclExpr::Union(
            HclExpr::Binary(hcl::MakeAxisQuery(Axis::kChild, "a")),
            HclExpr::Binary(hcl::MakeAxisQuery(Axis::kDescendant, "b"))),
        HclExpr::Compose(
            HclExpr::Filter(HclExpr::Compose(
                HclExpr::Binary(hcl::MakeAxisQuery(Axis::kChild)),
                HclExpr::Var("x"))),
            HclExpr::Union(HclExpr::Var("y"),
                           HclExpr::Binary(hcl::MakeAxisQuery(Axis::kSelf)))));
    const std::vector<std::string> vars = {"x", "y"};

    xpath::TupleSet reference;
    bool have_reference = false;
    for (bool mc : {true, false}) {
      for (bool memo : {true, false}) {
        hcl::AnswerOptions options;
        options.use_mc_filter = mc;
        options.memoize_vals = memo;
        hcl::QueryAnswerer answerer(t, *c, vars, options);
        ASSERT_TRUE(answerer.Prepare().ok());
        Result<xpath::TupleSet> answered = answerer.Answer();
        ASSERT_TRUE(answered.ok());
        xpath::TupleSet answers = std::move(answered).value();
        if (!have_reference) {
          reference = answers;
          have_reference = true;
        } else {
          EXPECT_EQ(answers, reference)
              << "mc=" << mc << " memo=" << memo
              << " tree=" << t.ToTerm();
        }
      }
    }
    EXPECT_EQ(reference, hcl::EvalHclNaryNaive(t, *c, vars));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AblationTest,
                         ::testing::Values(61, 62, 63, 64));

// ------------------------------------------ projection without dedup

/// Drains `e`, checking that resident_bytes() reads the same after the
/// first answer and after the last one.
xpath::TupleSet DrainWithFlatMemory(AcqEnumerator& e) {
  xpath::TupleSet out;
  std::size_t first_resident = 0;
  while (true) {
    Result<std::optional<xpath::NodeTuple>> next = e.Next();
    EXPECT_TRUE(next.ok()) << next.status();
    if (!next.ok() || !next->has_value()) break;
    EXPECT_TRUE(out.insert(**next).second) << "repeated tuple";
    if (out.size() == 1) first_resident = e.resident_bytes();
  }
  EXPECT_EQ(e.resident_bytes(), first_resident);
  return out;
}

// A projected variable of degree >= 3 survives the elimination pass (it
// cannot be composed away): on a star its many assignments collapse
// onto each output triple, and the output frames under it run extension
// checks instead of remembering what they emitted.
TEST(AcqEnumeratorTest, StarProjectionDrainsDistinctWithFlatMemory) {
  Tree t = *Tree::ParseTerm("r(" + [] {
    std::string kids = "a";
    for (int i = 0; i < 60; ++i) kids += ",a";
    return kids;
  }() + ")");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "a", "v", "x"));
  q.atoms.push_back(Atom(Axis::kChild, "a", "v", "y"));
  q.atoms.push_back(Atom(Axis::kDescendant, "a", "v", "z"));
  q.output_vars = {"x", "y", "z"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  const xpath::TupleSet answers = DrainWithFlatMemory(*e);
  EXPECT_EQ(answers.size(), 61u * 61u * 61u);
  EXPECT_EQ(answers, *AnswerAcqYannakakis(t, q));
  EXPECT_EQ(e->produced(), answers.size());
}

TEST(AcqEnumeratorTest, CommonAncestorProjectionMatchesBatchAnswer) {
  // Common-ancestor triples: the projected v ranges over every common
  // ancestor, so each output tuple has many assignments.
  Rng rng(123);
  RandomTreeOptions opts;
  opts.num_nodes = 12;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "v", "x"));
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "v", "y"));
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "v", "z"));
  q.output_vars = {"x", "y", "z"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(DrainWithFlatMemory(*e), *AnswerAcqYannakakis(t, q));
}

// Randomized projected ACQs against the naive oracle. Variable 0 is a
// hub that most atoms hang off and is usually projected away, so it
// survives elimination with degree >= 3 and the frames below it run
// extension checks. Cases also repeat output variables, split into
// several components, merge variables by equality, and project every
// variable away.
class ProjectedAcqDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProjectedAcqDifferentialTest, DistinctAndEqualToNaive) {
  Rng rng(GetParam());
  const std::vector<std::string> names = {"v", "a", "b", "c", "d", "e"};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t num_vars =
        rng.Chance(1, 4) ? 1 + rng.Below(3) : 4 + rng.Below(3);
    // The naive oracle walks |t|^#vars assignments: keep that <= 6 * 10^4.
    const std::size_t max_nodes =
        num_vars <= 4 ? 14 : num_vars == 5 ? 9 : 6;
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(max_nodes);
    Tree t = RandomTree(rng, opts);

    ConjunctiveQuery q;
    for (std::size_t i = 1; i < num_vars; ++i) {
      if (rng.Chance(1, 6)) continue;  // starts another component
      const std::string& other = names[rng.Chance(3, 4) ? 0 : rng.Below(i)];
      if (rng.Chance(1, 12)) {
        q.equalities.push_back({names[i], other});
        continue;
      }
      const std::string label =
          rng.Chance(3, 4) ? "*" : GeneratorLabel(rng.Below(2));
      q.atoms.push_back(rng.Chance(1, 2)
                            ? Atom(kAllAxes[rng.Below(kAllAxes.size())],
                                   label, other, names[i])
                            : Atom(kAllAxes[rng.Below(kAllAxes.size())],
                                   label, names[i], other));
    }
    if (!rng.Chance(1, 8)) {
      for (std::size_t i = 0; i < num_vars; ++i) {
        if (i == 0 ? rng.Chance(1, 5) : rng.Chance(3, 4)) {
          q.output_vars.push_back(names[i]);
        }
      }
      if (!q.output_vars.empty() && rng.Chance(1, 4)) {
        q.output_vars.push_back(
            q.output_vars[rng.Below(q.output_vars.size())]);
      }
    }

    Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
    ASSERT_TRUE(e.ok()) << e.status();
    EXPECT_EQ(Drain(*e), AnswerCqNaive(t, q))
        << q.ToString() << "\ntree: " << t.ToTerm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectedAcqDifferentialTest,
                         ::testing::Values(71, 72, 73, 74, 75, 76, 77, 78));

// The elimination pass strips projected chain variables entirely: a
// two-atom chain with one output variable enumerates over exactly that
// variable, still matching the batch oracle.
TEST(AcqEnumeratorTest, ChainProjectionEliminatesToInjective) {
  Rng rng(124);
  RandomTreeOptions opts;
  opts.num_nodes = 30;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "y"));
  q.atoms.push_back(Atom(Axis::kChild, "*", "y", "z"));
  q.output_vars = {"y"};
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(Drain(*e), *AnswerAcqYannakakis(t, q));
}

// ------------------------------------------------ cooperative cancellation

TEST(AcqEnumeratorTest, ObservesCancelFlagBetweenSteps) {
  Rng rng(321);
  RandomTreeOptions opts;
  opts.num_nodes = 25;
  Tree t = RandomTree(rng, opts);
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kDescendant, "*", "x", "y"));
  q.output_vars = {"x", "y"};
  std::atomic<bool> cancelled{false};
  AcqEnumeratorOptions options;
  options.cancel = CancelToken(&cancelled);
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q, std::move(options));
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->Next().ok());  // runs while the flag is clear
  cancelled.store(true);
  Result<std::optional<xpath::NodeTuple>> next = e->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
  // Sticky even if the flag were cleared.
  cancelled.store(false);
  EXPECT_EQ(e->Next().status().code(), StatusCode::kCancelled);
}

TEST(AcqEnumeratorTest, ExpiredDeadlineFailsPreprocessing) {
  Tree t = *Tree::ParseTerm("a(b(c),b(c,c))");
  ConjunctiveQuery q;
  q.atoms.push_back(Atom(Axis::kChild, "*", "x", "y"));
  q.output_vars = {"x", "y"};
  AcqEnumeratorOptions options;
  options.cancel = CancelToken(
      nullptr, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  Result<AcqEnumerator> e = AcqEnumerator::Create(t, q, std::move(options));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryAnswererTest, ObservesPreSetCancelInsidePrepareOrAnswer) {
  Rng rng(99);
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  Tree t = RandomTree(rng, opts);
  hcl::HclPtr c = hcl::HclExpr::Compose(
      hcl::HclExpr::Binary(hcl::MakeAxisQuery(Axis::kDescendant)),
      hcl::HclExpr::Compose(hcl::HclExpr::Var("x"),
                            hcl::HclExpr::Binary(hcl::MakeAxisQuery(
                                Axis::kChild))));
  std::atomic<bool> cancelled{true};
  hcl::AnswerOptions options;
  options.cancel = CancelToken(&cancelled);
  hcl::QueryAnswerer answerer(t, *c, {"x"}, options);
  Status prepared = answerer.Prepare();
  if (prepared.ok()) {
    Result<xpath::TupleSet> answers = answerer.Answer();
    ASSERT_FALSE(answers.ok());
    EXPECT_EQ(answers.status().code(), StatusCode::kCancelled);
  } else {
    EXPECT_EQ(prepared.code(), StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace xpv::fo
