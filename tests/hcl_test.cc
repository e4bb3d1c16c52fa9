// Tests for HCL(L) (Section 5): Fig. 6 semantics, NVS(/) checking, the
// Lemma 3 sharing normal form, the Prop. 10 MC table, and the Fig. 8
// vals() answer enumeration (Prop. 11), differentially against the naive
// evaluator.
#include <gtest/gtest.h>

#include "hcl/answer.h"
#include "hcl/ast.h"
#include "hcl/sharing.h"
#include "tree/generators.h"

namespace xpv::hcl {
namespace {

Tree MustTree(std::string_view term) {
  Result<Tree> t = Tree::ParseTerm(term);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

HclPtr Ax(Axis axis, std::string name = "*") {
  return HclExpr::Binary(MakeAxisQuery(axis, std::move(name)));
}

TEST(HclAstTest, ToStringShapes) {
  HclPtr c = HclExpr::Compose(
      Ax(Axis::kChild, "a"),
      HclExpr::Union(HclExpr::Var("x"),
                     HclExpr::Filter(Ax(Axis::kDescendant))));
  EXPECT_EQ(c->ToString(), "child::a/(x u [descendant::*])");
  EXPECT_EQ(c->Size(), 6u);
}

TEST(HclAstTest, FreeVars) {
  HclPtr c = HclExpr::Union(
      HclExpr::Compose(HclExpr::Var("x"), Ax(Axis::kChild)),
      HclExpr::Filter(HclExpr::Var("y")));
  EXPECT_EQ(FreeVars(*c), (std::set<std::string>{"x", "y"}));
}

TEST(HclAstTest, CheckNoSharedComposition) {
  // x/child::* is fine; x/x is not.
  EXPECT_TRUE(CheckNoSharedComposition(
                  *HclExpr::Compose(HclExpr::Var("x"), Ax(Axis::kChild)))
                  .ok());
  EXPECT_FALSE(CheckNoSharedComposition(
                   *HclExpr::Compose(HclExpr::Var("x"), HclExpr::Var("x")))
                   .ok());
  // Sharing inside unions is allowed.
  EXPECT_TRUE(CheckNoSharedComposition(
                  *HclExpr::Union(HclExpr::Var("x"), HclExpr::Var("x")))
                  .ok());
  // Filter prefixes compose too: [x]/x shares x.
  EXPECT_FALSE(
      CheckNoSharedComposition(
          *HclExpr::Compose(HclExpr::Filter(HclExpr::Var("x")),
                            HclExpr::Var("x")))
          .ok());
}

TEST(HclSemanticsTest, Fig6Equations) {
  // a(b,c): ids a=0 b=1 c=2.
  Tree t = MustTree("a(b,c)");
  std::map<const BinaryQuery*, BitMatrix> cache;

  // [[b]] = q_b(t).
  HclPtr step = Ax(Axis::kChild, "b");
  BitMatrix m = EvalHcl(t, *step, {}, &cache);
  EXPECT_EQ(m.Count(), 1u);
  EXPECT_TRUE(m.Get(0, 1));

  // [[x]] = {(alpha(x), alpha(x))}.
  HclPtr var = HclExpr::Var("x");
  m = EvalHcl(t, *var, {{"x", 2}}, &cache);
  EXPECT_EQ(m.Count(), 1u);
  EXPECT_TRUE(m.Get(2, 2));

  // [[ [C] ]] = domain diagonal.
  HclPtr filter = HclExpr::Filter(Ax(Axis::kChild));
  m = EvalHcl(t, *filter, {}, &cache);
  EXPECT_EQ(m.Count(), 1u);
  EXPECT_TRUE(m.Get(0, 0));

  // Composition and union.
  HclPtr compose = HclExpr::Compose(Ax(Axis::kChild, "b"), HclExpr::Var("x"));
  m = EvalHcl(t, *compose, {{"x", 1}}, &cache);
  EXPECT_TRUE(m.Get(0, 1));
  EXPECT_EQ(m.Count(), 1u);
  m = EvalHcl(t, *compose, {{"x", 2}}, &cache);
  EXPECT_EQ(m.Count(), 0u);
}

TEST(SharingFormTest, SimpleCompositionIsUnchangedModuloSelf) {
  // child::a/child::b -> child::a/child::b/self, no parameters.
  HclPtr c = HclExpr::Compose(Ax(Axis::kChild, "a"), Ax(Axis::kChild, "b"));
  SharingForm form = SharingForm::FromHcl(*c);
  EXPECT_EQ(form.num_params(), 0u);
  EXPECT_EQ(form.root().ToString(), "child::a/child::b/self");
}

TEST(SharingFormTest, UnionLeftOfCompositionIntroducesParameter) {
  // (a u b)/c => a/p u b/p with p -> c/self.
  HclPtr c = HclExpr::Compose(
      HclExpr::Union(Ax(Axis::kChild, "a"), Ax(Axis::kChild, "b")),
      Ax(Axis::kChild, "c"));
  SharingForm form = SharingForm::FromHcl(*c);
  EXPECT_EQ(form.num_params(), 1u);
  EXPECT_EQ(form.root().ToString(), "child::a/p0 u child::b/p0");
  EXPECT_EQ(form.Def(0).ToString(), "child::c/self");
}

TEST(SharingFormTest, NestedUnionsShareLinearly) {
  // ((a u b) u (c u d))/e: parameters prevent copying e.
  HclPtr c = HclExpr::Compose(
      HclExpr::Union(
          HclExpr::Union(Ax(Axis::kChild, "a"), Ax(Axis::kChild, "b")),
          HclExpr::Union(Ax(Axis::kChild, "c"), Ax(Axis::kChild, "d"))),
      Ax(Axis::kChild, "e"));
  SharingForm form = SharingForm::FromHcl(*c);
  // e is stored once; inner unions reuse the same parameter.
  EXPECT_EQ(form.num_params(), 1u);
}

// Lemma 3 size bound: |D| + |Delta| linear in |C| even for towers of
// unions on the left of compositions, where naive distribution would be
// exponential.
TEST(SharingFormTest, LinearSizeOnUnionTowers) {
  auto make_tower = [&](int depth) {
    HclPtr c = Ax(Axis::kChild, "a");
    for (int i = 0; i < depth; ++i) {
      c = HclExpr::Compose(
          HclExpr::Union(Ax(Axis::kChild, "a"), Ax(Axis::kChild, "b")),
          std::move(c));
    }
    return c;
  };
  std::size_t previous = 0;
  for (int depth : {2, 4, 8, 16}) {
    HclPtr c = make_tower(depth);
    SharingForm form = SharingForm::FromHcl(*c);
    std::size_t total = form.TotalSize();
    // Linear growth: roughly 5 nodes per level.
    EXPECT_LE(total, 8u * static_cast<std::size_t>(depth) + 8u);
    EXPECT_GT(total, previous);
    previous = total;
  }
}

// Lemma 3 semantics: D_Delta = C. Check by expanding the sharing form back
// and comparing naive n-ary answers.
TEST(SharingFormTest, ExpansionPreservesSemantics) {
  Tree t = MustTree("a(b(c),b,c(b))");
  HclPtr c = HclExpr::Compose(
      HclExpr::Union(
          HclExpr::Compose(Ax(Axis::kChild, "b"), HclExpr::Var("x")),
          Ax(Axis::kDescendant, "c")),
      HclExpr::Union(Ax(Axis::kChild), HclExpr::Var("y")));
  SharingForm form = SharingForm::FromHcl(*c);
  HclPtr expanded = form.Expand();
  EXPECT_EQ(EvalHclNaryNaive(t, *c, {"x", "y"}),
            EvalHclNaryNaive(t, *expanded, {"x", "y"}));
}

TEST(SharingFormTest, VarsOfFollowsParameters) {
  HclPtr c = HclExpr::Compose(
      HclExpr::Union(Ax(Axis::kChild, "a"), Ax(Axis::kChild, "b")),
      HclExpr::Var("z"));
  SharingForm form = SharingForm::FromHcl(*c);
  // The root union's expansion mentions z (through the parameter).
  EXPECT_TRUE(form.VarsOf(form.root().id).contains("z"));
}

TEST(McTableTest, MatchesSatisfiabilityDefinition) {
  // MC(D, u) = 1 iff exists alpha, u' with (u,u') in [[D_Delta]]^{t,alpha}.
  Tree t = MustTree("a(b(c),d)");
  HclPtr c = HclExpr::Compose(Ax(Axis::kChild, "b"),
                              HclExpr::Compose(Ax(Axis::kChild, "c"),
                                               HclExpr::Var("x")));
  QueryAnswerer answerer(t, *c, {"x"});
  ASSERT_TRUE(answerer.Prepare().ok());
  const int root_id = answerer.form().root().id;
  // Only the root node (0) has a b-child with a c-child.
  EXPECT_TRUE(answerer.Mc(root_id, 0));
  for (NodeId u = 1; u < t.size(); ++u) {
    EXPECT_FALSE(answerer.Mc(root_id, u)) << "node " << u;
  }
}

TEST(McTableTest, VariablesAreAlwaysSatisfiable) {
  // MC(x/D, u) = MC(D, u): a variable can bind to the current node.
  Tree t = MustTree("a(b)");
  HclPtr c = HclExpr::Compose(HclExpr::Var("x"), Ax(Axis::kChild, "b"));
  QueryAnswerer answerer(t, *c, {"x"});
  ASSERT_TRUE(answerer.Prepare().ok());
  const int root_id = answerer.form().root().id;
  EXPECT_TRUE(answerer.Mc(root_id, 0));   // root has a b child
  EXPECT_FALSE(answerer.Mc(root_id, 1));  // leaf does not
}

TEST(AnswerTest, RejectsSharedCompositions) {
  Tree t = MustTree("a(b)");
  HclPtr bad = HclExpr::Compose(HclExpr::Var("x"), HclExpr::Var("x"));
  QueryAnswerer answerer(t, *bad, {"x"});
  EXPECT_EQ(answerer.Prepare().code(), StatusCode::kFragmentViolation);
}

TEST(AnswerTest, SingleVariableSelectsMatchingNodes) {
  // child::b/x from anywhere: answers = b-children of any node.
  Tree t = MustTree("a(b(b),c)");
  HclPtr c = HclExpr::Compose(Ax(Axis::kChild, "b"), HclExpr::Var("x"));
  Result<xpath::TupleSet> answers = AnswerQuery(t, *c, {"x"});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (xpath::TupleSet{{1}, {2}}));
}

TEST(AnswerTest, PairSelection) {
  // Author-title pairs, HCL-style: desc::book/[child::author/y]/child::title/z
  Tree t = MustTree("bib(book(author,title),book(author,author,title))");
  HclPtr c = HclExpr::Compose(
      Ax(Axis::kDescendant, "book"),
      HclExpr::Compose(
          HclExpr::Filter(HclExpr::Compose(Ax(Axis::kChild, "author"),
                                           HclExpr::Var("y"))),
          HclExpr::Compose(Ax(Axis::kChild, "title"), HclExpr::Var("z"))));
  Result<xpath::TupleSet> answers = AnswerQuery(t, *c, {"y", "z"});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (xpath::TupleSet{{2, 3}, {5, 7}, {6, 7}}));
}

TEST(AnswerTest, UnionExtendsUnconstrainedVariables) {
  // x u child::b: if the b-branch holds, x ranges over all nodes.
  Tree t = MustTree("a(b)");
  HclPtr c = HclExpr::Union(
      HclExpr::Compose(Ax(Axis::kChild, "b"), HclExpr::Var("x")),
      Ax(Axis::kChild, "b"));
  Result<xpath::TupleSet> answers = AnswerQuery(t, *c, {"x"});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (xpath::TupleSet{{0}, {1}}));
}

TEST(AnswerTest, VariableNotInQueryIsWildcard) {
  Tree t = MustTree("a(b)");
  HclPtr c = Ax(Axis::kChild, "b");
  Result<xpath::TupleSet> answers = AnswerQuery(t, *c, {"w"});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (xpath::TupleSet{{0}, {1}}));
}

TEST(AnswerTest, EmptyWhenUnsatisfiable) {
  Tree t = MustTree("a(b)");
  HclPtr c = HclExpr::Compose(Ax(Axis::kChild, "zzz"), HclExpr::Var("x"));
  Result<xpath::TupleSet> answers = AnswerQuery(t, *c, {"x"});
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
}

TEST(AnswerTest, BooleanQuery) {
  Tree t = MustTree("a(b)");
  Result<xpath::TupleSet> answers =
      AnswerQuery(t, *Ax(Axis::kChild, "b"), {});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (xpath::TupleSet{{}}));
  answers = AnswerQuery(t, *Ax(Axis::kChild, "zzz"), {});
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
}

TEST(AnswerTest, RepeatedTupleVariable) {
  Tree t = MustTree("a(b)");
  HclPtr c = HclExpr::Compose(Ax(Axis::kChild, "b"), HclExpr::Var("x"));
  Result<xpath::TupleSet> answers = AnswerQuery(t, *c, {"x", "x"});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (xpath::TupleSet{{1, 1}}));
}

// A binary query with one node set for every row -- the full relation,
// the shape of Fig. 7's `nodes` prefix for a variable step -- makes
// vals(b/D, u) the same at every u: the memo keeps one set for all of
// them, and a composition over many successors merges it once. Answers
// must not change, with memoization and under the no-memo ablation.
TEST(AnswerTest, RowIndependentPrefixesMatchNaive) {
  auto nodes_then = [](HclPtr rest) {
    return HclExpr::Compose(HclExpr::Binary(MakeFullRelationQuery()),
                            std::move(rest));
  };
  HclPtr c = HclExpr::Compose(
      Ax(Axis::kDescendant, "a"),
      nodes_then(HclExpr::Compose(
          HclExpr::Var("x"),
          HclExpr::Compose(
              HclExpr::Union(Ax(Axis::kChild, "b"), Ax(Axis::kChild, "a")),
              nodes_then(HclExpr::Var("y"))))));
  const std::vector<std::string> vars = {"x", "y"};
  Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(10);
    Tree t = RandomTree(rng, opts);
    const xpath::TupleSet naive = EvalHclNaryNaive(t, *c, vars);
    for (bool memo : {true, false}) {
      AnswerOptions options;
      options.memoize_vals = memo;
      QueryAnswerer answerer(t, *c, vars, options);
      ASSERT_TRUE(answerer.Prepare().ok());
      Result<xpath::TupleSet> answers = answerer.Answer();
      ASSERT_TRUE(answers.ok()) << answers.status();
      EXPECT_EQ(*answers, naive)
          << "memo=" << memo << " tree=" << t.ToTerm();
    }
  }
}

// Randomized differential test: vals() vs the naive evaluator over random
// HCL-(L) expressions with up to 3 variables on random trees.
class RandomHclGen {
 public:
  RandomHclGen(Rng& rng, std::vector<std::string> vars)
      : rng_(rng), vars_(std::move(vars)) {}

  // Generates an HCL- expression; available_vars tracks which variables
  // may still be used in this subtree (composition splits them).
  HclPtr Gen(int depth, std::vector<std::string> available) {
    if (depth <= 0 || rng_.Chance(1, 4)) {
      if (!available.empty() && rng_.Chance(1, 2)) {
        return HclExpr::Var(available[rng_.Below(available.size())]);
      }
      return HclExpr::Binary(
          MakeAxisQuery(kAllAxes[rng_.Below(kAllAxes.size())],
                        rng_.Chance(1, 3) ? "*" : GeneratorLabel(rng_.Below(2))));
    }
    switch (rng_.Below(4)) {
      case 0: {  // composition: split variables
        std::vector<std::string> left_vars, right_vars;
        for (const auto& v : available) {
          (rng_.Chance(1, 2) ? left_vars : right_vars).push_back(v);
        }
        return HclExpr::Compose(Gen(depth - 1, left_vars),
                                Gen(depth - 1, right_vars));
      }
      case 1:  // union: variables may be shared
        return HclExpr::Union(Gen(depth - 1, available),
                              Gen(depth - 1, available));
      case 2:
        return HclExpr::Filter(Gen(depth - 1, available));
      default: {  // filter/rest composition also splits
        std::vector<std::string> left_vars, right_vars;
        for (const auto& v : available) {
          (rng_.Chance(1, 2) ? left_vars : right_vars).push_back(v);
        }
        return HclExpr::Compose(
            HclExpr::Filter(Gen(depth - 1, left_vars)),
            Gen(depth - 1, right_vars));
      }
    }
  }

 private:
  Rng& rng_;
  std::vector<std::string> vars_;
};

class ValsVsNaiveTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValsVsNaiveTest, RandomQueriesAgree) {
  Rng rng(GetParam());
  const std::vector<std::string> vars = {"x", "y"};
  RandomHclGen gen(rng, vars);
  for (int trial = 0; trial < 15; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(8);
    Tree t = RandomTree(rng, opts);
    HclPtr c = gen.Gen(3, vars);
    ASSERT_TRUE(CheckNoSharedComposition(*c).ok()) << c->ToString();
    Result<xpath::TupleSet> fast = AnswerQuery(t, *c, vars);
    ASSERT_TRUE(fast.ok()) << fast.status();
    xpath::TupleSet naive = EvalHclNaryNaive(t, *c, vars);
    EXPECT_EQ(*fast, naive)
        << "expr: " << c->ToString() << "\ntree: " << t.ToTerm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValsVsNaiveTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108));

TEST(ValsVsNaiveTest, ThreeVariables) {
  Rng rng(999);
  const std::vector<std::string> vars = {"x", "y", "z"};
  RandomHclGen gen(rng, vars);
  for (int trial = 0; trial < 8; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(6);
    Tree t = RandomTree(rng, opts);
    HclPtr c = gen.Gen(3, vars);
    Result<xpath::TupleSet> fast = AnswerQuery(t, *c, vars);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(*fast, EvalHclNaryNaive(t, *c, vars))
        << "expr: " << c->ToString() << "\ntree: " << t.ToTerm();
  }
}

}  // namespace
}  // namespace xpv::hcl
