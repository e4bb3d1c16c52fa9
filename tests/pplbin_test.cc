// Tests for PPLbin (Section 4): the Fig. 3 AST, the Fig. 4 translation
// from variable-free Core XPath 2.0, the Boolean-matrix engine (Theorem 2)
// with its row-restricted image sweep, and the GKP per-source full
// relation for the positive fragment.
#include <atomic>
#include <chrono>

#include <gtest/gtest.h>

#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "tree/generators.h"
#include "xpath/eval.h"
#include "xpath/fragment.h"
#include "xpath/parser.h"

namespace xpv::ppl {
namespace {

Tree MustTree(std::string_view term) {
  Result<Tree> t = Tree::ParseTerm(term);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

xpath::PathPtr MustPath(std::string_view text) {
  Result<xpath::PathPtr> p = xpath::ParsePath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return std::move(p).value();
}

PplBinPtr MustTranslate(std::string_view text) {
  Result<PplBinPtr> p = FromXPath(*MustPath(text));
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return std::move(p).value();
}

TEST(PplBinAstTest, FactoriesAndPrinting) {
  PplBinPtr p = PplBinExpr::Compose(
      PplBinExpr::Step(Axis::kChild, "a"),
      PplBinExpr::Union(PplBinExpr::Step(Axis::kDescendant, "*"),
                        PplBinExpr::Self()));
  EXPECT_EQ(p->ToString(), "child::a/(descendant::* union self::*)");
  EXPECT_EQ(p->Size(), 5u);
  EXPECT_TRUE(p->IsPositive());
}

TEST(PplBinAstTest, ComplementPrinting) {
  PplBinPtr p = PplBinExpr::Complement(PplBinExpr::Step(Axis::kChild, "a"));
  EXPECT_EQ(p->ToString(), "except child::a");
  EXPECT_FALSE(p->IsPositive());
  PplBinPtr q = PplBinExpr::Compose(PplBinExpr::Self(), p->Clone());
  EXPECT_EQ(q->ToString(), "self::*/except child::a");
  PplBinPtr r = PplBinExpr::Complement(
      PplBinExpr::Union(PplBinExpr::Self(), PplBinExpr::Self()));
  EXPECT_EQ(r->ToString(), "except (self::* union self::*)");
}

TEST(PplBinAstTest, FilterPrinting) {
  PplBinPtr p = PplBinExpr::Filter(PplBinExpr::Step(Axis::kChild, "b"));
  EXPECT_EQ(p->ToString(), "[child::b]");
}

TEST(PplBinAstTest, CloneAndEquals) {
  PplBinPtr p = MustTranslate("child::a[not child::b] union descendant::c");
  PplBinPtr q = p->Clone();
  EXPECT_TRUE(p->Equals(*q));
  q->kind = PplBinKind::kFilter;
  EXPECT_FALSE(p->Equals(*q));
}

TEST(Fig4Test, RejectsVariables) {
  EXPECT_FALSE(FromXPath(*MustPath("$x")).ok());
  EXPECT_FALSE(FromXPath(*MustPath("child::a[. is $x]")).ok());
  EXPECT_FALSE(
      FromXPath(*MustPath("for $x in child::a return child::b")).ok());
}

// The Fig. 4 translation preserves semantics: compare the PPLbin matrix
// engine result with the direct Core XPath 2.0 evaluator, on handcrafted
// and random inputs.
void ExpectSameSemantics(const Tree& t, std::string_view xpath_text) {
  xpath::PathPtr original = MustPath(xpath_text);
  ASSERT_TRUE(xpath::CheckNoVariables(*original).ok()) << xpath_text;
  Result<PplBinPtr> translated = FromXPath(*original);
  ASSERT_TRUE(translated.ok()) << translated.status();

  xpath::DirectEvaluator direct(t);
  MatrixEngine engine(t);
  EXPECT_EQ(engine.Evaluate(**translated), direct.EvalPath(*original, {}))
      << "expr: " << xpath_text << "\ntranslated: "
      << (*translated)->ToString() << "\ntree: " << t.ToTerm();
}

class Fig4SemanticsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(Fig4SemanticsTest, AgreesWithDirectEvaluator) {
  // A tree exercising labels a/b/c at assorted depths and sibling layouts.
  Tree t1 = MustTree("a(b(c,a),c(a(b),b),b)");
  Tree t2 = MustTree("a(a(a(a)))");
  Tree t3 = MustTree("c(b,b,b,a)");
  ExpectSameSemantics(t1, GetParam());
  ExpectSameSemantics(t2, GetParam());
  ExpectSameSemantics(t3, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Fig4SemanticsTest,
    ::testing::Values(
        "child::a", ".", "self::b", "child::a/descendant::b",
        "child::* union descendant::c",
        "child::a intersect child::*",
        "descendant::* except descendant::a",
        "child::a[child::b]", "child::a[not child::b]",
        "child::a[child::b and child::c]",
        "child::a[child::b or not child::c]",
        "child::a[not (child::b and child::c)]",
        "child::a[not (child::b or child::c)]",
        "child::a[not not child::b]",
        "child::a[. is .]", "child::a[not (. is .)]",
        "(child::a union child::b)/child::*",
        "descendant::*[following_sibling::b]",
        "ancestor::* union preceding_sibling::*",
        "child::a[descendant::b[child::c]]",
        "(descendant::* except child::*)[child::a]",
        "parent::*/child::a except self::*"));

// Randomized differential testing: random variable-free expressions on
// random trees.
class RandomExprGen {
 public:
  explicit RandomExprGen(Rng& rng) : rng_(rng) {}

  xpath::PathPtr GenPath(int depth) {
    using xpath::PathExpr;
    if (depth <= 0 || rng_.Chance(1, 3)) {
      if (rng_.Chance(1, 6)) return PathExpr::Dot();
      return PathExpr::Step(RandomAxis(), RandomName());
    }
    switch (rng_.Below(5)) {
      case 0:
        return PathExpr::Compose(GenPath(depth - 1), GenPath(depth - 1));
      case 1:
        return PathExpr::Union(GenPath(depth - 1), GenPath(depth - 1));
      case 2:
        return PathExpr::Intersect(GenPath(depth - 1), GenPath(depth - 1));
      case 3:
        return PathExpr::Except(GenPath(depth - 1), GenPath(depth - 1));
      default:
        return PathExpr::Filter(GenPath(depth - 1), GenTest(depth - 1));
    }
  }

  xpath::TestPtr GenTest(int depth) {
    using xpath::TestExpr;
    if (depth <= 0 || rng_.Chance(1, 3)) {
      return TestExpr::Path(GenPath(0));
    }
    switch (rng_.Below(3)) {
      case 0:
        return TestExpr::Not(GenTest(depth - 1));
      case 1:
        return TestExpr::And(GenTest(depth - 1), GenTest(depth - 1));
      default:
        return TestExpr::Or(GenTest(depth - 1), GenTest(depth - 1));
    }
  }

 private:
  Axis RandomAxis() { return kAllAxes[rng_.Below(kAllAxes.size())]; }
  std::string RandomName() {
    if (rng_.Chance(1, 4)) return "*";
    return GeneratorLabel(rng_.Below(3));
  }

  Rng& rng_;
};

class Fig4RandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fig4RandomTest, RandomExpressionsAgree) {
  Rng rng(GetParam());
  RandomExprGen gen(rng);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(20);
    Tree t = RandomTree(rng, opts);
    xpath::PathPtr p = gen.GenPath(3);
    Result<PplBinPtr> translated = FromXPath(*p);
    ASSERT_TRUE(translated.ok()) << translated.status();
    xpath::DirectEvaluator direct(t);
    MatrixEngine engine(t);
    EXPECT_EQ(engine.Evaluate(**translated), direct.EvalPath(*p, {}))
        << "expr: " << p->ToString() << "\ntree: " << t.ToTerm();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig4RandomTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(MatrixEngineTest, NodesRelationIsFull) {
  Tree t = MustTree("a(b(c),d(e,f))");
  MatrixEngine engine(t);
  EXPECT_EQ(engine.Evaluate(*MakeNodesRelation()),
            BitMatrix::Full(t.size()));
}

TEST(MatrixEngineTest, NaiveModeAgrees) {
  Rng rng(5);
  RandomTreeOptions opts;
  opts.num_nodes = 25;
  Tree t = RandomTree(rng, opts);
  PplBinPtr p = MustTranslate(
      "descendant::a[not child::b]/following_sibling::* union child::c");
  MatrixEngine packed(t, MultiplyMode::kBitPacked);
  MatrixEngine naive(t, MultiplyMode::kNaive);
  EXPECT_EQ(packed.Evaluate(*p), naive.Evaluate(*p));
}

TEST(MatrixEngineTest, EvaluateFromRoot) {
  Tree t = MustTree("a(b(c),d)");
  MatrixEngine engine(t);
  BitVector reachable =
      engine.EvaluateFromRoot(*MustTranslate("child::*/child::*")).value();
  EXPECT_EQ(reachable.ToIndices(), (std::vector<std::uint32_t>{2}));
}

TEST(MatrixEngineTest, ToXPathRoundTripSemantics) {
  // ToXPath o FromXPath preserves the denotation.
  Tree t = MustTree("a(b(c,a),c(a,b))");
  xpath::DirectEvaluator direct(t);
  for (const char* text :
       {"child::a[not child::b]", "descendant::* except child::a",
        "child::a intersect descendant::a"}) {
    PplBinPtr bin = MustTranslate(text);
    xpath::PathPtr back = ToXPath(*bin);
    ASSERT_TRUE(back);
    // The xpath printout of the back-translation must be PPL (it is
    // variable-free, hence trivially in PPL).
    EXPECT_TRUE(xpath::CheckPpl(*back).ok()) << back->ToString();
    EXPECT_EQ(direct.EvalPath(*back, {}),
              direct.EvalPath(*MustPath(text), {}))
        << text;
  }
}

TEST(GkpEngineTest, RejectsComplement) {
  Tree t = MustTree("a(b)");
  GkpEngine gkp(t);
  PplBinPtr p = PplBinExpr::Complement(PplBinExpr::Self());
  EXPECT_EQ(gkp.Relation(*p).status().code(), StatusCode::kFragmentViolation);
  EXPECT_EQ(gkp.FromRoot(*p).status().code(), StatusCode::kFragmentViolation);
  // The image sweep itself takes complements: images and domains of the
  // expression GKP refuses still match its relation's rows.
  MatrixEngine matrix(t);
  const BitMatrix truth = matrix.Evaluate(*p);
  BitVector from(t.size());
  from.Set(t.root());
  Result<BitVector> image = matrix.Image(*p, from);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(*image, truth.ImageOf(from));
  Result<BitVector> domain = matrix.Domain(*p);
  ASSERT_TRUE(domain.ok()) << domain.status();
  EXPECT_EQ(*domain, truth.NonEmptyRows());
}

// Relation() checks its CancelToken once per source row.
TEST(GkpEngineTest, RelationObservesCancellation) {
  Tree t = PathTree(40);
  PplBinPtr p = MustTranslate("descendant::*[child::*]");
  std::atomic<bool> cancelled{true};
  GkpEngine gkp(t);
  EXPECT_EQ(gkp.Relation(*p, CancelToken(&cancelled)).status().code(),
            StatusCode::kCancelled);
  const auto past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(gkp.Relation(*p, CancelToken(nullptr, past)).status().code(),
            StatusCode::kDeadlineExceeded);
  // Neither an inactive token nor an active one that never fires changes
  // the relation.
  std::atomic<bool> idle{false};
  const auto future =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  Result<BitMatrix> plain = GkpEngine(t).Relation(*p);
  Result<BitMatrix> watched =
      GkpEngine(t).Relation(*p, CancelToken(&idle, future));
  ASSERT_TRUE(plain.ok() && watched.ok());
  EXPECT_EQ(*plain, *watched);
  EXPECT_EQ(*plain, MatrixEngine(t).Evaluate(*p));
}

// The filter-domain cache is keyed by the filter body's text: neither a
// repeated filter nor a fresh expression at a reused address may be
// served a stale domain.
TEST(MatrixEngineTest, FilterDomainCacheIsKeyedByExpression) {
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_nodes = 60;
  opts.alphabet_size = 3;
  Tree t = RandomTree(rng, opts);
  xpath::DirectEvaluator direct(t);
  auto expected_root_image = [&](const PplBinExpr& p) {
    return direct.EvalPath(*ToXPath(p), {}).Row(t.root());
  };
  MatrixEngine engine(t);
  PplBinPtr twice = MustTranslate(
      "descendant::*[child::b]/child::*[child::b] union child::a[child::b]");
  Result<BitVector> image = engine.EvaluateFromRoot(*twice);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(*image, expected_root_image(*twice));
  // Filters built and dropped one after another: each dies before the
  // next is built, so the allocator hands a new filter body the address
  // of an earlier, different one. Image(p, all) of a filter is its domain.
  BitVector all(t.size());
  all.Fill();
  for (const char* label : {"a", "b", "c", "a", "c", "b", "zzz", "a"}) {
    PplBinPtr p = PplBinExpr::Filter(PplBinExpr::Step(Axis::kChild, label));
    Result<BitVector> got = engine.Image(*p, all);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, direct.EvalPath(*ToXPath(*p), {}).NonEmptyRows())
        << label;
  }
}

class GkpRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

// GKP engine agrees with the matrix engine on positive expressions.
TEST_P(GkpRandomTest, RelationMatchesMatrixEngine) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(25);
    Tree t = RandomTree(rng, opts);
    RandomExprGen gen(rng);
    // Regenerate until positive (complement comes only from
    // intersect/except/not, so just filter).
    xpath::PathPtr p;
    PplBinPtr bin;
    do {
      p = gen.GenPath(3);
      Result<PplBinPtr> translated = FromXPath(*p);
      ASSERT_TRUE(translated.ok());
      bin = std::move(translated).value();
    } while (!bin->IsPositive());

    MatrixEngine matrix(t);
    GkpEngine gkp(t);
    Result<BitMatrix> relation = gkp.Relation(*bin);
    ASSERT_TRUE(relation.ok());
    EXPECT_EQ(*relation, matrix.Evaluate(*bin))
        << bin->ToString() << "\ntree: " << t.ToTerm();
  }
}

TEST_P(GkpRandomTest, DomainMatchesNonEmptyRows) {
  Rng rng(GetParam() + 500);
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  Tree t = RandomTree(rng, opts);
  MatrixEngine matrix(t);
  for (const char* text :
       {"child::a", "descendant::b/child::*", "child::a[child::b]",
        "following_sibling::*[descendant::c]",
        "parent::*/child::a union self::b"}) {
    PplBinPtr bin = MustTranslate(text);
    ASSERT_TRUE(bin->IsPositive()) << text;
    Result<BitVector> domain = matrix.Domain(*bin);
    ASSERT_TRUE(domain.ok());
    EXPECT_EQ(*domain, matrix.Evaluate(*bin).NonEmptyRows()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GkpRandomTest,
                         ::testing::Values(7, 8, 9, 10));

TEST(MatrixEngineTest, ImageOnPathTree) {
  Tree t = PathTree(30);
  MatrixEngine matrix(t);
  BitVector from(t.size());
  from.Set(0);
  Result<BitVector> image =
      matrix.Image(*MustTranslate("descendant::*"), from);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->Count(), 29u);
}

TEST(MakeNodesRelationTest, IsPositiveAndFull) {
  PplBinPtr nodes = MakeNodesRelation();
  EXPECT_TRUE(nodes->IsPositive());
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_nodes = 17;
  Tree t = RandomTree(rng, opts);
  GkpEngine gkp(t);
  Result<BitMatrix> relation = gkp.Relation(*nodes);
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(*relation, BitMatrix::Full(t.size()));
}

}  // namespace
}  // namespace xpv::ppl
