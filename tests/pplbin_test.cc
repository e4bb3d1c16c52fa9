// Tests for PPLbin (Section 4): the Fig. 3 AST, the Fig. 4 translation
// from variable-free Core XPath 2.0, the Boolean-matrix engine (Theorem 2)
// with its row-restricted image sweep, and the GKP per-source full
// relation for the positive fragment.
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "ppl/relation_cache.h"
#include "tree/axis_cache.h"
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

TEST(MatrixEngineTest, EvaluationObservesCancellation) {
  Tree t = PathTree(40);
  // Interior nodes of every kind, and a complement the from-root sweep
  // reaches from many sources (it builds a sub-matrix).
  PplBinPtr p = MustTranslate(
      "descendant::*[child::*] except child::*/(descendant::* except "
      "child::*)");
  std::atomic<bool> cancelled{true};
  const auto past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  for (const auto& [token, code] :
       {std::pair{CancelToken(&cancelled), StatusCode::kCancelled},
        std::pair{CancelToken(nullptr, past),
                  StatusCode::kDeadlineExceeded}}) {
    MatrixEngine any(t);
    any.set_cancel(token);
    EXPECT_EQ(any.EvaluateAny(*p).status().code(), code);
    MatrixEngine root(t);
    root.set_cancel(token);
    EXPECT_EQ(root.EvaluateFromRoot(*p).status().code(), code);
  }
  // Neither an inactive token nor an active one that never fires changes
  // a result.
  std::atomic<bool> idle{false};
  const auto future =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  MatrixEngine plain(t);
  MatrixEngine watched(t);
  watched.set_cancel(CancelToken(&idle, future));
  Result<BitMatrix> plain_rel = plain.EvaluateDense(*p);
  Result<BitMatrix> watched_rel = watched.EvaluateDense(*p);
  ASSERT_TRUE(plain_rel.ok() && watched_rel.ok());
  EXPECT_EQ(*plain_rel, *watched_rel);
  Result<BitVector> plain_root = plain.EvaluateFromRoot(*p);
  Result<BitVector> watched_root = watched.EvaluateFromRoot(*p);
  ASSERT_TRUE(plain_root.ok() && watched_root.ok());
  EXPECT_EQ(*plain_root, *watched_root);
  EXPECT_EQ(*plain_root, plain_rel->Row(t.root()));
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

/// General PPLbin of the given depth, complements (nested ones too)
/// included.
PplBinPtr RandomPplBin(Rng& rng, int depth) {
  if (depth <= 0 || rng.Chance(1, 3)) {
    if (rng.Chance(1, 5)) return PplBinExpr::Self();
    return PplBinExpr::Step(
        kAllAxes[rng.Below(kAllAxes.size())],
        rng.Chance(1, 3) ? "*" : GeneratorLabel(rng.Below(3)));
  }
  switch (rng.Below(4)) {
    case 0:
      return PplBinExpr::Compose(RandomPplBin(rng, depth - 1),
                                 RandomPplBin(rng, depth - 1));
    case 1:
      return PplBinExpr::Union(RandomPplBin(rng, depth - 1),
                               RandomPplBin(rng, depth - 1));
    case 2:
      return PplBinExpr::Filter(RandomPplBin(rng, depth - 1));
    default:
      return PplBinExpr::Complement(RandomPplBin(rng, depth - 1));
  }
}

// Row u of M_P is image(P, {u}), and row u of M_{except P} is its
// complement. The single-source sweep must agree row for row with the
// bottom-up matrix evaluation, and with the Fig. 2 direct evaluator on
// small trees. It evaluates a complement reached from u alone as the
// complement of its operand's image, so sweeping `except P` from every
// node does exactly the matrix work of sweeping P: the same relation
// cache consults, the same products, the same axis matrices built.
class SingleSourceImageTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SingleSourceImageTest, FromNodeImagesAreMatrixRows) {
  Rng rng(GetParam());
  for (std::size_t nodes : {64u, 256u, 1024u, 4096u}) {
    RandomTreeOptions opts;
    opts.num_nodes = nodes;
    Tree t = RandomTree(rng, opts);
    const int queries = nodes <= 256 ? 6 : 2;
    for (int trial = 0; trial < queries; ++trial) {
      PplBinPtr p = RandomPplBin(rng, 4);
      PplBinPtr not_p = PplBinExpr::Complement(p->Clone());
      const std::string ctx =
          p->ToString() + " on " + std::to_string(nodes) + " nodes";
      Result<AnyMatrix> whole = MatrixEngine(t).EvaluateAny(*p);
      ASSERT_TRUE(whole.ok()) << ctx << ": " << whole.status();
      std::optional<BitMatrix> direct;
      if (nodes <= 256) {
        direct = xpath::DirectEvaluator(t).EvalPath(*ToXPath(*p), {});
      }
      // One engine per expression, each with its own axis and relation
      // caches. Complements reached from many sources (under a
      // composition's right operand or in a filter) still build their
      // sub-matrix; the relation cache builds each once for the loop.
      auto pos_axes = std::make_shared<AxisCache>(t);
      auto neg_axes = std::make_shared<AxisCache>(t);
      MatrixEngine pos(pos_axes);
      MatrixEngine neg(neg_axes);
      pos.set_relation_cache(std::make_shared<RelationCache>(64u << 20));
      neg.set_relation_cache(std::make_shared<RelationCache>(64u << 20));
      for (NodeId u = 0; u < t.size(); ++u) {
        Result<BitVector> row = pos.EvaluateFromNode(*p, u);
        ASSERT_TRUE(row.ok()) << ctx << ": " << row.status();
        BitVector source(t.size());
        source.Set(u);
        ASSERT_EQ(*row, whole->ImageOf(source)) << ctx << ", row " << u;
        if (direct.has_value()) {
          ASSERT_EQ(*row, direct->Row(u)) << ctx << ", row " << u;
        }
        Result<BitVector> not_row = neg.EvaluateFromNode(*not_p, u);
        ASSERT_TRUE(not_row.ok()) << ctx << ": " << not_row.status();
        row->Complement();
        ASSERT_EQ(*not_row, *row) << "except " << ctx << ", row " << u;
      }
      const MatrixEngineStats& a = pos.stats();
      const MatrixEngineStats& b = neg.stats();
      EXPECT_EQ(b.subrel_hits, a.subrel_hits) << ctx;
      EXPECT_EQ(b.subrel_misses, a.subrel_misses) << ctx;
      EXPECT_EQ(b.dense_products + b.sparse_products,
                a.dense_products + a.sparse_products)
          << ctx;
      EXPECT_EQ(neg_axes->matrices_built(), pos_axes->matrices_built())
          << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleSourceImageTest,
                         ::testing::Values(31, 32, 33));

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
