// Tests for axis relations: matrix construction, linear-time set images,
// and algebraic properties (inverses, closures) over random trees.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tree/axes.h"
#include "tree/generators.h"
#include "tree/tree.h"

namespace xpv {
namespace {

Tree MustParse(std::string_view term) {
  Result<Tree> t = Tree::ParseTerm(term);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

TEST(AxisNameTest, RoundTrip) {
  for (Axis axis : kAllAxes) {
    Result<Axis> parsed = ParseAxis(AxisName(axis));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, axis);
  }
}

TEST(AxisNameTest, AcceptsXPathHyphens) {
  EXPECT_TRUE(ParseAxis("following-sibling").ok());
  EXPECT_TRUE(ParseAxis("preceding-sibling").ok());
  EXPECT_FALSE(ParseAxis("descendant-or-self").ok());
  EXPECT_FALSE(ParseAxis("attribute").ok());
}

TEST(InverseAxisTest, IsInvolutive) {
  for (Axis axis : kAllAxes) {
    EXPECT_EQ(InverseAxis(InverseAxis(axis)), axis);
  }
  EXPECT_EQ(InverseAxis(Axis::kChild), Axis::kParent);
  EXPECT_EQ(InverseAxis(Axis::kDescendant), Axis::kAncestor);
  EXPECT_EQ(InverseAxis(Axis::kFollowingSibling), Axis::kPrecedingSibling);
  EXPECT_EQ(InverseAxis(Axis::kSelf), Axis::kSelf);
}

TEST(AxisMatrixTest, HandcraftedChildAndParent) {
  // a(b(c,d),e) -- ids: a=0 b=1 c=2 d=3 e=4.
  Tree t = MustParse("a(b(c,d),e)");
  BitMatrix child = AxisMatrix(t, Axis::kChild);
  EXPECT_TRUE(child.Get(0, 1));
  EXPECT_TRUE(child.Get(0, 4));
  EXPECT_TRUE(child.Get(1, 2));
  EXPECT_TRUE(child.Get(1, 3));
  EXPECT_EQ(child.Count(), 4u);
  EXPECT_EQ(AxisMatrix(t, Axis::kParent), child.Transpose());
}

TEST(AxisMatrixTest, HandcraftedDescendant) {
  Tree t = MustParse("a(b(c,d),e)");
  BitMatrix desc = AxisMatrix(t, Axis::kDescendant);
  EXPECT_EQ(desc.Count(), 6u);  // a->{b,c,d,e}, b->{c,d}
  EXPECT_TRUE(desc.Get(0, 3));
  EXPECT_TRUE(desc.Get(1, 2));
  EXPECT_FALSE(desc.Get(0, 0));
  EXPECT_FALSE(desc.Get(2, 3));
}

TEST(AxisMatrixTest, HandcraftedSiblings) {
  Tree t = MustParse("a(b,c,d)");
  BitMatrix fs = AxisMatrix(t, Axis::kFollowingSibling);
  EXPECT_TRUE(fs.Get(1, 2));
  EXPECT_TRUE(fs.Get(1, 3));
  EXPECT_TRUE(fs.Get(2, 3));
  EXPECT_EQ(fs.Count(), 3u);
  EXPECT_EQ(AxisMatrix(t, Axis::kPrecedingSibling), fs.Transpose());
}

class AxisRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

// AxisMatrix agrees with the brute-force AxisHolds oracle on random trees.
TEST_P(AxisRandomTest, MatrixMatchesOracle) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 1 + rng.Below(40);
  Tree t = RandomTree(rng, opts);
  for (Axis axis : kAllAxes) {
    BitMatrix m = AxisMatrix(t, axis);
    for (NodeId u = 0; u < t.size(); ++u) {
      for (NodeId v = 0; v < t.size(); ++v) {
        EXPECT_EQ(m.Get(u, v), AxisHolds(t, axis, u, v))
            << AxisName(axis) << " u=" << u << " v=" << v
            << " tree=" << t.ToTerm();
      }
    }
  }
}

// AxisImage(t, a, N) == columns reachable from N in AxisMatrix.
TEST_P(AxisRandomTest, ImageMatchesMatrix) {
  Rng rng(GetParam() + 1000);
  RandomTreeOptions opts;
  opts.num_nodes = 1 + rng.Below(50);
  Tree t = RandomTree(rng, opts);
  for (Axis axis : kAllAxes) {
    BitMatrix m = AxisMatrix(t, axis);
    for (int trial = 0; trial < 5; ++trial) {
      BitVector from(t.size());
      for (std::size_t k = 0; k < t.size() / 2 + 1; ++k) {
        from.Set(rng.Below(t.size()));
      }
      EXPECT_EQ(AxisImage(t, axis, from), m.ImageOf(from))
          << AxisName(axis) << " tree=" << t.ToTerm();
    }
  }
}

// Inverse axis relation == transposed matrix.
TEST_P(AxisRandomTest, InverseIsTranspose) {
  Rng rng(GetParam() + 2000);
  RandomTreeOptions opts;
  opts.num_nodes = 1 + rng.Below(40);
  Tree t = RandomTree(rng, opts);
  for (Axis axis : kAllAxes) {
    EXPECT_EQ(AxisMatrix(t, InverseAxis(axis)),
              AxisMatrix(t, axis).Transpose());
  }
}

// descendant == transitive closure of child; following_sibling == closure
// of the next-sibling relation.
TEST_P(AxisRandomTest, ClosureLaws) {
  Rng rng(GetParam() + 3000);
  RandomTreeOptions opts;
  opts.num_nodes = 1 + rng.Below(30);
  Tree t = RandomTree(rng, opts);

  BitMatrix child = AxisMatrix(t, Axis::kChild);
  BitMatrix closure(t.size());
  BitMatrix power = child;
  while (!power.None()) {
    closure = closure.Or(power);
    power = power.Multiply(child);
  }
  EXPECT_EQ(closure, AxisMatrix(t, Axis::kDescendant));

  BitMatrix ns(t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.next_sibling(v) != kNoNode) ns.Set(v, t.next_sibling(v));
  }
  BitMatrix ns_closure(t.size());
  power = ns;
  while (!power.None()) {
    ns_closure = ns_closure.Or(power);
    power = power.Multiply(ns);
  }
  EXPECT_EQ(ns_closure, AxisMatrix(t, Axis::kFollowingSibling));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AxisRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(AxisImageTest, PathTreeExtremes) {
  Tree t = PathTree(50);
  BitVector root_only(t.size());
  root_only.Set(0);
  BitVector desc = AxisImage(t, Axis::kDescendant, root_only);
  EXPECT_EQ(desc.Count(), 49u);
  BitVector leaf_only(t.size());
  leaf_only.Set(49);
  BitVector anc = AxisImage(t, Axis::kAncestor, leaf_only);
  EXPECT_EQ(anc.Count(), 49u);
}

TEST(AxisImageTest, StarTreeSiblings) {
  Tree t = StarTree(20);
  BitVector first(t.size());
  first.Set(1);  // first leaf
  EXPECT_EQ(AxisImage(t, Axis::kFollowingSibling, first).Count(), 19u);
  EXPECT_EQ(AxisImage(t, Axis::kPrecedingSibling, first).Count(), 0u);
}

// Differential suite for the push/pull switch: AxisImage against the
// relation's ImageOf on path, star, random and bibliography trees of up
// to ~300 nodes, for frontiers of every density that takes a different
// route -- empty, one node, sparse, one below / at / one above the
// crossover |t| / kAxisImagePushDivisor, and full.

struct NamedTree {
  std::string name;
  Tree tree;
};

std::vector<NamedTree> DifferentialTrees() {
  Rng rng(26);
  std::vector<NamedTree> trees;
  trees.push_back({"path", PathTree(300)});
  trees.push_back({"star", StarTree(299)});
  RandomTreeOptions wide;
  wide.num_nodes = 300;
  trees.push_back({"random", RandomTree(rng, wide)});
  RandomTreeOptions bounded;
  bounded.num_nodes = 257;
  bounded.alphabet_size = 6;
  bounded.max_children = 8;
  trees.push_back({"random_fanout8", RandomTree(rng, bounded)});
  trees.push_back({"bibliography", BibliographyTree(rng, 60)});
  return trees;
}

/// `count` distinct node ids below n, drawn at random.
BitVector RandomFrontier(Rng& rng, std::size_t n, std::size_t count) {
  std::vector<NodeId> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = v;
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(ids[i], ids[i + rng.Below(n - i)]);
  }
  BitVector from(n);
  for (std::size_t i = 0; i < count; ++i) from.Set(ids[i]);
  return from;
}

std::vector<std::pair<std::string, BitVector>> DifferentialFrontiers(
    Rng& rng, std::size_t n) {
  std::vector<std::pair<std::string, BitVector>> frontiers;
  frontiers.emplace_back("empty", BitVector(n));
  for (NodeId v : {NodeId{0}, static_cast<NodeId>(n / 2),
                   static_cast<NodeId>(n - 1)}) {
    BitVector one(n);
    one.Set(v);
    frontiers.emplace_back("node " + std::to_string(v), std::move(one));
  }
  for (int trial = 0; trial < 3; ++trial) {
    frontiers.emplace_back("sparse", RandomFrontier(rng, n, n / 20 + 1));
  }
  const std::size_t crossover = n / kAxisImagePushDivisor;
  for (std::size_t count : {crossover - 1, crossover, crossover + 1}) {
    for (int trial = 0; trial < 3; ++trial) {
      frontiers.emplace_back("count " + std::to_string(count),
                             RandomFrontier(rng, n, count));
    }
  }
  BitVector full(n);
  full.Fill();
  frontiers.emplace_back("full", std::move(full));
  return frontiers;
}

TEST(AxisImageDifferentialTest, MatchesMatrixAtEveryFrontierDensity) {
  Rng rng(2612);
  for (const NamedTree& named : DifferentialTrees()) {
    const Tree& t = named.tree;
    ASSERT_GE(t.size(), 200u) << named.name;
    const auto frontiers = DifferentialFrontiers(rng, t.size());
    for (Axis axis : kAllAxes) {
      const BitMatrix m = AxisMatrix(t, axis);
      for (const auto& [what, from] : frontiers) {
        EXPECT_EQ(AxisImage(t, axis, from), m.ImageOf(from))
            << named.name << " (" << t.size() << " nodes), "
            << AxisName(axis) << ", frontier " << what << " of "
            << from.Count();
      }
    }
  }
}

// Long chains at 65536 nodes: every node's ancestors on a path, and
// every leaf's siblings on a star. A walk that did not stop at the first
// marked node would take quadratic time here.
TEST(AxisImageDifferentialTest, LongChainsAtScaleHaveExactCounts) {
  constexpr std::size_t kNodes = 65536;
  const Tree path = PathTree(kNodes);
  BitVector all(kNodes);
  all.Fill();
  EXPECT_EQ(AxisImage(path, Axis::kAncestor, all).Count(), kNodes - 1);
  EXPECT_EQ(AxisImage(path, Axis::kDescendant, all).Count(), kNodes - 1);
  // A pushed frontier: the deepest node and the middle one.
  BitVector two(kNodes);
  two.Set(kNodes - 1);
  two.Set(kNodes / 2);
  EXPECT_EQ(AxisImage(path, Axis::kAncestor, two).Count(), kNodes - 1);
  // The lower half of the path: a frontier right at the crossover.
  BitVector lower_half(kNodes);
  lower_half.SetRange(kNodes / 2, kNodes);
  EXPECT_EQ(AxisImage(path, Axis::kAncestor, lower_half).Count(), kNodes - 1);

  const Tree star = StarTree(kNodes - 1);
  BitVector leaves(kNodes);
  leaves.SetRange(1, kNodes);
  EXPECT_EQ(AxisImage(star, Axis::kFollowingSibling, leaves).Count(),
            kNodes - 2);
  EXPECT_EQ(AxisImage(star, Axis::kPrecedingSibling, leaves).Count(),
            kNodes - 2);
  BitVector ends(kNodes);
  ends.Set(1);
  ends.Set(kNodes - 1);
  EXPECT_EQ(AxisImage(star, Axis::kFollowingSibling, ends).Count(),
            kNodes - 2);
  EXPECT_EQ(AxisImage(star, Axis::kPrecedingSibling, ends).Count(),
            kNodes - 2);
  // Every other leaf: a pushed frontier whose walks all meet marked nodes.
  BitVector odd(kNodes);
  for (NodeId v = 1; v < kNodes; v += 2) odd.Set(v);
  EXPECT_EQ(AxisImage(star, Axis::kFollowingSibling, odd).Count(),
            kNodes - 2);
  EXPECT_EQ(AxisImage(star, Axis::kPrecedingSibling, odd).Count(),
            kNodes - 2);
  EXPECT_EQ(AxisImage(star, Axis::kChild, ends).Count(), 0u);
  BitVector root(kNodes);
  root.Set(0);
  EXPECT_EQ(AxisImage(star, Axis::kChild, root).Count(), kNodes - 1);
}

TEST(LabelSetTest, WildcardAndNames) {
  Tree t = MustParse("a(b,a(b,c))");
  EXPECT_EQ(LabelSet(t, "").Count(), 5u);
  EXPECT_EQ(LabelSet(t, "a").Count(), 2u);
  EXPECT_EQ(LabelSet(t, "b").Count(), 2u);
  EXPECT_EQ(LabelSet(t, "c").Count(), 1u);
  EXPECT_EQ(LabelSet(t, "nope").Count(), 0u);
}

}  // namespace
}  // namespace xpv
