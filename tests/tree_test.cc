// Unit tests for the unranked-tree substrate: builder, parsers, serializers,
// structural queries, generators and the fcns binary encoding.
#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tree/binary_encoding.h"
#include "tree/generators.h"
#include "tree/tree.h"

namespace xpv {
namespace {

Tree MustParse(std::string_view term) {
  Result<Tree> t = Tree::ParseTerm(term);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

TEST(TreeBuilderTest, SingleNode) {
  TreeBuilder b;
  b.Leaf("a");
  Result<Tree> t = std::move(b).Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 1u);
  EXPECT_EQ(t->label_name(0), "a");
  EXPECT_TRUE(t->IsLeaf(0));
  EXPECT_TRUE(t->IsRoot(0));
}

TEST(TreeBuilderTest, PreOrderIds) {
  // a(b(c) d)
  TreeBuilder b;
  b.Open("a");
  b.Open("b");
  b.Leaf("c");
  b.Close();
  b.Leaf("d");
  b.Close();
  Result<Tree> t = std::move(b).Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->label_name(0), "a");
  EXPECT_EQ(t->label_name(1), "b");
  EXPECT_EQ(t->label_name(2), "c");
  EXPECT_EQ(t->label_name(3), "d");
  EXPECT_EQ(t->parent(1), 0u);
  EXPECT_EQ(t->parent(2), 1u);
  EXPECT_EQ(t->parent(3), 0u);
  EXPECT_EQ(t->first_child(0), 1u);
  EXPECT_EQ(t->last_child(0), 3u);
  EXPECT_EQ(t->next_sibling(1), 3u);
  EXPECT_EQ(t->prev_sibling(3), 1u);
}

TEST(TreeBuilderTest, UnclosedNodesFail) {
  TreeBuilder b;
  b.Open("a");
  Result<Tree> t = std::move(b).Finish();
  EXPECT_FALSE(t.ok());
}

TEST(TreeBuilderTest, EmptyBuilderFails) {
  TreeBuilder b;
  Result<Tree> t = std::move(b).Finish();
  EXPECT_FALSE(t.ok());
}

TEST(TreeBuilderTest, TwoRootsFail) {
  TreeBuilder b;
  b.Leaf("a");
  b.Leaf("b");
  Result<Tree> t = std::move(b).Finish();
  EXPECT_FALSE(t.ok());
}

TEST(TermParserTest, RoundTrip) {
  for (const char* term :
       {"a", "a(b)", "a(b,c)", "a(b(c),d)", "bib(book(author,title))",
        "a(a(a(a)))", "r(a,a,a,a,a)"}) {
    Tree t = MustParse(term);
    EXPECT_EQ(t.ToTerm(), term);
  }
}

TEST(TermParserTest, WhitespaceAndSpaceSeparators) {
  Tree t1 = MustParse("a( b , c(d) )");
  Tree t2 = MustParse("a(b c(d))");
  Tree t3 = MustParse("a(b,c(d))");
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t2, t3);
}

TEST(TermParserTest, Errors) {
  EXPECT_FALSE(Tree::ParseTerm("").ok());
  EXPECT_FALSE(Tree::ParseTerm("a(").ok());
  EXPECT_FALSE(Tree::ParseTerm("a()").ok());
  EXPECT_FALSE(Tree::ParseTerm("a(b))").ok());
  EXPECT_FALSE(Tree::ParseTerm("a b").ok());
  EXPECT_FALSE(Tree::ParseTerm("1a").ok());
}

TEST(TermParserTest, ErrorOffsetsArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "expected a label at offset 0"},
      {"   ", "expected a label at offset 3"},
      {"(", "expected a label at offset 0"},
      {"a(", "expected a label at offset 2"},
      {"a()", "empty child list at offset 2"},
      {"a(b", "expected ',', ')' or a label at offset 3"},
      {"a(b,", "expected a label at offset 4"},
      {"a(b,)", "expected a label at offset 4"},
      {"a b", "trailing characters at offset 2"},
      {"a)", "trailing characters at offset 1"},
      {"a(b))", "trailing characters at offset 4"},
      {"1a", "expected a label at offset 0"},
      {"a(b 1)", "expected ',', ')' or a label at offset 4"},
      {"a(,b)", "expected a label at offset 2"},
      {"a(b)c", "trailing characters at offset 4"},
      {" a ( b , c ( d ) ) x", "trailing characters at offset 19"},
      {"a(b,,c)", "expected a label at offset 4"},
      {"a(b(c(d)),e", "expected ',', ')' or a label at offset 11"},
      {"\xc3\xa9", "expected a label at offset 0"},
      {"a(\xc3\xa9)", "expected a label at offset 2"},
      {"a(b;c)", "expected ',', ')' or a label at offset 3"},
  };
  for (const auto& [term, message] : cases) {
    Result<Tree> t = Tree::ParseTerm(term);
    ASSERT_FALSE(t.ok()) << term;
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument) << term;
    EXPECT_EQ(t.status().message(), message) << term;
  }
}

TEST(TermParserTest, ClassifiesEveryByteAsTheCLocaleDoes) {
  // The parser's character table must agree with <cctype> in the C
  // locale on all 256 byte values: a name starts with isalpha or '_',
  // continues with isalnum or one of "_-.", and isspace separates.
  ASSERT_NE(std::setlocale(LC_CTYPE, "C"), nullptr);
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool name_start = std::isalpha(b) || c == '_';
    const bool name_char = std::isalnum(b) || c == '_' || c == '-' || c == '.';
    const bool space = std::isspace(b) != 0;

    Result<Tree> alone = Tree::ParseTerm(std::string(1, c));
    EXPECT_EQ(alone.ok(), name_start) << "byte " << b;

    const std::string after_label = std::string("a") + c;
    Result<Tree> tail = Tree::ParseTerm(after_label);
    EXPECT_EQ(tail.ok(), name_char || space) << "byte " << b;
    if (tail.ok()) {
      EXPECT_EQ(tail->ToTerm(), name_char ? after_label : "a") << "byte " << b;
    }

    Result<Tree> separated = Tree::ParseTerm(std::string("r(a") + c + "b)");
    EXPECT_EQ(separated.ok(), space || name_char || c == ',') << "byte " << b;
    if (separated.ok() && !name_char) {
      EXPECT_EQ(separated->ToTerm(), "r(a,b)") << "byte " << b;
    }
  }
}

TEST(TermParserTest, ToTermRoundTripsRandomDeepAndWideTrees) {
  Rng rng(17);
  std::vector<Tree> trees;
  for (std::size_t i = 0; i < 40; ++i) {
    trees.push_back(RandomTree(rng, {.num_nodes = 1 + rng.Below(400),
                                     .alphabet_size = 1 + rng.Below(30),
                                     .max_children = rng.Below(9)}));
  }
  trees.push_back(PathTree(100000, "deep"));
  trees.push_back(StarTree(100000, "wide", "leaf"));
  trees.push_back(PerfectBinaryTree(12, 5));
  for (const Tree& t : trees) {
    Result<Tree> parsed = Tree::ParseTerm(t.ToTerm());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed.value(), t);
    EXPECT_EQ(parsed->alphabet_size(), t.alphabet_size());
    for (LabelId l = 0; l < t.alphabet_size(); ++l) {
      EXPECT_EQ(parsed->LabelPostings(parsed->FindLabel(t.label_string(l))),
                t.LabelPostings(l));
    }
  }
}

TEST(XmlParserTest, RoundTrip) {
  Tree t = MustParse("bib(book(author,title),book(author,author,title))");
  std::string xml = t.ToXml();
  Result<Tree> parsed = Tree::ParseXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, t);
}

TEST(XmlParserTest, SelfClosingAndDeclaration) {
  Result<Tree> t =
      Tree::ParseXml("<?xml version=\"1.0\"?>\n<a>\n  <b/>\n  <c><d/></c>\n</a>");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->ToTerm(), "a(b,c(d))");
}

TEST(XmlParserTest, Comments) {
  Result<Tree> t = Tree::ParseXml("<a><!-- hi --><b/></a>");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->ToTerm(), "a(b)");
}

TEST(XmlParserTest, RejectsTextAndAttributes) {
  EXPECT_FALSE(Tree::ParseXml("<a>text</a>").ok());
  EXPECT_FALSE(Tree::ParseXml("<a x=\"1\"/>").ok());
}

TEST(XmlParserTest, RejectsMalformed) {
  EXPECT_FALSE(Tree::ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(Tree::ParseXml("<a>").ok());
  EXPECT_FALSE(Tree::ParseXml("<a/><b/>").ok());
}

TEST(TreeStructureTest, ChildrenAndCounts) {
  Tree t = MustParse("a(b(c,d),e)");
  EXPECT_EQ(t.NumChildren(0), 2u);
  EXPECT_EQ(t.NumChildren(1), 2u);
  EXPECT_EQ(t.NumChildren(2), 0u);
  EXPECT_EQ(t.Children(0), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(t.Children(1), (std::vector<NodeId>{2, 3}));
}

TEST(TreeStructureTest, DepthAndAncestry) {
  Tree t = MustParse("a(b(c(d)),e)");
  EXPECT_EQ(t.Depth(0), 0u);
  EXPECT_EQ(t.Depth(3), 3u);
  EXPECT_TRUE(t.IsAncestorOrSelf(0, 3));
  EXPECT_TRUE(t.IsAncestorOrSelf(3, 3));
  EXPECT_FALSE(t.IsAncestorOrSelf(3, 0));
  EXPECT_FALSE(t.IsAncestorOrSelf(4, 3));
}

TEST(TreeStructureTest, SiblingOrder) {
  Tree t = MustParse("a(b,c,d)");
  EXPECT_TRUE(t.IsFollowingSiblingOrSelf(1, 3));
  EXPECT_TRUE(t.IsFollowingSiblingOrSelf(2, 2));
  EXPECT_FALSE(t.IsFollowingSiblingOrSelf(3, 1));
}

TEST(TreeStructureTest, LeastCommonAncestor) {
  Tree t = MustParse("a(b(c,d),e(f))");
  EXPECT_EQ(t.LeastCommonAncestor(2, 3), 1u);
  EXPECT_EQ(t.LeastCommonAncestor(2, 5), 0u);
  EXPECT_EQ(t.LeastCommonAncestor(2, 2), 2u);
  EXPECT_EQ(t.LeastCommonAncestor(1, 2), 1u);
  EXPECT_EQ(t.LeastCommonAncestor({2, 3, 5}), 0u);
  EXPECT_EQ(t.LeastCommonAncestor({2, 3}), 1u);
}

TEST(TreeStructureTest, Subtree) {
  Tree t = MustParse("a(b(c,d),e)");
  Tree sub = t.Subtree(1);
  EXPECT_EQ(sub.ToTerm(), "b(c,d)");
  Tree leaf = t.Subtree(4);
  EXPECT_EQ(leaf.ToTerm(), "e");
}

TEST(TreeStructureTest, LabelInterning) {
  Tree t = MustParse("a(b,a(b))");
  EXPECT_EQ(t.alphabet_size(), 2u);
  EXPECT_EQ(t.label(0), t.label(2));
  EXPECT_NE(t.label(0), t.label(1));
  EXPECT_EQ(t.FindLabel("a"), t.label(0));
  EXPECT_EQ(t.FindLabel("zzz"), kNoLabel);
}

TEST(GeneratorTest, RandomTreeHasRequestedSize) {
  Rng rng(42);
  for (std::size_t n : {1u, 2u, 10u, 100u}) {
    RandomTreeOptions opts;
    opts.num_nodes = n;
    Tree t = RandomTree(rng, opts);
    EXPECT_EQ(t.size(), n);
  }
}

TEST(GeneratorTest, RandomTreeRespectsMaxChildren) {
  Rng rng(42);
  RandomTreeOptions opts;
  opts.num_nodes = 200;
  opts.max_children = 2;
  Tree t = RandomTree(rng, opts);
  for (NodeId v = 0; v < t.size(); ++v) EXPECT_LE(t.NumChildren(v), 2u);
}

TEST(GeneratorTest, RandomTreeIsDeterministic) {
  Rng rng1(7);
  Rng rng2(7);
  RandomTreeOptions opts;
  opts.num_nodes = 50;
  EXPECT_EQ(RandomTree(rng1, opts), RandomTree(rng2, opts));
}

TEST(GeneratorTest, GeneratorLabels) {
  EXPECT_EQ(GeneratorLabel(0), "a");
  EXPECT_EQ(GeneratorLabel(25), "z");
  EXPECT_EQ(GeneratorLabel(26), "aa");
  EXPECT_EQ(GeneratorLabel(27), "ab");
}

TEST(GeneratorTest, BibliographyShape) {
  Rng rng(1);
  Tree t = BibliographyTree(rng, 10);
  EXPECT_EQ(t.label_name(t.root()), "bib");
  std::size_t books = 0;
  for (NodeId c = t.first_child(t.root()); c != kNoNode;
       c = t.next_sibling(c)) {
    EXPECT_EQ(t.label_name(c), "book");
    ++books;
    bool has_author = false;
    bool has_title = false;
    for (NodeId g = t.first_child(c); g != kNoNode; g = t.next_sibling(g)) {
      has_author |= t.label_name(g) == "author";
      has_title |= t.label_name(g) == "title";
    }
    EXPECT_TRUE(has_author);
    EXPECT_TRUE(has_title);
  }
  EXPECT_EQ(books, 10u);
}

TEST(GeneratorTest, RestaurantShape) {
  Rng rng(1);
  Tree t = RestaurantTree(rng, 5, 10);
  EXPECT_EQ(t.label_name(t.root()), "guide");
  EXPECT_EQ(t.NumChildren(t.root()), 5u);
}

TEST(GeneratorTest, PathAndStarShapes) {
  Tree path = PathTree(10);
  EXPECT_EQ(path.size(), 10u);
  for (NodeId v = 0; v + 1 < 10; ++v) EXPECT_EQ(path.NumChildren(v), 1u);
  Tree star = StarTree(9);
  EXPECT_EQ(star.size(), 10u);
  EXPECT_EQ(star.NumChildren(star.root()), 9u);
}

TEST(GeneratorTest, PerfectBinaryTreeSize) {
  EXPECT_EQ(PerfectBinaryTree(0).size(), 1u);
  EXPECT_EQ(PerfectBinaryTree(3).size(), 15u);
}

TEST(FcnsTest, EncodeDecodeRoundTripHandcrafted) {
  for (const char* term : {"a", "a(b)", "a(b,c,d)", "a(b(c),d(e,f))",
                           "bib(book(author,title),book(author))"}) {
    Tree t = MustParse(term);
    BinaryTree b = EncodeFcns(t, nullptr);
    EXPECT_EQ(b.size(), t.size());
    Result<Tree> back = DecodeFcns(b);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, t) << term;
  }
}

TEST(FcnsTest, EncodeDecodeRoundTripRandom) {
  Rng rng(2024);
  for (int i = 0; i < 50; ++i) {
    RandomTreeOptions opts;
    opts.num_nodes = 1 + rng.Below(60);
    Tree t = RandomTree(rng, opts);
    Result<Tree> back = DecodeFcns(EncodeFcns(t, nullptr));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, t);
  }
}

TEST(FcnsTest, MappingPreservesLabels) {
  Tree t = MustParse("a(b(c),d)");
  std::vector<NodeId> mapping;
  BinaryTree b = EncodeFcns(t, &mapping);
  ASSERT_EQ(mapping.size(), t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ(b.label(mapping[v]), t.label_name(v));
  }
}

TEST(FcnsTest, StructureOfEncoding) {
  Tree t = MustParse("a(b,c)");
  std::vector<NodeId> mapping;
  BinaryTree b = EncodeFcns(t, &mapping);
  // Binary: child1(enc(a)) = enc(b); child2(enc(b)) = enc(c).
  EXPECT_EQ(b.child1(mapping[0]), mapping[1]);
  EXPECT_EQ(b.child2(mapping[1]), mapping[2]);
  EXPECT_EQ(b.child2(mapping[0]), kNoNode);
  EXPECT_EQ(b.root(), mapping[0]);
}

TEST(BinaryTreeTest, AncestryAndLca) {
  Tree t = MustParse("a(b(c),d)");
  std::vector<NodeId> mapping;
  BinaryTree b = EncodeFcns(t, &mapping);
  EXPECT_TRUE(b.IsAncestorOrSelf(b.root(), mapping[2]));
  // In the fcns encoding, the sibling d hangs below b.
  EXPECT_TRUE(b.IsAncestorOrSelf(mapping[1], mapping[3]));
  EXPECT_EQ(b.LeastCommonAncestor(mapping[2], mapping[3]), mapping[1]);
}

TEST(BinaryTreeTest, SubtreeCopy) {
  Tree t = MustParse("a(b(c),d)");
  std::vector<NodeId> mapping;
  BinaryTree b = EncodeFcns(t, &mapping);
  BinaryTree sub = b.Subtree(mapping[1]);
  EXPECT_EQ(sub.size(), 3u);  // b, c, d (d is b's child2 in the encoding)
}

// ----------------------------------------- pathologically deep documents
//
// Regression tests for the iterative parsers/serializers: a recursive
// implementation overflows the call stack near depth ~10^4-10^5, so a
// 100k-deep chain must round-trip without crashing.

constexpr std::size_t kDeep = 100000;

TEST(DeepTreeTest, ParseTermAtDepth100k) {
  std::string term;
  term.reserve(kDeep * 3);
  for (std::size_t i = 0; i < kDeep - 1; ++i) term += "a(";
  term += 'a';
  term.append(kDeep - 1, ')');

  Result<Tree> t = Tree::ParseTerm(term);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->size(), kDeep);
  const NodeId deepest = static_cast<NodeId>(kDeep - 1);
  EXPECT_EQ(t->Depth(deepest), kDeep - 1);
  EXPECT_TRUE(t->IsAncestorOrSelf(t->root(), deepest));
  EXPECT_EQ(t->LeastCommonAncestor(deepest, static_cast<NodeId>(1)), 1u);

  // Serialization back out must be iterative too.
  EXPECT_EQ(t->ToTerm(), term);
}

TEST(DeepTreeTest, ParseXmlAtDepth100k) {
  std::string xml;
  xml.reserve(kDeep * 8);
  for (std::size_t i = 0; i < kDeep - 1; ++i) xml += "<a>";
  xml += "<a/>";
  for (std::size_t i = 0; i < kDeep - 1; ++i) xml += "</a>";

  Result<Tree> t = Tree::ParseXml(xml);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->size(), kDeep);
  EXPECT_EQ(t->Depth(static_cast<NodeId>(kDeep - 1)), kDeep - 1);
  EXPECT_EQ(t->ToXml(), xml);
}

TEST(DeepTreeTest, DeepSubtreeCopy) {
  Tree t = PathTree(kDeep);
  Tree sub = t.Subtree(1);
  EXPECT_EQ(sub.size(), kDeep - 1);
  EXPECT_EQ(sub.Depth(static_cast<NodeId>(sub.size() - 1)), kDeep - 2);
}

}  // namespace
}  // namespace xpv
