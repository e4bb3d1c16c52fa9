// Coverage for public APIs not exercised elsewhere: the standalone test
// parser entry point, the Status propagation macros, binary-tree printing,
// and assorted small utilities.
#include <gtest/gtest.h>

#include "common/status.h"
#include "ppl/matrix_engine.h"
#include "tree/binary_encoding.h"
#include "tree/generators.h"
#include "xpath/parser.h"

namespace xpv {
namespace {

TEST(ParseTestEntryPointTest, ParsesTestExpressions) {
  Result<xpath::TestPtr> t = xpath::ParseTest("child::a and not child::b");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->kind, xpath::TestKind::kAnd);
  EXPECT_EQ((*t)->b->kind, xpath::TestKind::kNot);

  t = xpath::ParseTest(". is $x");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->kind, xpath::TestKind::kIs);

  EXPECT_FALSE(xpath::ParseTest("").ok());
  EXPECT_FALSE(xpath::ParseTest("child::a and").ok());
  EXPECT_FALSE(xpath::ParseTest("child::a ]").ok());
}

TEST(ParseTestEntryPointTest, RoundTripsThroughToString) {
  for (const char* text :
       {"child::a", ". is $x", "not child::a", "child::a or . is .",
        "not (child::a and child::b)"}) {
    Result<xpath::TestPtr> t = xpath::ParseTest(text);
    ASSERT_TRUE(t.ok()) << text;
    Result<xpath::TestPtr> again = xpath::ParseTest((*t)->ToString());
    ASSERT_TRUE(again.ok()) << (*t)->ToString();
    EXPECT_TRUE((*again)->Equals(**t)) << text;
  }
}

Status FailingOperation() { return Status::NotFound("nope"); }
Status SucceedingOperation() { return Status::OK(); }
Result<int> FortyTwo() { return 42; }
Result<int> Failing() { return Status::OutOfRange("too big"); }

Status UseReturnIfError(bool fail) {
  if (fail) {
    XPV_RETURN_IF_ERROR(FailingOperation());
  } else {
    XPV_RETURN_IF_ERROR(SucceedingOperation());
  }
  return Status::Internal("fell through");
}

Result<int> UseAssignOrReturn(bool fail) {
  XPV_ASSIGN_OR_RETURN(int value, fail ? Failing() : FortyTwo());
  return value + 1;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UseReturnIfError(true).code(), StatusCode::kNotFound);
  EXPECT_EQ(UseReturnIfError(false).code(), StatusCode::kInternal);
}

TEST(StatusMacrosTest, AssignOrReturnBindsOrPropagates) {
  Result<int> ok = UseAssignOrReturn(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 43);
  Result<int> bad = UseAssignOrReturn(true);
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusCodeStringsTest, AllCodesNamed) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFragmentViolation),
               "FRAGMENT_VIOLATION");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOverloaded), "OVERLOADED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
}

TEST(BinaryTreeToTermTest, MarksMissingChildren) {
  Result<Tree> u = Tree::ParseTerm("a(b,c)");
  ASSERT_TRUE(u.ok());
  BinaryTree b = EncodeFcns(*u, nullptr);
  // fcns of a(b,c): a --c1--> b --c2--> c; printed with '-' placeholders.
  EXPECT_EQ(b.ToTerm(), "a(b(-,c),-)");
  Result<Tree> leaf = Tree::ParseTerm("a");
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(EncodeFcns(*leaf, nullptr).ToTerm(), "a");
}

TEST(RestaurantAttributeNameTest, NamedThenNumbered) {
  EXPECT_EQ(RestaurantAttributeName(0), "name");
  EXPECT_EQ(RestaurantAttributeName(9), "price");
  EXPECT_EQ(RestaurantAttributeName(12), "attr12");
}

TEST(MatrixDomainTest, EmptyAndFullDomains) {
  Result<Tree> t = Tree::ParseTerm("a(b(c),d)");
  ASSERT_TRUE(t.ok());
  ppl::MatrixEngine matrix(*t);
  // Domain of child::zzz is empty.
  Result<BitVector> none =
      matrix.Domain(*ppl::PplBinExpr::Step(Axis::kChild, "zzz"));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->None());
  // Domain of self::* is everything.
  Result<BitVector> all = matrix.Domain(*ppl::PplBinExpr::Self());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->Count(), t->size());
}

TEST(BitVectorAssignTest, ConditionalSetReset) {
  BitVector v(10);
  v.Assign(3, true);
  EXPECT_TRUE(v.Get(3));
  v.Assign(3, false);
  EXPECT_FALSE(v.Get(3));
}

TEST(TreeBuilderTest, OpenDepthTracksNesting) {
  TreeBuilder b;
  EXPECT_EQ(b.open_depth(), 0u);
  b.Open("a");
  EXPECT_EQ(b.open_depth(), 1u);
  b.Open("b");
  EXPECT_EQ(b.open_depth(), 2u);
  b.Close();
  b.Close();
  EXPECT_EQ(b.open_depth(), 0u);
}

TEST(ResultMoveTest, MoveOutOfResult) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 7);
}

}  // namespace
}  // namespace xpv
