// Unit tests for the common substrate: Status/Result, BitVector, BitMatrix.
#include <gtest/gtest.h>

#include <vector>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/status.h"

namespace xpv {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, FragmentViolationCode) {
  Status s = Status::FragmentViolation("NVS(/)");
  EXPECT_EQ(s.code(), StatusCode::kFragmentViolation);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(13), 13u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(BitVectorTest, SetGetReset) {
  BitVector v(130);
  EXPECT_FALSE(v.Get(0));
  v.Set(0);
  v.Set(64);
  v.Set(129);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(129));
  EXPECT_FALSE(v.Get(1));
  v.Reset(64);
  EXPECT_FALSE(v.Get(64));
  EXPECT_EQ(v.Count(), 2u);
}

TEST(BitVectorTest, FillRespectsSize) {
  BitVector v(70);
  v.Fill();
  EXPECT_EQ(v.Count(), 70u);
  v.Complement();
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_TRUE(v.None());
}

TEST(BitVectorTest, SetRangeMatchesBitwiseLoop) {
  // Word-boundary edge cases: empty range, within one word, across words,
  // end exactly on a word boundary, full vector.
  const std::size_t n = 200;
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 0},   {5, 5},    {3, 17},   {60, 70},  {0, 64},
      {64, 128}, {63, 65}, {100, 200}, {0, 200},
  };
  for (auto [begin, end] : ranges) {
    BitVector fast(n);
    fast.SetRange(begin, end);
    BitVector slow(n);
    for (std::size_t i = begin; i < end; ++i) slow.Set(i);
    EXPECT_EQ(fast, slow) << "[" << begin << ", " << end << ")";
  }
  // Ranges accumulate (OR semantics).
  BitVector v(n);
  v.SetRange(0, 10);
  v.SetRange(5, 15);
  EXPECT_EQ(v.Count(), 15u);
}

TEST(BitMatrixTest, SetRowRangeMatchesBitwiseLoop) {
  const std::size_t n = 130;
  BitMatrix fast(n);
  BitMatrix slow(n);
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 0}, {3, 17}, {60, 70}, {63, 65}, {0, 128}, {5, 130},
  };
  std::size_t row = 0;
  for (auto [begin, end] : ranges) {
    fast.SetRowRange(row, begin, end);
    for (std::size_t c = begin; c < end; ++c) slow.Set(row, c);
    ++row;
  }
  EXPECT_EQ(fast, slow);
}

TEST(BitVectorTest, ComplementIsInvolutive) {
  Rng rng(5);
  BitVector v(100);
  for (int i = 0; i < 30; ++i) v.Set(rng.Below(100));
  BitVector w = v;
  w.Complement();
  w.Complement();
  EXPECT_EQ(v, w);
}

TEST(BitVectorTest, FirstAndNextSet) {
  BitVector v(200);
  EXPECT_EQ(v.FirstSet(), 200u);
  v.Set(5);
  v.Set(63);
  v.Set(64);
  v.Set(199);
  EXPECT_EQ(v.FirstSet(), 5u);
  EXPECT_EQ(v.NextSet(6), 63u);
  EXPECT_EQ(v.NextSet(64), 64u);
  EXPECT_EQ(v.NextSet(65), 199u);
  EXPECT_EQ(v.NextSet(200), 200u);
}

TEST(BitVectorTest, ForEachSetVisitsInOrder) {
  BitVector v(150);
  std::vector<std::size_t> expected = {0, 1, 63, 64, 65, 127, 128, 149};
  for (auto i : expected) v.Set(i);
  std::vector<std::size_t> seen;
  v.ForEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(BitMatrixTest, IdentityAndFull) {
  BitMatrix id = BitMatrix::Identity(67);
  EXPECT_EQ(id.Count(), 67u);
  for (std::size_t i = 0; i < 67; ++i) EXPECT_TRUE(id.Get(i, i));
  BitMatrix full = BitMatrix::Full(67);
  EXPECT_EQ(full.Count(), 67u * 67u);
}

// BitMatrix storage is calloc'd and never written on construction. A
// fresh matrix must still read all-zero when the allocator hands back the
// chunk a just-destroyed full matrix dirtied -- in small bins (64), in
// the heap once glibc's mmap threshold has grown (4096), and above it.
TEST(BitMatrixTest, FreshMatrixIsZeroAfterAFullOneIsFreed) {
  for (std::size_t n : {64, 4096, 16384, 32768}) {
    for (int round = 0; round < 2; ++round) {
      {
        BitMatrix full = BitMatrix::Full(n);
        ASSERT_EQ(full.Count(), n * n) << n;
      }
      BitMatrix fresh(n);
      EXPECT_TRUE(fresh.None()) << n;
      EXPECT_EQ(fresh.Count(), 0u) << n;
    }
  }
}

TEST(BitMatrixTest, CopiesAndEqualityIgnoreStorageOrigin) {
  for (std::size_t n : {1, 67, 4096}) {
    BitMatrix a(n);
    a.Set(0, n - 1);
    a.Set(n - 1, 0);
    const BitMatrix copy = a;
    EXPECT_EQ(copy, a) << n;
    EXPECT_EQ(copy.Count(), a.Count()) << n;
    BitMatrix assigned(n);
    EXPECT_NE(assigned, a) << n;
    assigned = copy;
    EXPECT_EQ(assigned, a) << n;
    a.Reset(0, n - 1);
    EXPECT_NE(copy, a) << n;  // the copy owns its words
    EXPECT_EQ(BitMatrix(n), BitMatrix(n)) << n;
    EXPECT_NE(BitMatrix(n), BitMatrix(n + 1)) << n;

    const BitMatrix id = BitMatrix::Identity(n);
    EXPECT_EQ(id.Count(), n) << n;
    EXPECT_EQ(id.Multiply(copy), copy) << n;
    const BitMatrix full = BitMatrix::Full(n);
    EXPECT_EQ(full.Count(), n * n) << n;
    EXPECT_EQ(full, BitMatrix(n).Complement()) << n;
    EXPECT_TRUE(full.Complement().None()) << n;
  }
}

TEST(BitMatrixTest, ComplementRespectsPadding) {
  BitMatrix m(67);
  BitMatrix c = m.Complement();
  EXPECT_EQ(c.Count(), 67u * 67u);
  EXPECT_EQ(c.Complement().Count(), 0u);
}

TEST(BitMatrixTest, MultiplyMatchesNaiveOnRandom) {
  Rng rng(99);
  for (std::size_t n : {1u, 5u, 63u, 64u, 65u, 100u}) {
    BitMatrix a(n);
    BitMatrix b(n);
    for (std::size_t k = 0; k < n * n / 3 + 1; ++k) {
      a.Set(rng.Below(n), rng.Below(n));
      b.Set(rng.Below(n), rng.Below(n));
    }
    EXPECT_EQ(a.Multiply(b), a.MultiplyNaive(b)) << "n=" << n;
  }
}

TEST(BitMatrixTest, MultiplyIdentityIsNeutral) {
  Rng rng(3);
  BitMatrix a(80);
  for (int k = 0; k < 500; ++k) a.Set(rng.Below(80), rng.Below(80));
  BitMatrix id = BitMatrix::Identity(80);
  EXPECT_EQ(a.Multiply(id), a);
  EXPECT_EQ(id.Multiply(a), a);
}

TEST(BitMatrixTest, FilterDiagonalSelectsNonEmptyRows) {
  BitMatrix m(10);
  m.Set(2, 7);
  m.Set(2, 8);
  m.Set(5, 0);
  BitMatrix d = m.FilterDiagonal();
  EXPECT_EQ(d.Count(), 2u);
  EXPECT_TRUE(d.Get(2, 2));
  EXPECT_TRUE(d.Get(5, 5));
  EXPECT_FALSE(d.Get(7, 7));
}

TEST(BitMatrixTest, TransposeIsInvolutive) {
  Rng rng(17);
  BitMatrix a(70);
  for (int k = 0; k < 300; ++k) a.Set(rng.Below(70), rng.Below(70));
  EXPECT_EQ(a.Transpose().Transpose(), a);
}

TEST(BitMatrixTest, TransposeSwapsCoordinates) {
  BitMatrix a(5);
  a.Set(1, 4);
  BitMatrix t = a.Transpose();
  EXPECT_TRUE(t.Get(4, 1));
  EXPECT_FALSE(t.Get(1, 4));
}

TEST(BitMatrixTest, MaskColumns) {
  BitMatrix a = BitMatrix::Full(6);
  BitVector cols(6);
  cols.Set(2);
  cols.Set(3);
  BitMatrix m = a.MaskColumns(cols);
  EXPECT_EQ(m.Count(), 12u);
  EXPECT_TRUE(m.Get(0, 2));
  EXPECT_FALSE(m.Get(0, 1));
}

TEST(BitMatrixTest, ImageOf) {
  BitMatrix a(6);
  a.Set(0, 1);
  a.Set(0, 2);
  a.Set(3, 4);
  BitVector from(6);
  from.Set(0);
  BitVector img = a.ImageOf(from);
  EXPECT_EQ(img.Count(), 2u);
  EXPECT_TRUE(img.Get(1));
  EXPECT_TRUE(img.Get(2));
  from.Set(3);
  img = a.ImageOf(from);
  EXPECT_EQ(img.Count(), 3u);
}

TEST(BitMatrixTest, NonEmptyRowsAndColumnUnion) {
  BitMatrix a(6);
  a.Set(1, 3);
  a.Set(4, 3);
  a.Set(4, 5);
  BitVector rows = a.NonEmptyRows();
  EXPECT_EQ(rows.ToIndices(), (std::vector<std::uint32_t>{1, 4}));
  BitVector cols = a.ColumnUnion();
  EXPECT_EQ(cols.ToIndices(), (std::vector<std::uint32_t>{3, 5}));
}

// De Morgan / Boolean-algebra laws used implicitly by the Fig. 4
// translation (intersect/except elimination).
TEST(BitMatrixTest, DeMorganLaws) {
  Rng rng(11);
  BitMatrix a(40);
  BitMatrix b(40);
  for (int k = 0; k < 200; ++k) {
    a.Set(rng.Below(40), rng.Below(40));
    b.Set(rng.Below(40), rng.Below(40));
  }
  // a AND b == NOT(NOT a OR NOT b)
  EXPECT_EQ(a.And(b), a.Complement().Or(b.Complement()).Complement());
  // a AND-NOT b == NOT(NOT a OR b)
  EXPECT_EQ(a.AndNot(b), a.Complement().Or(b).Complement());
}

TEST(BitMatrixTest, SelectRows) {
  BitMatrix a = BitMatrix::Full(5);
  BitVector rows(5);
  rows.Set(2);
  BitMatrix s = a.SelectRows(rows);
  EXPECT_EQ(s.Count(), 5u);
  EXPECT_TRUE(s.Get(2, 0));
  EXPECT_FALSE(s.Get(1, 0));
}

}  // namespace
}  // namespace xpv
