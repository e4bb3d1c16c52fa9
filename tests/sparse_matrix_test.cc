// Unit and differential tests for the sparse boolean composition kernels
// (common/sparse_matrix.h): CSR construction, dense round-trips, and every
// composition kernel -- Multiply (including the SpGEMM dense-accumulator
// fallback and its run budget), MultiplyDense / MultiplyDenseLeft, Or,
// Complement, FilterDiagonal -- checked cell-for-cell against the dense
// BitMatrix kernels on seeded random and adversarial operands.
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/sparse_matrix.h"
#include "common/status.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"

namespace xpv {
namespace {

BitMatrix RandomDense(Rng& rng, std::size_t n, std::uint64_t density_pct) {
  BitMatrix m(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.Below(100) < density_pct) m.Set(r, c);
    }
  }
  return m;
}

/// Every row alternates single set bits -- the worst case for run storage
/// (n/2 runs per row), which drives the SpGEMM kernel into its dense
/// accumulator fallback and exhausts small run budgets.
BitMatrix Checkerboard(std::size_t n) {
  BitMatrix m(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r % 2; c < n; c += 2) m.Set(r, c);
  }
  return m;
}

void ExpectSameCells(const SparseBoolMatrix& sparse, const BitMatrix& dense,
                     const char* ctx) {
  ASSERT_EQ(sparse.size(), dense.size()) << ctx;
  EXPECT_EQ(sparse.Count(), dense.Count()) << ctx;
  for (std::size_t r = 0; r < dense.size(); ++r) {
    for (std::size_t c = 0; c < dense.size(); ++c) {
      ASSERT_EQ(sparse.Get(r, c), dense.Get(r, c))
          << ctx << " at (" << r << "," << c << ")";
    }
  }
  Result<BitMatrix> round_trip = sparse.ToDense();
  ASSERT_TRUE(round_trip.ok()) << ctx;
  EXPECT_EQ(*round_trip, dense) << ctx;
}

TEST(SparseMatrixTest, FromDenseRoundTrips) {
  Rng rng(11);
  for (std::size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 130u}) {
    for (std::uint64_t density : {0u, 5u, 50u, 100u}) {
      BitMatrix d = RandomDense(rng, n, density);
      SparseBoolMatrix s = SparseBoolMatrix::FromDense(d);
      EXPECT_EQ(s.name(), "sparse");
      ExpectSameCells(s, d, "FromDense");
    }
  }
}

TEST(SparseMatrixTest, BuilderCoalescesAdjacentAndOverlappingRuns) {
  SparseBoolMatrix::Builder b(10);
  EXPECT_TRUE(b.Append(0, 2, 4));
  EXPECT_TRUE(b.Append(0, 4, 6));   // adjacent: coalesces into [2,6)
  EXPECT_TRUE(b.Append(0, 5, 7));   // overlapping: extends to [2,7)
  EXPECT_TRUE(b.Append(0, 8, 8));   // empty: ignored
  EXPECT_TRUE(b.Append(3, 0, 1));   // skips rows 1-2 (sealed empty)
  EXPECT_EQ(b.num_runs(), 2u);
  Result<SparseBoolMatrix> m = b.Finish();
  ASSERT_TRUE(m.ok());
  BitMatrix expected(10);
  expected.SetRowRange(0, 2, 7);
  expected.Set(3, 0);
  ExpectSameCells(*m, expected, "Builder");
}

TEST(SparseMatrixTest, BuilderAppendBitsExtractsMaximalRuns) {
  Rng rng(13);
  const std::size_t n = 129;
  BitMatrix d = RandomDense(rng, n, 30);
  SparseBoolMatrix::Builder b(n);
  for (std::size_t r = 0; r < n; ++r) {
    ASSERT_TRUE(b.AppendBits(static_cast<std::uint32_t>(r), d.Row(r)));
  }
  Result<SparseBoolMatrix> m = b.Finish();
  ASSERT_TRUE(m.ok());
  ExpectSameCells(*m, d, "AppendBits");
}

TEST(SparseMatrixTest, BuilderBudgetOverflowPoisonsTheBuild) {
  SparseBoolMatrix::Builder b(100, /*max_runs=*/2);
  EXPECT_TRUE(b.Append(0, 0, 2));
  EXPECT_TRUE(b.Append(0, 4, 6));
  EXPECT_FALSE(b.Append(0, 8, 10));  // third disjoint run: over budget
  Result<SparseBoolMatrix> m = b.Finish();
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
}

TEST(SparseMatrixTest, FromBoolBorrowsIntervalBackedAxes) {
  Tree t = *Tree::ParseTerm("a(b(c,a),c(a,b(a)))");
  AxisCache cache(t, AxisBacking::kInterval);
  for (Axis axis : kAllAxes) {
    const BoolMatrix& m = cache.Matrix(axis);
    Result<SparseBoolMatrix> s = SparseBoolMatrix::FromBool(m);
    ASSERT_TRUE(s.ok());
    Result<BitMatrix> d = m.ToDense();
    ASSERT_TRUE(d.ok());
    ExpectSameCells(*s, *d, AxisName(axis).data());
  }
}

/// Densifies through the generic row path -- one RowInto scratch row per
/// matrix row, ORed into a zeroed BitMatrix -- the reference for the
/// run-wise ToDense.
BitMatrix DensifyRowByRow(const BoolMatrix& m) {
  BitMatrix out(m.size());
  BitVector scratch;
  for (std::size_t r = 0; r < m.size(); ++r) {
    m.RowInto(r, scratch);
    out.OrIntoRow(r, scratch);
  }
  return out;
}

void ExpectRunWiseDensifyMatches(const BoolMatrix& m, const char* ctx) {
  ASSERT_NE(m.AsInterval(), nullptr) << ctx;
  Result<BitMatrix> dense = m.ToDense();
  ASSERT_TRUE(dense.ok()) << ctx;
  const BitMatrix reference = DensifyRowByRow(m);
  ASSERT_EQ(dense->size(), m.size()) << ctx;
  for (std::size_t r = 0; r < m.size(); ++r) {
    ASSERT_EQ(dense->Row(r), reference.Row(r)) << ctx << " row " << r;
  }
  EXPECT_EQ(*dense, reference) << ctx;
  EXPECT_EQ(dense->Count(), m.Count()) << ctx;
}

TEST(SparseMatrixTest, RunWiseDensifyMatchesRowPath) {
  Rng rng(31);
  for (std::size_t n : {63u, 64u, 65u, 4097u}) {
    SparseBoolMatrix::Builder b(n);
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint32_t row = static_cast<std::uint32_t>(r);
      switch (r % 5) {
        case 0:
          break;  // empty row
        case 1:
          // One run from mid-word to mid-word, spanning word boundaries
          // whenever the row is wide enough.
          ASSERT_TRUE(b.Append(row, 3, static_cast<std::uint32_t>(n - 2)));
          break;
        case 2:
          // Single cells on and around word boundaries, and the last
          // column (the builder coalesces adjacent cells into one run).
          for (std::size_t c : std::set<std::size_t>{0, 62, 64, n - 1}) {
            if (c < n) {
              ASSERT_TRUE(b.Append(row, static_cast<std::uint32_t>(c),
                                   static_cast<std::uint32_t>(c + 1)));
            }
          }
          break;
        case 3:
          ASSERT_TRUE(b.Append(row, 0, static_cast<std::uint32_t>(n)));
          break;
        default: {
          // Random disjoint runs of random length.
          std::size_t c = rng.Below(70);
          while (c < n) {
            const std::size_t end = std::min(n, c + 1 + rng.Below(150));
            ASSERT_TRUE(b.Append(row, static_cast<std::uint32_t>(c),
                                 static_cast<std::uint32_t>(end)));
            c = end + 1 + rng.Below(100);
          }
        }
      }
    }
    Result<SparseBoolMatrix> m = b.Finish();
    ASSERT_TRUE(m.ok());
    ExpectRunWiseDensifyMatches(*m, "builder runs");
    if (n <= 65) ExpectSameCells(*m, DensifyRowByRow(*m), "builder runs");
  }
  // Interval-backed axis relations take the same path.
  RandomTreeOptions opts;
  opts.num_nodes = 4097;
  Tree t = RandomTree(rng, opts);
  AxisCache cache(t, AxisBacking::kInterval);
  for (Axis axis : kAllAxes) {
    ExpectRunWiseDensifyMatches(cache.Matrix(axis), AxisName(axis).data());
  }
}

TEST(SparseMatrixTest, MultiplyMatchesDenseProduct) {
  Rng rng(17);
  for (std::size_t n : {1u, 7u, 64u, 100u}) {
    for (int trial = 0; trial < 4; ++trial) {
      BitMatrix a = RandomDense(rng, n, 1 + rng.Below(40));
      BitMatrix b = RandomDense(rng, n, 1 + rng.Below(40));
      const BitMatrix truth = a.Multiply(b);
      SparseBoolMatrix sa = SparseBoolMatrix::FromDense(a);
      SparseBoolMatrix sb = SparseBoolMatrix::FromDense(b);
      Result<SparseBoolMatrix> product = sa.Multiply(sb);
      ASSERT_TRUE(product.ok());
      ExpectSameCells(*product, truth, "sparse x sparse");
      EXPECT_EQ(sa.MultiplyDense(b), truth);
      EXPECT_EQ(sb.MultiplyDenseLeft(a), truth);
    }
  }
}

TEST(SparseMatrixTest, MultiplyDenseAccumulatorFallbackIsExact) {
  // Checkerboard rows carry n/2 runs each, far past the per-row gather
  // threshold max(kDenseAccumMinRuns, n / kDenseAccumRunFactor): every
  // output row takes the dense-accumulator path and must still match the
  // dense product bit for bit.
  const std::size_t n = 256;
  BitMatrix a = Checkerboard(n);
  BitMatrix b = Checkerboard(n);
  SparseBoolMatrix sa = SparseBoolMatrix::FromDense(a);
  SparseBoolMatrix sb = SparseBoolMatrix::FromDense(b);
  ASSERT_GT(sa.num_runs() / n,
            SparseBoolMatrix::kDenseAccumMinRuns / 2);  // fallback territory
  Result<SparseBoolMatrix> product = sa.Multiply(sb);
  ASSERT_TRUE(product.ok());
  ExpectSameCells(*product, a.Multiply(b), "fallback product");
}

TEST(SparseMatrixTest, MultiplyRespectsTheRunBudget) {
  const std::size_t n = 128;
  SparseBoolMatrix a = SparseBoolMatrix::FromDense(Checkerboard(n));
  // The checkerboard is idempotent under boolean product, so the result
  // carries n/2 runs per row (n^2/2 total). A budget of n/2 must trip
  // kResourceExhausted, not truncate.
  Result<SparseBoolMatrix> over = a.Multiply(a, /*max_runs=*/n / 2);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  Result<SparseBoolMatrix> under = a.Multiply(a, /*max_runs=*/n * n);
  ASSERT_TRUE(under.ok());
  ExpectSameCells(*under, Checkerboard(n).Multiply(Checkerboard(n)),
                  "budgeted product");
}

TEST(SparseMatrixTest, OrComplementFilterDiagonalMatchDense) {
  Rng rng(23);
  for (std::size_t n : {1u, 65u, 100u}) {
    for (int trial = 0; trial < 4; ++trial) {
      BitMatrix a = RandomDense(rng, n, rng.Below(60));
      BitMatrix b = RandomDense(rng, n, rng.Below(60));
      SparseBoolMatrix sa = SparseBoolMatrix::FromDense(a);
      SparseBoolMatrix sb = SparseBoolMatrix::FromDense(b);
      Result<SparseBoolMatrix> united = sa.Or(sb);
      ASSERT_TRUE(united.ok());
      ExpectSameCells(*united, a.Or(b), "Or");
      ExpectSameCells(sa.Complement(), a.Complement(), "Complement");
      ExpectSameCells(sa.FilterDiagonal(), a.FilterDiagonal(),
                      "FilterDiagonal");
      BitMatrix acc = b;
      sa.OrInto(acc);
      EXPECT_EQ(acc, a.Or(b));
    }
  }
  // Gap inversion edges: complement of empty is full, and involution.
  SparseBoolMatrix empty = SparseBoolMatrix::FromDense(BitMatrix(65));
  ExpectSameCells(empty.Complement(), BitMatrix::Full(65), "empty^c");
  ExpectSameCells(empty.Complement().Complement(), BitMatrix(65), "(m^c)^c");
}

TEST(SparseMatrixTest, ReadKernelsAgreeWithDense) {
  Rng rng(29);
  const std::size_t n = 90;
  BitMatrix d = RandomDense(rng, n, 20);
  SparseBoolMatrix s = SparseBoolMatrix::FromDense(d);
  BitVector from(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Chance(1, 3)) from.Set(i);
  }
  EXPECT_EQ(s.ImageOf(from), d.ImageOf(from));
  EXPECT_EQ(s.NonEmptyRows(), d.NonEmptyRows());
  EXPECT_EQ(s.AndOfRows(from), d.AndOfRows(from));
  EXPECT_EQ(s.RowsContaining(from), d.RowsContaining(from));
  EXPECT_EQ(s.resident_bytes() > 0, d.Count() > 0);
}

}  // namespace
}  // namespace xpv
