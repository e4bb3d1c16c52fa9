// Abstract square Boolean matrix: the representation-agnostic view of a
// binary relation over tree nodes.
//
// The paper's Section-4 evaluation treats every binary query as a
// |t| x |t| Boolean matrix. Materializing the 7 axis relations densely
// costs O(|t|^2) bits, which is the binding scale constraint; but on a
// pre-order-numbered tree the axis relations are *interval-structured* --
// a subtree is the contiguous id range [v, v + SubtreeSize(v)), so a
// descendant row is a single interval and ancestor / sibling rows are
// unions of a few runs. This header splits the representation from the
// consumers:
//
//   BoolMatrix        -- the interface: cell probes, row materialization
//                        (single and batched), and the word-parallel set
//                        kernels the engines use (ImageOf, AndOfRows,
//                        RowsContaining), plus resident_bytes() so cache
//                        accounting reflects the actual representation.
//   DenseBoolMatrix   -- adapter over the bit-packed BitMatrix; stays the
//                        representation for composed and intermediate
//                        matrices (products, complements) and for small
//                        trees where a row is a handful of words.
//   IntervalMatrix    -- CSR-style sorted run lists, O(total runs) space;
//                        rows materialize lazily into caller-pooled
//                        BitVector scratch, and the kernels run directly
//                        on the runs (SetRange / ClearRange / AnyInRange)
//                        without ever expanding the whole relation.
#ifndef XPV_COMMON_BOOL_MATRIX_H_
#define XPV_COMMON_BOOL_MATRIX_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bit_matrix.h"
#include "common/status.h"

namespace xpv {

class IntervalMatrix;

/// Interface over square Boolean matrices. All row/column indexes are in
/// [0, size()); implementations are immutable once built and safe to read
/// concurrently.
class BoolMatrix {
 public:
  virtual ~BoolMatrix() = default;

  /// Matrix dimension (number of tree nodes).
  virtual std::size_t size() const = 0;
  /// Heap bytes held by this representation (payload only; excludes the
  /// object header). Drives AxisCache::approx_resident_bytes() and the
  /// DocumentStore hot-cache LRU budget.
  virtual std::size_t resident_bytes() const = 0;
  /// Representation name for stats and bench counters: "dense",
  /// "interval" or "sparse".
  virtual std::string_view name() const = 0;

  /// Single-cell probe.
  virtual bool Get(std::size_t row, std::size_t col) const = 0;

  /// Materializes one row into `out`, resizing it to size() if needed.
  /// Hot loops pass the same `out` every call -- that reused vector is
  /// the pooled scratch; no per-row allocation happens after the first.
  virtual void RowInto(std::size_t row, BitVector& out) const = 0;
  /// Row `row` as a freshly allocated BitVector.
  BitVector Row(std::size_t row) const;
  /// Batched row materialization (the metagraph get_rows idiom): one
  /// output allocation per requested row, shared decode state inside the
  /// implementation where that helps.
  virtual std::vector<BitVector> Rows(
      const std::vector<std::uint32_t>& rows) const;

  // Word-parallel set kernels. Defaults are generic over RowInto with one
  // pooled scratch row; both implementations override them with direct
  // word (dense) or run (interval) loops.

  /// image(N) = { v | exists u in N, M[u][v] }.
  virtual BitVector ImageOf(const BitVector& rows) const;
  /// AND of the rows selected by `rows` (all-ones for an empty selection,
  /// the AND identity). Complementing the result gives the image of a
  /// node set under the complemented relation without materializing it.
  virtual BitVector AndOfRows(const BitVector& rows) const;
  /// Rows whose row set contains every column of `cols` (all rows for an
  /// empty `cols`). Complementing the result gives the preimage of a
  /// node set under the complemented relation.
  virtual BitVector RowsContaining(const BitVector& cols) const;
  /// Set of rows with at least one set bit (the domain of the relation).
  virtual BitVector NonEmptyRows() const;
  /// Number of set cells.
  virtual std::size_t Count() const = 0;

  /// The backing BitMatrix when this is a dense representation, nullptr
  /// otherwise. Lets dense-path consumers borrow the matrix without a
  /// copy.
  virtual const BitMatrix* AsDense() const { return nullptr; }

  /// The CSR run-list view when this is an interval-structured
  /// representation (IntervalMatrix or its SparseBoolMatrix subclass),
  /// nullptr otherwise. Lets run-native consumers (the sparse composition
  /// kernels in common/sparse_matrix.h) borrow the runs without a copy.
  virtual const IntervalMatrix* AsInterval() const { return nullptr; }

  /// Dense copy of this relation. Fails with kResourceExhausted beyond
  /// BitMatrix::kMaxDenseNodes -- callers on the full-relation path are
  /// gated by the planner (engine/planner.h) before reaching this.
  /// Run-list representations write run by run: O(n + runs) after the
  /// allocation.
  Result<BitMatrix> ToDense() const;
};

/// Dense implementation: owns a bit-packed BitMatrix.
class DenseBoolMatrix final : public BoolMatrix {
 public:
  explicit DenseBoolMatrix(BitMatrix m) : m_(std::move(m)) {}

  std::size_t size() const override { return m_.size(); }
  std::size_t resident_bytes() const override { return m_.resident_bytes(); }
  std::string_view name() const override { return "dense"; }

  bool Get(std::size_t row, std::size_t col) const override {
    return m_.Get(row, col);
  }
  void RowInto(std::size_t row, BitVector& out) const override;

  BitVector ImageOf(const BitVector& rows) const override {
    return m_.ImageOf(rows);
  }
  BitVector AndOfRows(const BitVector& rows) const override {
    return m_.AndOfRows(rows);
  }
  BitVector RowsContaining(const BitVector& cols) const override {
    return m_.RowsContaining(cols);
  }
  BitVector NonEmptyRows() const override { return m_.NonEmptyRows(); }
  std::size_t Count() const override { return m_.Count(); }

  const BitMatrix* AsDense() const override { return &m_; }

 private:
  BitMatrix m_;
};

/// One maximal run of set columns [begin, end) in a row.
struct IntervalRun {
  std::uint32_t begin;
  std::uint32_t end;

  bool operator==(const IntervalRun&) const = default;
};

/// Succinct implementation: per-row sorted, disjoint, non-adjacent run
/// lists in CSR layout -- row r's runs are runs_[row_offset_[r] ..
/// row_offset_[r+1]). Space is O(total runs); the axis builders in
/// tree/axes.cc emit O(|t|) runs for every axis except ancestor and the
/// sibling axes, which are bounded by O(|t| * depth) resp. O(|t| *
/// non-leaf-sibling count) and stay near-linear on realistic shapes.
///
/// Kernel costs trade the dense words-per-row factor for runs-per-row:
/// ImageOf / AndOfRows touch only the selected rows' runs (plus the
/// words they cover), and RowsContaining rejects most rows with two O(1)
/// span tests before scanning any gap.
class IntervalMatrix : public BoolMatrix {
 public:
  /// Takes ownership of a prebuilt CSR: row_offset has size n + 1, runs
  /// per row are sorted, disjoint and non-adjacent (maximal).
  IntervalMatrix(std::size_t n, std::vector<std::uint32_t> row_offset,
                 std::vector<IntervalRun> runs);

  std::size_t size() const override { return n_; }
  std::size_t resident_bytes() const override {
    return row_offset_.size() * sizeof(std::uint32_t) +
           runs_.size() * sizeof(IntervalRun);
  }
  std::string_view name() const override { return "interval"; }

  bool Get(std::size_t row, std::size_t col) const override;
  void RowInto(std::size_t row, BitVector& out) const override;

  BitVector ImageOf(const BitVector& rows) const override;
  BitVector AndOfRows(const BitVector& rows) const override;
  BitVector RowsContaining(const BitVector& cols) const override;
  BitVector NonEmptyRows() const override;
  std::size_t Count() const override;

  const IntervalMatrix* AsInterval() const override { return this; }

  /// Total number of stored runs (bench counter).
  std::size_t num_runs() const { return runs_.size(); }
  /// Runs of one row, for tests and direct consumers.
  std::pair<const IntervalRun*, const IntervalRun*> RunsOf(
      std::size_t row) const {
    return {runs_.data() + row_offset_[row],
            runs_.data() + row_offset_[row + 1]};
  }

 private:
  std::size_t n_;
  std::vector<std::uint32_t> row_offset_;  // size n_ + 1
  std::vector<IntervalRun> runs_;
};

}  // namespace xpv

#endif  // XPV_COMMON_BOOL_MATRIX_H_
