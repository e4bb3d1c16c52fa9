// Bit-packed square Boolean matrix over the semiring ({0,1}, OR, AND).
//
// This is the workhorse of the PPLbin evaluation algorithm (Section 4 of the
// paper): a binary query over a tree t is represented as a |t| x |t| Boolean
// matrix M with M[u][u'] = 1 iff (u, u') is selected. The paper's operations
//
//     M_{P1/P2}        = M_{P1} . M_{P2}        (Boolean product)
//     M_{P1 union P2}  = M_{P1} + M_{P2}        (elementwise OR)
//     M_{except P}     = not M_P                (elementwise complement)
//     M_{[P]}          = [M_P]                  (diagonal of nonempty rows)
//
// are all provided here. Rows are packed 64 bits per word, so the naive
// cubic product runs in |t|^3 / 64 word operations -- the practical analogue
// of the paper's remark that fast Boolean matrix multiplication
// (Coppersmith-Winograd) improves the exponent below 3.
#ifndef XPV_COMMON_BIT_MATRIX_H_
#define XPV_COMMON_BIT_MATRIX_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace xpv {

/// Bit-packed vector of booleans of fixed size; one row of a BitMatrix,
/// also used standalone for node sets.
class BitVector {
 public:
  BitVector() : size_(0) {}
  explicit BitVector(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }

  bool Get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(std::size_t i) { words_[i >> 6] |= (std::uint64_t{1} << (i & 63)); }
  void Reset(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void Assign(std::size_t i, bool v) {
    if (v) {
      Set(i);
    } else {
      Reset(i);
    }
  }

  /// Sets all bits to 0.
  void Clear();
  /// Sets all bits in [0, size) to 1.
  void Fill();
  /// Sets all bits in [begin, end) to 1, whole words at a time.
  void SetRange(std::size_t begin, std::size_t end);
  /// Sets all bits in [begin, end) to 0, whole words at a time.
  void ClearRange(std::size_t begin, std::size_t end);
  /// True iff any bit in [begin, end) is set, whole words at a time.
  bool AnyInRange(std::size_t begin, std::size_t end) const;

  /// Elementwise operations; both operands must have equal size.
  void OrWith(const BitVector& other);
  void AndWith(const BitVector& other);
  void AndNotWith(const BitVector& other);  // this &= ~other
  /// Complements every bit (within [0, size)).
  void Complement();

  /// True iff no bit is set.
  bool None() const;
  /// True iff any bit is set.
  bool Any() const { return !None(); }
  /// Number of set bits.
  std::size_t Count() const;

  /// Index of the first set bit, or size() when none.
  std::size_t FirstSet() const;
  /// Index of the first set bit at position >= from, or size() when none.
  std::size_t NextSet(std::size_t from) const;
  /// Index of the first UNSET bit at position >= from, or size() when
  /// none. With NextSet this walks maximal runs of set bits word-at-a-time
  /// (the run-extraction loop of common/sparse_matrix.h).
  std::size_t NextUnset(std::size_t from) const;

  /// Invokes fn(i) for every set bit index i in increasing order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Collects set bit indices into a vector.
  std::vector<std::uint32_t> ToIndices() const;

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t>& mutable_words() { return words_; }

 private:
  /// Zeroes bits at positions >= size_ in the last word so that whole-word
  /// operations (complement, equality, counting) stay canonical.
  void ClearPadding();

  std::size_t size_;
  std::vector<std::uint64_t> words_;
};

/// BitMatrix storage: a fixed-size heap array of 64-bit words. A new
/// array comes from calloc and is never written on construction, so a
/// large matrix maps the OS's zero pages and pays only for the pages its
/// bits later touch (a small one gets calloc's memset of a recycled
/// chunk). A copy takes malloc'd memory and copies into it, so it writes
/// each word once instead of zero-filling first. Like std::vector it
/// holds two pointers, which word stores cannot alias, so loops bounded
/// by size() keep their bound in a register.
class ZeroedWords {
 public:
  ZeroedWords() = default;
  explicit ZeroedWords(std::size_t size)
      : ZeroedWords(Checked(std::calloc(size, kWordBytes), size), size) {}
  ZeroedWords(const ZeroedWords& other)
      : ZeroedWords(Checked(std::malloc(other.size() * kWordBytes),
                            other.size()),
                    other.size()) {
    std::copy(other.begin(), other.end(), begin_);
  }
  ZeroedWords(ZeroedWords&& other) noexcept
      : begin_(std::exchange(other.begin_, nullptr)),
        end_(std::exchange(other.end_, nullptr)) {}
  /// Copy-and-swap: serves copy and move assignment alike.
  ZeroedWords& operator=(ZeroedWords other) noexcept {
    std::swap(begin_, other.begin_);
    std::swap(end_, other.end_);
    return *this;
  }
  ~ZeroedWords() { std::free(begin_); }

  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  std::uint64_t* begin() { return begin_; }
  std::uint64_t* end() { return end_; }
  const std::uint64_t* begin() const { return begin_; }
  const std::uint64_t* end() const { return end_; }
  std::uint64_t& operator[](std::size_t i) { return begin_[i]; }
  const std::uint64_t& operator[](std::size_t i) const { return begin_[i]; }

  bool operator==(const ZeroedWords& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  static constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

  ZeroedWords(std::uint64_t* words, std::size_t size)
      : begin_(words), end_(words + size) {}
  static std::uint64_t* Checked(void* p, std::size_t size) {
    if (p == nullptr && size != 0) throw std::bad_alloc();
    return static_cast<std::uint64_t*>(p);
  }

  std::uint64_t* begin_ = nullptr;
  std::uint64_t* end_ = nullptr;
};

/// Square Boolean matrix with bit-packed rows.
class BitMatrix {
 public:
  /// Hard ceiling on the dimension of a dense |t| x |t| materialization.
  /// An n x n BitMatrix costs n^2 bits -- 128 MiB at this limit, but a
  /// silent ~125 GB allocation at n = 1M. Construction beyond the limit
  /// must go through Create(), which refuses with kResourceExhausted;
  /// the planner uses the same constant to refuse plans that would
  /// materialize a dense relation on oversized trees (engine/planner.h).
  static constexpr std::size_t kMaxDenseNodes = std::size_t{1} << 15;

  BitMatrix() : n_(0), words_per_row_(0) {}
  explicit BitMatrix(std::size_t n)
      : n_(n), words_per_row_((n + 63) / 64), words_(n * words_per_row_) {}

  /// Fallible construction: refuses dimensions beyond kMaxDenseNodes with
  /// kResourceExhausted instead of attempting the O(n^2)-bit allocation.
  /// Entry points whose dimension is data-dependent (axis caches, engine
  /// boundaries) use this; fixed-small-n internal call sites may still
  /// construct directly.
  static Result<BitMatrix> Create(std::size_t n);

  /// Identity relation {(v, v)}.
  static BitMatrix Identity(std::size_t n);
  /// Full relation nodes x nodes.
  static BitMatrix Full(std::size_t n);

  std::size_t size() const { return n_; }
  /// Heap bytes reserved for the bit-packed payload (n * ceil(n/64)
  /// words): an upper bound on what is resident, since zero pages that
  /// were never written stay unmapped.
  std::size_t resident_bytes() const {
    return words_.size() * sizeof(std::uint64_t);
  }

  bool Get(std::size_t row, std::size_t col) const {
    return (words_[row * words_per_row_ + (col >> 6)] >> (col & 63)) & 1u;
  }
  void Set(std::size_t row, std::size_t col) {
    words_[row * words_per_row_ + (col >> 6)] |=
        (std::uint64_t{1} << (col & 63));
  }
  void Reset(std::size_t row, std::size_t col) {
    words_[row * words_per_row_ + (col >> 6)] &=
        ~(std::uint64_t{1} << (col & 63));
  }

  /// Boolean matrix product: this . other. Runs in O(n^3 / 64) word ops by
  /// OR-ing whole rows of `other` for each set bit of a row of `this`.
  BitMatrix Multiply(const BitMatrix& other) const;
  /// Naive O(n^3) bit-at-a-time product; reference implementation used in
  /// tests and in the matrix-multiplication ablation benchmark.
  BitMatrix MultiplyNaive(const BitMatrix& other) const;

  /// Elementwise OR / AND / AND-NOT.
  BitMatrix Or(const BitMatrix& other) const;
  BitMatrix And(const BitMatrix& other) const;
  BitMatrix AndNot(const BitMatrix& other) const;
  /// Elementwise complement (the paper's `except P`).
  BitMatrix Complement() const;
  /// The paper's [M]: diagonal matrix with [M][u][u] = 1 iff row u of M is
  /// nonempty (used for filter expressions P[T]).
  BitMatrix FilterDiagonal() const;
  /// Transpose (inverse relation).
  BitMatrix Transpose() const;

  /// Restricts to rows whose index is in `rows` (other rows zeroed).
  BitMatrix SelectRows(const BitVector& rows) const;
  /// Clears every cell whose column is not in `cols` (name-test masking).
  BitMatrix MaskColumns(const BitVector& cols) const;
  /// In-place variant of MaskColumns (no whole-matrix copy).
  void MaskColumnsInPlace(const BitVector& cols);

  /// OR of all rows: set of columns reachable from any row.
  BitVector ColumnUnion() const;
  /// Set of rows with at least one set bit (the domain of the relation).
  BitVector NonEmptyRows() const;
  /// image(N) = { u' | exists u in N, M[u][u'] }.
  BitVector ImageOf(const BitVector& rows) const;
  /// AND of the rows selected by `rows` (all-ones for an empty selection,
  /// the AND identity). Complementing the result gives the image of a
  /// node set under the complemented relation without materializing it:
  /// image(not M, N)[v] = OR_{u in N} not M[u][v] = not AndOfRows(N)[v].
  BitVector AndOfRows(const BitVector& rows) const;
  /// Rows whose row set contains every column of `cols` (all rows for an
  /// empty `cols`). Complementing the result gives the preimage of a node
  /// set under the complemented relation: u has some v in cols with
  /// not M[u][v] iff row u does not contain cols.
  BitVector RowsContaining(const BitVector& cols) const;

  /// Number of set cells.
  std::size_t Count() const;
  /// True iff no cell is set.
  bool None() const;

  /// Row `row` as a BitVector copy.
  BitVector Row(std::size_t row) const;
  /// Copies row `row` into `out`, resizing it to size() if needed (no
  /// temporary allocation when `out` already has the right size).
  void CopyRowInto(std::size_t row, BitVector& out) const;
  /// True iff row `row` shares a set column with `v` (no row copy).
  bool RowIntersects(std::size_t row, const BitVector& v) const;
  /// ORs `v` into row `row`.
  void OrIntoRow(std::size_t row, const BitVector& v);
  /// ORs row `src` into row `dst` in place (no temporary row copy).
  void OrRowIntoRow(std::size_t dst, std::size_t src);
  /// ORs row `src_row` of `src` into row `dst` of this matrix,
  /// word-parallel with no temporary copy (cross-matrix row accumulation:
  /// the sparse x dense product kernel). Both matrices must be same-size.
  void OrRowFrom(std::size_t dst, const BitMatrix& src, std::size_t src_row);
  /// Sets all cells (row, c) for c in [begin, end), whole words at a time.
  void SetRowRange(std::size_t row, std::size_t begin, std::size_t end);
  /// Invokes fn(col) for every set bit of `row`.
  template <typename Fn>
  void ForEachInRow(std::size_t row, Fn&& fn) const {
    const std::uint64_t* base = &words_[row * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t bits = base[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  bool operator==(const BitMatrix& other) const {
    return n_ == other.n_ && words_ == other.words_;
  }

  /// Multi-line 0/1 dump for debugging and test failure messages.
  std::string ToString() const;

 private:
  void ClearRowPadding(std::size_t row);

  std::size_t n_;
  std::size_t words_per_row_;
  ZeroedWords words_;
};

}  // namespace xpv

#endif  // XPV_COMMON_BIT_MATRIX_H_
