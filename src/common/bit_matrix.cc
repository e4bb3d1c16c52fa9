#include "common/bit_matrix.h"

#include <algorithm>
#include <cassert>

namespace xpv {

namespace {

/// Sets bits [begin, end) in a packed word array, whole words at a time.
/// Callers guarantee end fits in the array and begin < end.
void SetWordRange(std::uint64_t* words, std::size_t begin, std::size_t end) {
  const std::size_t wb = begin >> 6;
  const std::size_t we = (end - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (begin & 63);
  const std::uint64_t last =
      (end & 63) == 0 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (end & 63)) - 1;
  if (wb == we) {
    words[wb] |= first & last;
    return;
  }
  words[wb] |= first;
  for (std::size_t w = wb + 1; w < we; ++w) words[w] = ~std::uint64_t{0};
  words[we] |= last;
}

/// Clears bits [begin, end) in a packed word array, whole words at a time.
/// Callers guarantee end fits in the array and begin < end.
void ClearWordRange(std::uint64_t* words, std::size_t begin, std::size_t end) {
  const std::size_t wb = begin >> 6;
  const std::size_t we = (end - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (begin & 63);
  const std::uint64_t last =
      (end & 63) == 0 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (end & 63)) - 1;
  if (wb == we) {
    words[wb] &= ~(first & last);
    return;
  }
  words[wb] &= ~first;
  for (std::size_t w = wb + 1; w < we; ++w) words[w] = 0;
  words[we] &= ~last;
}

}  // namespace

void BitVector::Clear() { std::fill(words_.begin(), words_.end(), 0); }

void BitVector::Fill() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  ClearPadding();
}

void BitVector::SetRange(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  assert(end <= size_);
  SetWordRange(words_.data(), begin, end);
}

void BitVector::ClearRange(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  assert(end <= size_);
  ClearWordRange(words_.data(), begin, end);
}

bool BitVector::AnyInRange(std::size_t begin, std::size_t end) const {
  if (begin >= end) return false;
  assert(end <= size_);
  const std::size_t wb = begin >> 6;
  const std::size_t we = (end - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (begin & 63);
  const std::uint64_t last =
      (end & 63) == 0 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (end & 63)) - 1;
  if (wb == we) return (words_[wb] & first & last) != 0;
  if ((words_[wb] & first) != 0) return true;
  for (std::size_t w = wb + 1; w < we; ++w) {
    if (words_[w] != 0) return true;
  }
  return (words_[we] & last) != 0;
}

void BitVector::ClearPadding() {
  if (size_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << (size_ % 64)) - 1;
  }
}

void BitVector::OrWith(const BitVector& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BitVector::AndWith(const BitVector& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void BitVector::AndNotWith(const BitVector& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

void BitVector::Complement() {
  for (auto& w : words_) w = ~w;
  ClearPadding();
}

bool BitVector::None() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

std::size_t BitVector::Count() const {
  std::size_t count = 0;
  for (auto w : words_) count += static_cast<std::size_t>(__builtin_popcountll(w));
  return count;
}

std::size_t BitVector::FirstSet() const { return NextSet(0); }

std::size_t BitVector::NextSet(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t w = from >> 6;
  std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) {
      return w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
    }
    if (++w >= words_.size()) return size_;
    bits = words_[w];
  }
}

std::size_t BitVector::NextUnset(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t w = from >> 6;
  std::uint64_t bits = ~words_[w] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) {
      // Padding bits past size_ are stored as 0, so their complement can
      // report an unset position beyond the end; clamp it.
      return std::min(
          size_, w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
    }
    if (++w >= words_.size()) return size_;
    bits = ~words_[w];
  }
}

std::vector<std::uint32_t> BitVector::ToIndices() const {
  std::vector<std::uint32_t> out;
  out.reserve(Count());
  ForEachSet([&](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
  return out;
}

Result<BitMatrix> BitMatrix::Create(std::size_t n) {
  if (n > kMaxDenseNodes) {
    return Status::ResourceExhausted(
        "dense BitMatrix of dimension " + std::to_string(n) + " exceeds the " +
        std::to_string(kMaxDenseNodes) +
        "-node ceiling (" + std::to_string(n * ((n + 63) / 64) * 8) +
        " bytes); use an interval-backed axis relation instead");
  }
  return BitMatrix(n);
}

BitMatrix BitMatrix::Identity(std::size_t n) {
  BitMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) m.Set(i, i);
  return m;
}

BitMatrix BitMatrix::Full(std::size_t n) {
  BitMatrix m(n);
  std::fill(m.words_.begin(), m.words_.end(), ~std::uint64_t{0});
  for (std::size_t r = 0; r < n; ++r) m.ClearRowPadding(r);
  return m;
}

void BitMatrix::ClearRowPadding(std::size_t row) {
  if (n_ % 64 != 0 && words_per_row_ > 0) {
    words_[row * words_per_row_ + words_per_row_ - 1] &=
        (std::uint64_t{1} << (n_ % 64)) - 1;
  }
}

BitMatrix BitMatrix::Multiply(const BitMatrix& other) const {
  assert(n_ == other.n_);
  BitMatrix out(n_);
  if (n_ == 0) return out;
  // Row-OR product, blocked over bands of `other` rows so that the band
  // stays cache-resident while every row of `this` scans it: out[r] is the
  // OR of other[k] over all set bits k of row r. The extra passes over
  // `this` cost n^2/64 words per band -- negligible against the n^3/64
  // word OR volume they localize.
  // Locals, not members: the OR stores below are uint64_t writes, which
  // could alias a size_t member and force a reload on every word.
  constexpr std::size_t kBandRows = 512;
  const std::size_t n = n_;
  const std::size_t words_per_row = words_per_row_;
  std::uint64_t* const out_words = out.words_.begin();
  const std::uint64_t* const this_words = words_.begin();
  const std::uint64_t* const other_words = other.words_.begin();
  for (std::size_t k0 = 0; k0 < n; k0 += kBandRows) {
    const std::size_t k1 = std::min(n, k0 + kBandRows);
    const std::size_t w0 = k0 >> 6;
    const std::size_t w1 = (k1 + 63) >> 6;
    for (std::size_t r = 0; r < n; ++r) {
      std::uint64_t* out_row = out_words + r * words_per_row;
      const std::uint64_t* this_row = this_words + r * words_per_row;
      for (std::size_t w = w0; w < w1; ++w) {
        std::uint64_t bits = this_row[w];
        // Trim the first/last word of the band to [k0, k1).
        if (w == w0 && (k0 & 63) != 0) bits &= ~std::uint64_t{0} << (k0 & 63);
        if (w == w1 - 1 && (k1 & 63) != 0) {
          bits &= (std::uint64_t{1} << (k1 & 63)) - 1;
        }
        while (bits != 0) {
          const std::size_t k =
              w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          const std::uint64_t* other_row = other_words + k * words_per_row;
          for (std::size_t j = 0; j < words_per_row; ++j) {
            out_row[j] |= other_row[j];
          }
        }
      }
    }
  }
  return out;
}

BitMatrix BitMatrix::MultiplyNaive(const BitMatrix& other) const {
  assert(n_ == other.n_);
  BitMatrix out(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t c = 0; c < n_; ++c) {
      for (std::size_t k = 0; k < n_; ++k) {
        if (Get(r, k) && other.Get(k, c)) {
          out.Set(r, c);
          break;
        }
      }
    }
  }
  return out;
}

BitMatrix BitMatrix::Or(const BitMatrix& other) const {
  assert(n_ == other.n_);
  BitMatrix out = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] |= other.words_[i];
  return out;
}

BitMatrix BitMatrix::And(const BitMatrix& other) const {
  assert(n_ == other.n_);
  BitMatrix out = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] &= other.words_[i];
  return out;
}

BitMatrix BitMatrix::AndNot(const BitMatrix& other) const {
  assert(n_ == other.n_);
  BitMatrix out = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] &= ~other.words_[i];
  return out;
}

BitMatrix BitMatrix::Complement() const {
  BitMatrix out = *this;
  for (auto& w : out.words_) w = ~w;
  for (std::size_t r = 0; r < n_; ++r) out.ClearRowPadding(r);
  return out;
}

BitMatrix BitMatrix::FilterDiagonal() const {
  BitMatrix out(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::uint64_t* row = &words_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      if (row[w] != 0) {
        out.Set(r, r);
        break;
      }
    }
  }
  return out;
}

namespace {

// In-place transpose of a 64x64 bit block, bit b of x[k] = element (k, b):
// recursive delta-swap of off-diagonal sub-blocks (Hacker's Delight 7-3),
// 6 rounds of word-parallel exchanges instead of 4096 single-bit probes.
void Transpose64(std::uint64_t x[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
      x[k + j] ^= t;
      x[k] ^= t << j;
    }
  }
}

}  // namespace

BitMatrix BitMatrix::Transpose() const {
  BitMatrix out(n_);
  const std::size_t blocks = (n_ + 63) / 64;
  std::uint64_t buf[64];
  for (std::size_t rb = 0; rb < blocks; ++rb) {
    const std::size_t rows = std::min<std::size_t>(64, n_ - rb * 64);
    for (std::size_t cb = 0; cb < blocks; ++cb) {
      for (std::size_t i = 0; i < rows; ++i) {
        buf[i] = words_[(rb * 64 + i) * words_per_row_ + cb];
      }
      std::fill(buf + rows, buf + 64, 0);
      Transpose64(buf);
      const std::size_t cols = std::min<std::size_t>(64, n_ - cb * 64);
      for (std::size_t j = 0; j < cols; ++j) {
        out.words_[(cb * 64 + j) * words_per_row_ + rb] = buf[j];
      }
    }
  }
  return out;
}

BitMatrix BitMatrix::SelectRows(const BitVector& rows) const {
  assert(rows.size() == n_);
  BitMatrix out(n_);
  rows.ForEachSet([&](std::size_t r) {
    std::copy(words_.begin() + static_cast<std::ptrdiff_t>(r * words_per_row_),
              words_.begin() + static_cast<std::ptrdiff_t>((r + 1) * words_per_row_),
              out.words_.begin() + static_cast<std::ptrdiff_t>(r * words_per_row_));
  });
  return out;
}

BitMatrix BitMatrix::MaskColumns(const BitVector& cols) const {
  assert(cols.size() == n_);
  BitMatrix out = *this;
  for (std::size_t r = 0; r < n_; ++r) {
    std::uint64_t* row = &out.words_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) row[w] &= cols.words()[w];
  }
  return out;
}

void BitMatrix::MaskColumnsInPlace(const BitVector& cols) {
  assert(cols.size() == n_);
  for (std::size_t r = 0; r < n_; ++r) {
    std::uint64_t* row = &words_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) row[w] &= cols.words()[w];
  }
}

BitVector BitMatrix::ColumnUnion() const {
  BitVector out(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::uint64_t* row = &words_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      out.mutable_words()[w] |= row[w];
    }
  }
  return out;
}

BitVector BitMatrix::NonEmptyRows() const {
  BitVector out(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::uint64_t* row = &words_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      if (row[w] != 0) {
        out.Set(r);
        break;
      }
    }
  }
  return out;
}

BitVector BitMatrix::ImageOf(const BitVector& rows) const {
  assert(rows.size() == n_);
  BitVector out(n_);
  rows.ForEachSet([&](std::size_t r) {
    const std::uint64_t* row = &words_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      out.mutable_words()[w] |= row[w];
    }
  });
  return out;
}

BitVector BitMatrix::AndOfRows(const BitVector& rows) const {
  assert(rows.size() == n_);
  BitVector out(n_);
  out.Fill();
  rows.ForEachSet([&](std::size_t r) {
    const std::uint64_t* row = &words_[r * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      out.mutable_words()[w] &= row[w];
    }
  });
  return out;
}

BitVector BitMatrix::RowsContaining(const BitVector& cols) const {
  assert(cols.size() == n_);
  BitVector out(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::uint64_t* row = &words_[r * words_per_row_];
    bool contains = true;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      if ((cols.words()[w] & ~row[w]) != 0) {
        contains = false;
        break;
      }
    }
    if (contains) out.Set(r);
  }
  return out;
}

std::size_t BitMatrix::Count() const {
  std::size_t count = 0;
  for (auto w : words_) count += static_cast<std::size_t>(__builtin_popcountll(w));
  return count;
}

bool BitMatrix::None() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

BitVector BitMatrix::Row(std::size_t row) const {
  BitVector out(n_);
  std::copy(words_.begin() + static_cast<std::ptrdiff_t>(row * words_per_row_),
            words_.begin() + static_cast<std::ptrdiff_t>((row + 1) * words_per_row_),
            out.mutable_words().begin());
  return out;
}

void BitMatrix::CopyRowInto(std::size_t row, BitVector& out) const {
  if (out.size() != n_) out = BitVector(n_);
  std::copy(words_.begin() + static_cast<std::ptrdiff_t>(row * words_per_row_),
            words_.begin() + static_cast<std::ptrdiff_t>((row + 1) * words_per_row_),
            out.mutable_words().begin());
}

bool BitMatrix::RowIntersects(std::size_t row, const BitVector& v) const {
  assert(v.size() == n_);
  const std::uint64_t* base = &words_[row * words_per_row_];
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    if ((base[w] & v.words()[w]) != 0) return true;
  }
  return false;
}

void BitMatrix::OrIntoRow(std::size_t row, const BitVector& v) {
  assert(v.size() == n_);
  std::uint64_t* dst = &words_[row * words_per_row_];
  for (std::size_t w = 0; w < words_per_row_; ++w) dst[w] |= v.words()[w];
}

void BitMatrix::OrRowIntoRow(std::size_t dst, std::size_t src) {
  std::uint64_t* d = &words_[dst * words_per_row_];
  const std::uint64_t* s = &words_[src * words_per_row_];
  for (std::size_t w = 0; w < words_per_row_; ++w) d[w] |= s[w];
}

void BitMatrix::OrRowFrom(std::size_t dst, const BitMatrix& src,
                          std::size_t src_row) {
  assert(n_ == src.n_);
  std::uint64_t* d = &words_[dst * words_per_row_];
  const std::uint64_t* s = &src.words_[src_row * words_per_row_];
  for (std::size_t w = 0; w < words_per_row_; ++w) d[w] |= s[w];
}

void BitMatrix::SetRowRange(std::size_t row, std::size_t begin,
                            std::size_t end) {
  if (begin >= end) return;
  assert(end <= n_);
  SetWordRange(&words_[row * words_per_row_], begin, end);
}

std::string BitMatrix::ToString() const {
  std::string out;
  out.reserve(n_ * (n_ + 1));
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t c = 0; c < n_; ++c) out.push_back(Get(r, c) ? '1' : '0');
    out.push_back('\n');
  }
  return out;
}

}  // namespace xpv
