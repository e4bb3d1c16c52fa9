#include "common/bool_matrix.h"

#include <algorithm>
#include <cassert>

namespace xpv {

namespace {

/// Index of the last set bit of `v`; callers guarantee v.Any().
std::size_t LastSet(const BitVector& v) {
  const auto& words = v.words();
  for (std::size_t w = words.size(); w-- > 0;) {
    if (words[w] != 0) {
      return w * 64 + 63 -
             static_cast<std::size_t>(__builtin_clzll(words[w]));
    }
  }
  assert(false && "LastSet on empty vector");
  return 0;
}

}  // namespace

BitVector BoolMatrix::Row(std::size_t row) const {
  BitVector out(size());
  RowInto(row, out);
  return out;
}

std::vector<BitVector> BoolMatrix::Rows(
    const std::vector<std::uint32_t>& rows) const {
  std::vector<BitVector> out;
  out.reserve(rows.size());
  for (std::uint32_t r : rows) {
    out.emplace_back(size());
    RowInto(r, out.back());
  }
  return out;
}

BitVector BoolMatrix::ImageOf(const BitVector& rows) const {
  assert(rows.size() == size());
  BitVector out(size());
  BitVector scratch;
  rows.ForEachSet([&](std::size_t r) {
    RowInto(r, scratch);
    out.OrWith(scratch);
  });
  return out;
}

BitVector BoolMatrix::AndOfRows(const BitVector& rows) const {
  assert(rows.size() == size());
  BitVector out(size());
  out.Fill();
  BitVector scratch;
  rows.ForEachSet([&](std::size_t r) {
    RowInto(r, scratch);
    out.AndWith(scratch);
  });
  return out;
}

BitVector BoolMatrix::RowsContaining(const BitVector& cols) const {
  assert(cols.size() == size());
  BitVector out(size());
  BitVector scratch;
  for (std::size_t r = 0; r < size(); ++r) {
    RowInto(r, scratch);
    scratch.Complement();
    scratch.AndWith(cols);
    if (scratch.None()) out.Set(r);
  }
  return out;
}

BitVector BoolMatrix::NonEmptyRows() const {
  BitVector out(size());
  BitVector scratch;
  for (std::size_t r = 0; r < size(); ++r) {
    RowInto(r, scratch);
    if (scratch.Any()) out.Set(r);
  }
  return out;
}

Result<BitMatrix> BoolMatrix::ToDense() const {
  if (const BitMatrix* dense = AsDense()) return *dense;
  XPV_ASSIGN_OR_RETURN(BitMatrix out, BitMatrix::Create(size()));
  // Every other representation is a run list: write each run straight
  // into the zeroed matrix -- O(n + runs) after the allocation.
  const IntervalMatrix* runs = AsInterval();
  assert(runs != nullptr);
  for (std::size_t r = 0; r < size(); ++r) {
    auto [first, last] = runs->RunsOf(r);
    for (auto it = first; it != last; ++it) {
      out.SetRowRange(r, it->begin, it->end);
    }
  }
  return out;
}

void DenseBoolMatrix::RowInto(std::size_t row, BitVector& out) const {
  m_.CopyRowInto(row, out);
}

IntervalMatrix::IntervalMatrix(std::size_t n,
                               std::vector<std::uint32_t> row_offset,
                               std::vector<IntervalRun> runs)
    : n_(n), row_offset_(std::move(row_offset)), runs_(std::move(runs)) {
  assert(row_offset_.size() == n_ + 1);
  assert(row_offset_.back() == runs_.size());
}

bool IntervalMatrix::Get(std::size_t row, std::size_t col) const {
  auto [first, last] = RunsOf(row);
  // Last run starting at or before col.
  auto it = std::upper_bound(
      first, last, static_cast<std::uint32_t>(col),
      [](std::uint32_t c, const IntervalRun& run) { return c < run.begin; });
  return it != first && col < (it - 1)->end;
}

void IntervalMatrix::RowInto(std::size_t row, BitVector& out) const {
  if (out.size() != n_) {
    out = BitVector(n_);
  } else {
    out.Clear();
  }
  auto [first, last] = RunsOf(row);
  for (auto it = first; it != last; ++it) out.SetRange(it->begin, it->end);
}

BitVector IntervalMatrix::ImageOf(const BitVector& rows) const {
  assert(rows.size() == n_);
  BitVector out(n_);
  rows.ForEachSet([&](std::size_t r) {
    auto [first, last] = RunsOf(r);
    for (auto it = first; it != last; ++it) out.SetRange(it->begin, it->end);
  });
  return out;
}

BitVector IntervalMatrix::AndOfRows(const BitVector& rows) const {
  assert(rows.size() == n_);
  BitVector out(n_);
  out.Fill();
  // out &= row r  ==  clear `out` on the complement of row r's runs.
  rows.ForEachSet([&](std::size_t r) {
    auto [first, last] = RunsOf(r);
    std::size_t gap_begin = 0;
    for (auto it = first; it != last; ++it) {
      out.ClearRange(gap_begin, it->begin);
      gap_begin = it->end;
    }
    out.ClearRange(gap_begin, n_);
  });
  return out;
}

BitVector IntervalMatrix::RowsContaining(const BitVector& cols) const {
  assert(cols.size() == n_);
  BitVector out(n_);
  if (cols.None()) {
    out.Fill();
    return out;
  }
  // Row r contains cols iff no set bit of cols falls outside r's runs.
  // The span test against [first, last] rejects almost every row in O(1);
  // only rows whose runs straddle the whole span scan their gaps.
  const std::size_t first_col = cols.FirstSet();
  const std::size_t last_col = LastSet(cols);
  for (std::size_t r = 0; r < n_; ++r) {
    auto [first, last] = RunsOf(r);
    if (first == last || first->begin > first_col ||
        (last - 1)->end <= last_col) {
      continue;
    }
    bool contains = true;
    for (auto it = first; it + 1 != last; ++it) {
      const std::size_t gap_begin = std::max<std::size_t>(it->end, first_col);
      const std::size_t gap_end =
          std::min<std::size_t>((it + 1)->begin, last_col + 1);
      if (cols.AnyInRange(gap_begin, gap_end)) {
        contains = false;
        break;
      }
    }
    if (contains) out.Set(r);
  }
  return out;
}

BitVector IntervalMatrix::NonEmptyRows() const {
  BitVector out(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    if (row_offset_[r] < row_offset_[r + 1]) out.Set(r);
  }
  return out;
}

std::size_t IntervalMatrix::Count() const {
  std::size_t count = 0;
  for (const IntervalRun& run : runs_) count += run.end - run.begin;
  return count;
}

}  // namespace xpv
