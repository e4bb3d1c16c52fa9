#include "tree/tree_io.h"

#include <bit>
#include <cstring>

namespace xpv {

namespace {

Status Corrupt(const char* what) {
  return Status::DataLoss(std::string("tree payload corrupt: ") + what);
}

/// True iff `bad(values[i], i)` holds for some i. Scans the whole array
/// without an early exit, so the loop vectorizes: validation is a few
/// passes at memory speed instead of a branch per node and check. Kept
/// out of line because GCC leaves these loops scalar once they are
/// inlined into DecodeTree's body.
template <typename Bad>
[[gnu::noinline]] bool AnyBad(const std::vector<std::uint32_t>& values,
                              Bad bad) {
  const std::uint32_t* data = values.data();
  const std::size_t count = values.size();
  std::uint32_t any = 0;
  for (std::size_t i = 0; i < count; ++i) {
    any |= static_cast<std::uint32_t>(bad(data[i], static_cast<NodeId>(i)));
  }
  return any != 0;
}

}  // namespace

// ---------------------------------------------------------------- writer

void ByteWriter::U32(std::uint32_t v) {
  char buf[4];
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(buf, &v, 4);
  } else {
    buf[0] = static_cast<char>(v);
    buf[1] = static_cast<char>(v >> 8);
    buf[2] = static_cast<char>(v >> 16);
    buf[3] = static_cast<char>(v >> 24);
  }
  out_->append(buf, 4);
}

void ByteWriter::U64(std::uint64_t v) {
  U32(static_cast<std::uint32_t>(v));
  U32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::Str(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  out_->append(s);
}

void ByteWriter::U32Array(const std::vector<std::uint32_t>& values) {
  if (values.empty()) return;  // .data() may be null; append(null, 0) is UB
  if constexpr (std::endian::native == std::endian::little) {
    out_->append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(std::uint32_t));
  } else {
    for (std::uint32_t v : values) U32(v);
  }
}

// ---------------------------------------------------------------- reader

Result<std::uint8_t> ByteReader::U8() {
  if (remaining() < 1) return Corrupt("unexpected end of payload");
  return data_[pos_++];
}

Result<std::uint32_t> ByteReader::U32() {
  if (remaining() < 4) return Corrupt("unexpected end of payload");
  std::uint32_t v;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, data_ + pos_, 4);
  } else {
    v = std::uint32_t{data_[pos_]} | std::uint32_t{data_[pos_ + 1]} << 8 |
        std::uint32_t{data_[pos_ + 2]} << 16 |
        std::uint32_t{data_[pos_ + 3]} << 24;
  }
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::U64() {
  XPV_ASSIGN_OR_RETURN(const std::uint32_t lo, U32());
  XPV_ASSIGN_OR_RETURN(const std::uint32_t hi, U32());
  return std::uint64_t{lo} | (std::uint64_t{hi} << 32);
}

Result<std::string> ByteReader::Str(std::size_t max_len) {
  XPV_ASSIGN_OR_RETURN(const std::uint32_t len, U32());
  if (len > max_len) return Corrupt("string length out of range");
  if (remaining() < len) return Corrupt("unexpected end of payload");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Status ByteReader::U32Array(std::size_t count,
                            std::vector<std::uint32_t>& out) {
  if (count > remaining() / sizeof(std::uint32_t)) {
    return Corrupt("array length out of range");
  }
  out.clear();
  if (count == 0) return Status::OK();  // memcpy(null, ..., 0) is UB
  out.resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), data_ + pos_, count * sizeof(std::uint32_t));
    pos_ += count * sizeof(std::uint32_t);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      XPV_ASSIGN_OR_RETURN(out[i], U32());
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------------ tree

void TreeIo::EncodeTree(const Tree& tree, ByteWriter& w) {
  const std::size_t n = tree.parent_.size();
  w.U64(n);
  w.U32(static_cast<std::uint32_t>(tree.labels_.size()));
  for (const std::string& label : tree.labels_) w.Str(label);
  w.U32Array(tree.label_);
  w.U32Array(tree.parent_);
  w.U32Array(tree.first_child_);
  w.U32Array(tree.last_child_);
  w.U32Array(tree.next_sibling_);
  w.U32Array(tree.prev_sibling_);
  w.U32Array(tree.depth_);
  w.U32Array(tree.subtree_size_);
  w.U32Array(tree.post_);
  w.U32(static_cast<std::uint32_t>(tree.up_.size()));
  for (const std::vector<NodeId>& level : tree.up_) w.U32Array(level);
  for (const std::vector<NodeId>& postings : tree.label_postings_) {
    w.U32(static_cast<std::uint32_t>(postings.size()));
    w.U32Array(postings);
  }
  w.U64(tree.stats_.node_count);
  w.U64(tree.stats_.max_depth);
  w.U64(tree.stats_.max_fanout);
  w.U64(tree.stats_.alphabet_size);
  w.U64(tree.stats_.max_label_posting);
  w.U64(tree.stats_.min_label_posting);
}

std::size_t TreeIo::EncodedTreeBytes(const Tree& tree) {
  const std::size_t n = tree.parent_.size();
  std::size_t bytes = 8 + 4;  // node count, alphabet size
  for (const std::string& label : tree.labels_) bytes += 4 + label.size();
  bytes += (9 + tree.up_.size()) * n * sizeof(std::uint32_t);  // arrays
  bytes += 4;  // lifting-table level count
  // One count per posting list; the lists hold every node exactly once.
  bytes += tree.label_postings_.size() * 4 + n * sizeof(std::uint32_t);
  return bytes + 6 * 8;  // TreeStats
}

Result<Tree> TreeIo::DecodeTree(ByteReader& r) {
  Tree tree;
  XPV_ASSIGN_OR_RETURN(const std::uint64_t n64, r.U64());
  if (n64 > kMaxNodes) return Corrupt("node count out of range");
  // Each node contributes at least the 9 mandatory u32 arrays below, so a
  // claimed count beyond the remaining payload is corrupt -- reject it
  // BEFORE the alphabet reserve, or a 16-byte input claiming 2^31 nodes
  // provokes a multi-gigabyte allocation (found by fuzz_tree_decode).
  if (n64 > r.remaining()) return Corrupt("node count exceeds payload");
  const std::size_t n = static_cast<std::size_t>(n64);
  XPV_ASSIGN_OR_RETURN(const std::uint32_t alphabet, r.U32());
  // Every label occurs at least once, so the alphabet never exceeds n.
  if (alphabet > n) return Corrupt("alphabet larger than node count");
  tree.labels_.reserve(alphabet);
  for (std::uint32_t i = 0; i < alphabet; ++i) {
    XPV_ASSIGN_OR_RETURN(std::string label, r.Str());
    tree.labels_.push_back(std::move(label));
  }
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.label_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.parent_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.first_child_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.last_child_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.next_sibling_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.prev_sibling_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.depth_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.subtree_size_));
  XPV_RETURN_IF_ERROR(r.U32Array(n, tree.post_));
  XPV_ASSIGN_OR_RETURN(const std::uint32_t levels, r.U32());
  if (levels > 64) return Corrupt("lifting-table level count out of range");
  tree.up_.resize(levels);
  for (std::uint32_t k = 0; k < levels; ++k) {
    XPV_RETURN_IF_ERROR(r.U32Array(n, tree.up_[k]));
  }
  tree.label_postings_.resize(alphabet);
  std::uint64_t postings_total = 0;
  for (std::uint32_t i = 0; i < alphabet; ++i) {
    XPV_ASSIGN_OR_RETURN(const std::uint32_t count, r.U32());
    postings_total += count;
    if (postings_total > n) return Corrupt("posting lists exceed node count");
    XPV_RETURN_IF_ERROR(r.U32Array(count, tree.label_postings_[i]));
  }
  if (postings_total != n) return Corrupt("posting lists do not cover tree");
  XPV_ASSIGN_OR_RETURN(tree.stats_.node_count, r.U64());
  XPV_ASSIGN_OR_RETURN(tree.stats_.max_depth, r.U64());
  XPV_ASSIGN_OR_RETURN(tree.stats_.max_fanout, r.U64());
  XPV_ASSIGN_OR_RETURN(tree.stats_.alphabet_size, r.U64());
  XPV_ASSIGN_OR_RETURN(tree.stats_.max_label_posting, r.U64());
  XPV_ASSIGN_OR_RETURN(tree.stats_.min_label_posting, r.U64());

  // Structural validation: every decoded id must be in range before any
  // consumer indexes an array with it, and the pre-order invariants the
  // O(1) predicates rely on must hold. O(n) total -- far below a rebuild.
  if (tree.stats_.node_count != n) return Corrupt("stats disagree with arrays");
  const NodeId nn = static_cast<NodeId>(n);
  const auto out_of_range = [nn](NodeId v, NodeId) {
    return (v >= nn) & (v != kNoNode);
  };
  if (AnyBad(tree.label_, [alphabet](LabelId l, NodeId) {
        return l >= alphabet;
      })) {
    return Corrupt("label id out of range");
  }
  // Pre-order numbering: a parent strictly precedes its children, and
  // only the root (id 0) has no parent.
  if ((n > 0 && tree.parent_[0] != kNoNode) ||
      AnyBad(tree.parent_, [](NodeId p, NodeId v) {
        return (v != 0) & (p >= v);
      })) {
    return Corrupt("parent link order");
  }
  if (AnyBad(tree.first_child_, out_of_range) ||
      AnyBad(tree.last_child_, out_of_range) ||
      AnyBad(tree.next_sibling_, out_of_range) ||
      AnyBad(tree.prev_sibling_, out_of_range)) {
    return Corrupt("sibling/child link out of range");
  }
  // size - 1 wraps for size 0, so one comparison rejects both 0 and a
  // subtree running past the last node.
  if (AnyBad(tree.subtree_size_, [nn](std::uint32_t size, NodeId v) {
        return size - 1 >= nn - v;
      })) {
    return Corrupt("subtree size out of range");
  }
  const auto at_least_n = [nn](std::uint32_t x, NodeId) { return x >= nn; };
  if (AnyBad(tree.depth_, at_least_n) || AnyBad(tree.post_, at_least_n)) {
    return Corrupt("depth/post out of range");
  }
  for (const std::vector<NodeId>& level : tree.up_) {
    if (AnyBad(level, out_of_range)) {
      return Corrupt("lifting-table entry out of range");
    }
  }
  for (const std::vector<NodeId>& postings : tree.label_postings_) {
    const NodeId* p = postings.data();
    if (AnyBad(postings, at_least_n) ||
        AnyBad(postings, [p](NodeId x, NodeId i) {
          return (i != 0) & (p[i - (i != 0)] >= x);
        })) {
      return Corrupt("posting list not in document order");
    }
  }
  // The label intern map is derived state, rebuilt directly from the
  // alphabet (not an index rebuild: no tree traversal happens here).
  tree.label_ids_.reserve(alphabet);
  for (std::uint32_t i = 0; i < alphabet; ++i) {
    auto [it, inserted] = tree.label_ids_.emplace(tree.labels_[i], i);
    (void)it;
    if (!inserted) return Corrupt("duplicate label in alphabet");
  }
  return tree;
}

// -------------------------------------------------------------- interval

void TreeIo::EncodeIntervalMatrix(const IntervalMatrix& m, ByteWriter& w) {
  w.U64(m.size());
  w.U64(m.num_runs());
  std::vector<std::uint32_t> flat;
  flat.reserve(m.size() + 1 + 2 * m.num_runs());
  // CSR offsets, then runs flattened as begin,end pairs.
  std::uint32_t offset = 0;
  flat.push_back(0);
  for (std::size_t row = 0; row < m.size(); ++row) {
    auto [begin, end] = m.RunsOf(row);
    offset += static_cast<std::uint32_t>(end - begin);
    flat.push_back(offset);
  }
  for (std::size_t row = 0; row < m.size(); ++row) {
    auto [begin, end] = m.RunsOf(row);
    for (const IntervalRun* run = begin; run != end; ++run) {
      flat.push_back(run->begin);
      flat.push_back(run->end);
    }
  }
  w.U32Array(flat);
}

Result<IntervalMatrix> TreeIo::DecodeIntervalMatrix(ByteReader& r) {
  XPV_ASSIGN_OR_RETURN(const std::uint64_t n64, r.U64());
  XPV_ASSIGN_OR_RETURN(const std::uint64_t runs64, r.U64());
  if (n64 > kMaxNodes || runs64 > kMaxNodes) {
    return Corrupt("interval matrix dimensions out of range");
  }
  const std::size_t n = static_cast<std::size_t>(n64);
  const std::size_t num_runs = static_cast<std::size_t>(runs64);
  std::vector<std::uint32_t> offsets;
  XPV_RETURN_IF_ERROR(r.U32Array(n + 1, offsets));
  std::vector<std::uint32_t> flat_runs;
  XPV_RETURN_IF_ERROR(r.U32Array(2 * num_runs, flat_runs));
  if (offsets[0] != 0 || offsets[n] != num_runs) {
    return Corrupt("interval CSR offsets do not frame the run list");
  }
  for (std::size_t row = 0; row < n; ++row) {
    if (offsets[row] > offsets[row + 1]) {
      return Corrupt("interval CSR offsets decrease");
    }
  }
  std::vector<IntervalRun> runs;
  runs.reserve(num_runs);
  for (std::size_t i = 0; i < num_runs; ++i) {
    runs.push_back(IntervalRun{flat_runs[2 * i], flat_runs[2 * i + 1]});
  }
  // Runs must be sorted, disjoint, non-adjacent (maximal) and in-bounds
  // within each row -- consumers' run-native kernels assume canonicality.
  for (std::size_t row = 0; row < n; ++row) {
    std::uint32_t prev_end = 0;
    bool first = true;
    for (std::uint32_t i = offsets[row]; i < offsets[row + 1]; ++i) {
      const IntervalRun& run = runs[i];
      if (run.begin >= run.end || run.end > n ||
          (!first && run.begin <= prev_end)) {
        return Corrupt("interval run list not canonical");
      }
      prev_end = run.end;
      first = false;
    }
  }
  return IntervalMatrix(n, std::move(offsets), std::move(runs));
}

}  // namespace xpv
