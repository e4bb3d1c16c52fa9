#include "tree/tree.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>

namespace xpv {

namespace {
// Process-wide construction counters; see the header. Relaxed is enough:
// tests read them only at quiescent points (before/after an operation).
std::atomic<std::uint64_t> g_index_builds{0};
std::atomic<std::uint64_t> g_parses{0};
}  // namespace

std::uint64_t Tree::GlobalIndexBuilds() {
  return g_index_builds.load(std::memory_order_relaxed);
}

std::uint64_t Tree::GlobalParses() {
  return g_parses.load(std::memory_order_relaxed);
}

std::size_t Tree::NumChildren(NodeId v) const {
  std::size_t count = 0;
  for (NodeId c = first_child_[v]; c != kNoNode; c = next_sibling_[c]) ++count;
  return count;
}

std::vector<NodeId> Tree::Children(NodeId v) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child_[v]; c != kNoNode; c = next_sibling_[c]) {
    out.push_back(c);
  }
  return out;
}

const std::vector<NodeId>& Tree::LabelPostings(LabelId id) const {
  static const std::vector<NodeId> kEmpty;
  if (id >= label_postings_.size()) return kEmpty;
  return label_postings_[id];
}

std::size_t Tree::LabelFrequency(std::string_view name) const {
  return LabelPostings(FindLabel(name)).size();
}

void Tree::BuildIndexes() {
  g_index_builds.fetch_add(1, std::memory_order_relaxed);
  const NodeId n = static_cast<NodeId>(parent_.size());
  depth_.assign(n, 0);
  subtree_size_.assign(n, 1);
  post_.resize(n);
  // Pre-order ids mean parents precede children: one forward sweep fills
  // depths (and counts fanouts and labels), one backward sweep
  // accumulates subtree sizes bottom-up.
  std::vector<std::uint32_t> fanout(n, 0);
  std::vector<std::uint32_t> label_counts(labels_.size(), 0);
  std::uint32_t max_depth = 0;
  if (n > 0) ++label_counts[label_[0]];
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = parent_[v];
    depth_[v] = depth_[p] + 1;
    max_depth = std::max(max_depth, depth_[v]);
    ++fanout[p];
    ++label_counts[label_[v]];
  }
  for (NodeId v = n; v-- > 1;) subtree_size_[parent_[v]] += subtree_size_[v];
  // post(v) = pre(v) + SubtreeSize(v) - 1 - Depth(v): v closes after its
  // whole subtree (pre + size - 1) but before its open ancestors (depth).
  for (NodeId v = 0; v < n; ++v) {
    post_[v] = v + static_cast<NodeId>(subtree_size_[v]) - 1 - depth_[v];
  }
  // Counted above, so every posting list is allocated once, at its size.
  label_postings_.assign(labels_.size(), {});
  for (LabelId l = 0; l < labels_.size(); ++l) {
    label_postings_[l].reserve(label_counts[l]);
  }
  for (NodeId v = 0; v < n; ++v) label_postings_[label_[v]].push_back(v);
  // Binary-lifting ancestor table, sized to the maximum depth.
  std::size_t levels = 0;
  while ((std::uint64_t{1} << levels) < std::uint64_t{max_depth} + 1) ++levels;
  up_.assign(levels, {});
  if (levels > 0) up_[0] = parent_;
  for (std::size_t k = 1; k < levels; ++k) {
    const std::vector<NodeId>& half = up_[k - 1];
    std::vector<NodeId>& level = up_[k];
    level.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      level[v] = half[v] == kNoNode ? kNoNode : half[half[v]];
    }
  }
  // Summary statistics for the query planner's cost model.
  stats_.node_count = n;
  stats_.max_depth = max_depth;
  stats_.alphabet_size = labels_.size();
  stats_.max_fanout =
      n == 0 ? 0 : *std::max_element(fanout.begin(), fanout.end());
  stats_.max_label_posting = 0;
  stats_.min_label_posting = n;
  for (const std::vector<NodeId>& postings : label_postings_) {
    stats_.max_label_posting =
        std::max(stats_.max_label_posting, postings.size());
    stats_.min_label_posting =
        std::min(stats_.min_label_posting, postings.size());
  }
  if (label_postings_.empty()) stats_.min_label_posting = 0;
}

NodeId Tree::LeastCommonAncestor(NodeId u, NodeId v) const {
  if (IsAncestorOrSelf(u, v)) return u;
  if (IsAncestorOrSelf(v, u)) return v;
  // Lift u to its highest ancestor that is still NOT an ancestor of v;
  // that node's parent is the LCA.
  for (std::size_t k = up_.size(); k-- > 0;) {
    NodeId w = up_[k][u];
    if (w != kNoNode && !IsAncestorOrSelf(w, v)) u = w;
  }
  return parent_[u];
}

NodeId Tree::LeastCommonAncestor(const std::vector<NodeId>& nodes) const {
  assert(!nodes.empty());
  NodeId acc = nodes[0];
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    acc = LeastCommonAncestor(acc, nodes[i]);
  }
  return acc;
}

LabelId Tree::FindLabel(std::string_view name) const {
  auto it = label_ids_.find(name);
  return it == label_ids_.end() ? kNoLabel : it->second;
}

Tree Tree::Subtree(NodeId u) const {
  // Iterative pre-order copy (trees may be pathologically deep). The
  // subtree is the contiguous pre-order interval [u, u + SubtreeSize(u)),
  // so a single id sweep visits it in document order; closes are emitted
  // when the depth drops.
  TreeBuilder builder;
  builder.Reserve(subtree_size_[u]);
  const NodeId end = u + static_cast<NodeId>(subtree_size_[u]);
  const std::uint32_t base_depth = depth_[u];
  std::uint32_t open = 0;  // nodes currently open in the builder
  for (NodeId v = u; v < end; ++v) {
    const std::uint32_t rel_depth = depth_[v] - base_depth;
    while (open > rel_depth) {
      builder.Close();
      --open;
    }
    builder.Open(label_name(v));
    ++open;
  }
  while (open > 0) {
    builder.Close();
    --open;
  }
  Result<Tree> result = std::move(builder).Finish();
  assert(result.ok());
  return std::move(result).value();
}

std::size_t Tree::resident_bytes() const {
  const std::size_t n = parent_.size();
  // Five structure arrays + labels + post/depth/subtree, all n entries.
  std::size_t bytes = n * (6 * sizeof(NodeId) + sizeof(LabelId) +
                           2 * sizeof(std::uint32_t));
  for (const std::vector<NodeId>& level : up_) {
    bytes += level.size() * sizeof(NodeId);
  }
  // Posting lists hold each node exactly once.
  bytes += n * sizeof(NodeId) +
           label_postings_.size() * sizeof(std::vector<NodeId>);
  for (const std::string& label : labels_) {
    bytes += sizeof(std::string) + label.capacity();
  }
  // label_ids_ nodes: hash bucket pointer + node header + key string
  // header (characters counted via labels_ already share small-string
  // storage; charge capacity again only for heap-allocated keys).
  for (const auto& [key, id] : label_ids_) {
    (void)id;
    bytes += 4 * sizeof(void*) + sizeof(std::string) + key.capacity();
  }
  return bytes;
}

bool Tree::operator==(const Tree& other) const {
  if (size() != other.size()) return false;
  for (NodeId v = 0; v < size(); ++v) {
    if (parent_[v] != other.parent_[v] ||
        first_child_[v] != other.first_child_[v] ||
        next_sibling_[v] != other.next_sibling_[v] ||
        label_name(v) != other.label_name(v)) {
      return false;
    }
  }
  return true;
}

namespace {

// Both serializers are iterative sweeps over the pre-order interval of
// the serialized subtree (like Tree::Subtree), so pathologically deep
// trees serialize without call-stack recursion and without per-node
// temporary allocations: structure is recovered from the depth deltas.

void AppendTerm(const Tree& t, NodeId v, std::string* out) {
  const NodeId end = v + static_cast<NodeId>(t.SubtreeSize(v));
  const std::size_t base_depth = t.Depth(v);
  std::size_t prev = 0;  // relative depth of the previously emitted node
  *out += t.label_name(v);
  for (NodeId w = v + 1; w < end; ++w) {
    const std::size_t d = t.Depth(w) - base_depth;
    if (d > prev) {  // first child: descend exactly one level
      *out += '(';
    } else {  // next sibling of an ancestor (or of the previous node)
      out->append(prev - d, ')');
      *out += ',';
    }
    *out += t.label_name(w);
    prev = d;
  }
  out->append(prev, ')');
}

void AppendXml(const Tree& t, NodeId v, std::string* out) {
  const NodeId end = v + static_cast<NodeId>(t.SubtreeSize(v));
  const std::size_t base_depth = t.Depth(v);
  std::vector<NodeId> open;  // non-leaf nodes whose tag is still open
  for (NodeId w = v; w < end; ++w) {
    const std::size_t d = t.Depth(w) - base_depth;
    while (open.size() > d) {
      *out += "</";
      *out += t.label_name(open.back());
      *out += '>';
      open.pop_back();
    }
    *out += '<';
    *out += t.label_name(w);
    if (t.IsLeaf(w)) {
      *out += "/>";
    } else {
      *out += '>';
      open.push_back(w);
    }
  }
  while (!open.empty()) {
    *out += "</";
    *out += t.label_name(open.back());
    *out += '>';
    open.pop_back();
  }
}

// Character classes of the term and XML grammars, fixed to the C locale
// (the <cctype> predicates would consult the process locale on every
// byte): names start with [A-Za-z_] and continue with [A-Za-z0-9_.-];
// whitespace is isspace's C-locale set.
enum CharClass : std::uint8_t { kSpace = 1, kNameStart = 2, kNameChar = 4 };

constexpr std::array<std::uint8_t, 256> MakeCharClasses() {
  std::array<std::uint8_t, 256> classes{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_') classes[c] |= kNameStart | kNameChar;
    if (digit || c == '-' || c == '.') classes[c] |= kNameChar;
  }
  return classes;
}

constexpr std::array<std::uint8_t, 256> kCharClasses = MakeCharClasses();

bool Is(char c, CharClass cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}
bool IsSpace(char c) { return Is(c, kSpace); }
bool IsNameStart(char c) { return Is(c, kNameStart); }
bool IsNameChar(char c) { return Is(c, kNameChar); }

/// Upper bound on the node count of a term: the number of maximal
/// name-character runs that begin with a name-start character (each
/// label is exactly one such run). One pass, so ParseTerm can size its
/// arrays once instead of growing them node by node.
std::size_t CountTermLabels(std::string_view text) {
  std::size_t labels = 0;
  bool in_name = false;
  for (const char c : text) {
    if (!in_name && IsNameStart(c)) ++labels;
    in_name = IsNameChar(c);
  }
  return labels;
}

}  // namespace

std::string Tree::ToTerm() const {
  std::string out;
  if (!empty()) AppendTerm(*this, root(), &out);
  return out;
}

std::string Tree::ToXml() const {
  std::string out;
  if (!empty()) AppendXml(*this, root(), &out);
  return out;
}

Result<Tree> Tree::ParseTerm(std::string_view text) {
  g_parses.fetch_add(1, std::memory_order_relaxed);
  std::size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < text.size() && IsSpace(text[pos])) ++pos;
  };
  auto parse_name = [&]() -> std::string_view {
    std::size_t start = pos;
    if (pos < text.size() && IsNameStart(text[pos])) {
      ++pos;
      while (pos < text.size() && IsNameChar(text[pos])) ++pos;
    }
    return text.substr(start, pos - start);
  };

  TreeBuilder builder;
  builder.Reserve(CountTermLabels(text));
  // Iterative parse of the term grammar: node := name [ '(' node
  // ((','|ws) node)* ')' ]. The builder's open stack doubles as the parse
  // stack, so arbitrarily deep inputs (e.g. a 100k-deep chain) cannot
  // overflow the call stack.
  // Opens the node whose label starts after optional whitespace; false
  // (the caller returns expected_label()) when there is no label.
  auto open_node = [&]() -> bool {
    skip_ws();
    const std::string_view label = parse_name();
    if (label.empty()) return false;
    builder.Open(label);
    return true;
  };
  auto expected_label = [&] {
    return Status::InvalidArgument("expected a label at offset " +
                                   std::to_string(pos));
  };
  if (!open_node()) return expected_label();
  for (bool done = false; !done;) {
    skip_ws();
    if (pos < text.size() && text[pos] == '(') {
      // The just-opened node has children: descend into the first one.
      ++pos;
      skip_ws();
      if (pos < text.size() && text[pos] == ')') {
        return Status::InvalidArgument("empty child list at offset " +
                                       std::to_string(pos));
      }
      if (!open_node()) return expected_label();
      continue;
    }
    // The just-opened node is a leaf: close it, then ascend until a next
    // sibling starts or the root closes.
    builder.Close();
    while (true) {
      skip_ws();
      if (builder.open_depth() == 0) {
        done = true;
        break;
      }
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        if (!open_node()) return expected_label();
        break;
      }
      if (pos < text.size() && text[pos] == ')') {
        ++pos;
        builder.Close();  // the parent's child list ends here
        continue;
      }
      if (pos < text.size() && IsNameStart(text[pos])) {
        if (!open_node()) return expected_label();
        break;
      }
      return Status::InvalidArgument("expected ',', ')' or a label at offset " +
                                     std::to_string(pos));
    }
  }
  skip_ws();
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing characters at offset " +
                                   std::to_string(pos));
  }
  return std::move(builder).Finish();
}

Result<Tree> Tree::ParseXml(std::string_view text) {
  g_parses.fetch_add(1, std::memory_order_relaxed);
  std::size_t pos = 0;
  TreeBuilder builder;
  std::vector<std::string> open_tags;

  auto skip_ws = [&] {
    while (pos < text.size() && IsSpace(text[pos])) ++pos;
  };
  auto parse_name = [&]() -> std::string {
    std::size_t start = pos;
    if (pos < text.size() && IsNameStart(text[pos])) {
      ++pos;
      while (pos < text.size() && (IsNameChar(text[pos]) || text[pos] == ':')) {
        ++pos;
      }
    }
    return std::string(text.substr(start, pos - start));
  };

  skip_ws();
  // Optional XML declaration / processing instructions and comments.
  while (pos + 1 < text.size() && text[pos] == '<' &&
         (text[pos + 1] == '?' || text[pos + 1] == '!')) {
    std::size_t end = text.find('>', pos);
    if (end == std::string_view::npos) {
      return Status::InvalidArgument("unterminated declaration");
    }
    pos = end + 1;
    skip_ws();
  }

  while (pos < text.size()) {
    skip_ws();
    if (pos >= text.size()) break;
    if (text[pos] != '<') {
      return Status::InvalidArgument(
          "text content is not supported by the navigational data model "
          "(offset " +
          std::to_string(pos) + ")");
    }
    ++pos;
    if (pos < text.size() && text[pos] == '/') {
      ++pos;
      std::string name = parse_name();
      skip_ws();
      if (pos >= text.size() || text[pos] != '>') {
        return Status::InvalidArgument("malformed closing tag");
      }
      ++pos;
      if (open_tags.empty() || open_tags.back() != name) {
        return Status::InvalidArgument("mismatched closing tag </" + name +
                                       ">");
      }
      open_tags.pop_back();
      builder.Close();
      if (open_tags.empty()) break;
      continue;
    }
    if (pos + 2 < text.size() && text[pos] == '!') {
      // Comment: <!-- ... -->
      std::size_t end = text.find("-->", pos);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated comment");
      }
      pos = end + 3;
      continue;
    }
    std::string name = parse_name();
    if (name.empty()) {
      return Status::InvalidArgument("expected element name at offset " +
                                     std::to_string(pos));
    }
    skip_ws();
    if (pos < text.size() && IsNameStart(text[pos])) {
      return Status::InvalidArgument(
          "attributes are not supported by the navigational data model "
          "(element <" +
          name + ">)");
    }
    builder.Open(name);
    if (pos + 1 < text.size() && text[pos] == '/' && text[pos + 1] == '>') {
      pos += 2;
      builder.Close();
      if (open_tags.empty()) break;
      continue;
    }
    if (pos < text.size() && text[pos] == '>') {
      ++pos;
      open_tags.push_back(name);
      continue;
    }
    return Status::InvalidArgument("malformed start tag <" + name + ">");
  }

  skip_ws();
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing characters after root element");
  }
  if (!open_tags.empty()) {
    return Status::InvalidArgument("unclosed element <" + open_tags.back() +
                                   ">");
  }
  return std::move(builder).Finish();
}

void TreeBuilder::Reserve(std::size_t nodes) {
  tree_.parent_.reserve(nodes);
  tree_.first_child_.reserve(nodes);
  tree_.last_child_.reserve(nodes);
  tree_.next_sibling_.reserve(nodes);
  tree_.prev_sibling_.reserve(nodes);
  tree_.label_.reserve(nodes);
}

NodeId TreeBuilder::Open(std::string_view label) {
  NodeId id = static_cast<NodeId>(tree_.parent_.size());
  NodeId parent = stack_.empty() ? kNoNode : stack_.back();
  tree_.parent_.push_back(parent);
  tree_.first_child_.push_back(kNoNode);
  tree_.last_child_.push_back(kNoNode);
  tree_.next_sibling_.push_back(kNoNode);
  tree_.prev_sibling_.push_back(kNoNode);
  tree_.label_.push_back(Intern(label));
  if (parent != kNoNode) {
    NodeId prev = tree_.last_child_[parent];
    if (prev == kNoNode) {
      tree_.first_child_[parent] = id;
    } else {
      tree_.next_sibling_[prev] = id;
      tree_.prev_sibling_[id] = prev;
    }
    tree_.last_child_[parent] = id;
  } else {
    saw_root_ = true;
  }
  stack_.push_back(id);
  return id;
}

void TreeBuilder::Close() {
  assert(!stack_.empty() && "Close() without matching Open()");
  stack_.pop_back();
}

Result<Tree> TreeBuilder::Finish() && {
  if (!stack_.empty()) {
    return Status::InvalidArgument("Finish() with " +
                                   std::to_string(stack_.size()) +
                                   " unclosed nodes");
  }
  if (!saw_root_) {
    return Status::InvalidArgument("Finish() on an empty builder");
  }
  // Exactly one root: the first node opened at depth 0. A second depth-0
  // Open would have parent kNoNode as well; detect it.
  std::size_t roots = 0;
  for (NodeId p : tree_.parent_) {
    if (p == kNoNode) ++roots;
  }
  if (roots != 1) {
    return Status::InvalidArgument("tree must have exactly one root, got " +
                                   std::to_string(roots));
  }
  tree_.BuildIndexes();
  return std::move(tree_);
}

LabelId TreeBuilder::Intern(std::string_view label) {
  LabelId& recent = recent_by_first_byte_[static_cast<unsigned char>(
      label.empty() ? '\0' : label[0])];
  if (recent < tree_.labels_.size() && tree_.labels_[recent] == label) {
    return recent;
  }
  // Look up before inserting: a repeated label then costs one hash and no
  // std::string or map-node allocation.
  auto it = tree_.label_ids_.find(label);
  if (it != tree_.label_ids_.end()) return recent = it->second;
  const auto id = static_cast<LabelId>(tree_.labels_.size());
  tree_.labels_.emplace_back(label);
  tree_.label_ids_.emplace(tree_.labels_.back(), id);
  return recent = id;
}

}  // namespace xpv
