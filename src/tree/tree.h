// Unranked sibling-ordered labeled trees -- the data model of the paper
// (Section 2): "an unranked tree t in T_Sigma is a pair a(t1 ... tn)
// consisting of a label a in Sigma and a possibly empty sequence of trees".
//
// Nodes are stored in a flat arena indexed by NodeId; a tree built through
// TreeBuilder (and hence by the parsers and generators) always numbers its
// nodes in document order (pre-order), with the root at id 0. Several axis
// algorithms in axes.h rely on this numbering.
//
// A finished tree is immutable and index-rich: TreeBuilder::Finish()
// precomputes per-node depth, subtree size (hence the pre-order interval
// [v, v + SubtreeSize(v)) covering v's subtree), post-order numbers, a
// binary-lifting ancestor table, and per-label posting lists. These turn
// the structural predicates into array arithmetic:
//
//   IsAncestorOrSelf(u, v)         <=>  v in [u, u + SubtreeSize(u))   O(1)
//   IsFollowingSiblingOrSelf(u,v)  <=>  u == v, or same parent & v > u O(1)
//   Depth(v)                       precomputed                         O(1)
//   LeastCommonAncestor(u, v)      binary lifting + interval tests  O(log n)
//
// and let axes.h build axis relations by interval sweeps and label sets
// from posting lists instead of per-node walks.
#ifndef XPV_TREE_TREE_H_
#define XPV_TREE_TREE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace xpv {

/// Index of a node within a Tree; document (pre-)order for built trees.
using NodeId = std::uint32_t;
/// Interned label identifier.
using LabelId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr LabelId kNoLabel = static_cast<LabelId>(-1);

/// Summary statistics of a built tree, precomputed by TreeBuilder::
/// Finish() alongside the other document-order indexes. These are the
/// inputs of the query planner's cost model (engine/planner.h): node
/// count bounds the matrix-engine work, posting-list sizes bound the
/// domain of label-selective queries, depth and fanout bound how far a
/// single label can "spread" along vertical / horizontal axes.
struct TreeStats {
  std::size_t node_count = 0;
  /// Depth of the deepest node (root = 0).
  std::size_t max_depth = 0;
  /// Largest number of children of any node.
  std::size_t max_fanout = 0;
  std::size_t alphabet_size = 0;
  /// Size of the largest / smallest per-label posting list. Every label
  /// in the alphabet occurs at least once, so min_label_posting >= 1 on
  /// nonempty trees.
  std::size_t max_label_posting = 0;
  std::size_t min_label_posting = 0;
};

/// An unranked sibling-ordered tree over an interned label alphabet.
class Tree {
 public:
  Tree() = default;

  std::size_t size() const { return parent_.size(); }
  bool empty() const { return parent_.empty(); }
  NodeId root() const { return 0; }

  NodeId parent(NodeId v) const { return parent_[v]; }
  NodeId first_child(NodeId v) const { return first_child_[v]; }
  NodeId last_child(NodeId v) const { return last_child_[v]; }
  NodeId next_sibling(NodeId v) const { return next_sibling_[v]; }
  NodeId prev_sibling(NodeId v) const { return prev_sibling_[v]; }

  LabelId label(NodeId v) const { return label_[v]; }
  const std::string& label_name(NodeId v) const { return labels_[label_[v]]; }

  bool IsLeaf(NodeId v) const { return first_child_[v] == kNoNode; }
  bool IsRoot(NodeId v) const { return parent_[v] == kNoNode; }

  /// Number of children of v.
  std::size_t NumChildren(NodeId v) const;
  /// Children of v in sibling order.
  std::vector<NodeId> Children(NodeId v) const;

  // ------------------------------------------------------------------
  // Precomputed document-order indexes (built once by Finish()).

  /// Pre-order (document-order) number of v. The identity for built trees;
  /// kept explicit so callers can state interval arguments in terms of it.
  NodeId PreOrder(NodeId v) const { return v; }
  /// Post-order number of v.
  NodeId PostOrder(NodeId v) const { return post_[v]; }
  /// Number of nodes in the subtree rooted at v (including v). The subtree
  /// occupies exactly the pre-order interval [v, v + SubtreeSize(v)).
  std::size_t SubtreeSize(NodeId v) const { return subtree_size_[v]; }
  /// Depth of v (root has depth 0). O(1).
  std::size_t Depth(NodeId v) const { return depth_[v]; }
  /// All nodes labeled `id`, in document order (empty for kNoLabel /
  /// out-of-alphabet ids).
  const std::vector<NodeId>& LabelPostings(LabelId id) const;
  /// Number of nodes labeled `name` (0 when absent from the alphabet).
  std::size_t LabelFrequency(std::string_view name) const;
  /// Precomputed summary statistics (the planner's cost-model inputs).
  const TreeStats& Stats() const { return stats_; }

  /// True iff u is an ancestor of v or u == v (the paper's ch*). O(1) by
  /// the pre-order interval containment test.
  bool IsAncestorOrSelf(NodeId u, NodeId v) const {
    return v >= u && v < u + static_cast<NodeId>(subtree_size_[u]);
  }
  /// True iff v is a following sibling of u or u == v (the paper's ns*).
  /// O(1): later siblings always have larger pre-order ids.
  bool IsFollowingSiblingOrSelf(NodeId u, NodeId v) const {
    return u == v || (v > u && parent_[u] == parent_[v]);
  }
  /// Least common ancestor of u and v; O(log n) via binary lifting.
  NodeId LeastCommonAncestor(NodeId u, NodeId v) const;
  /// Least common ancestor of a nonempty node set.
  NodeId LeastCommonAncestor(const std::vector<NodeId>& nodes) const;

  /// Number of distinct labels interned in this tree's alphabet.
  std::size_t alphabet_size() const { return labels_.size(); }
  const std::string& label_string(LabelId id) const { return labels_[id]; }
  /// Id of `name` in the alphabet, or kNoLabel when absent.
  LabelId FindLabel(std::string_view name) const;

  /// Copy of the subtree rooted at u, as a fresh tree (Section 8's t|u).
  Tree Subtree(NodeId u) const;

  /// Structural + label equality.
  bool operator==(const Tree& other) const;

  /// Approximate heap bytes held by this tree: node arrays, document-order
  /// indexes (including the binary-lifting table and posting lists), label
  /// strings, and the intern map's node overhead. Drives the
  /// DocumentStore's resident-document accounting for spill-to-disk: a
  /// spilled document's bytes leave this gauge because the Tree itself is
  /// released, so cold on-disk (or mmap'd) bytes are never counted as hot.
  std::size_t resident_bytes() const;

  // ------------------------------------------------------------------
  // Process-wide construction counters (monotone, relaxed atomics).
  // The persistence layer's contract is that reloading a snapshot does
  // NOT re-parse or re-index; these counters are how tests and the
  // restart harness observe that. They count calls, not nodes.

  /// Number of BuildIndexes() runs (every TreeBuilder::Finish) so far in
  /// this process.
  static std::uint64_t GlobalIndexBuilds();
  /// Number of ParseTerm() + ParseXml() calls so far in this process.
  static std::uint64_t GlobalParses();

  /// Compact term syntax: a(b,c(d)). Round-trips through ParseTerm().
  std::string ToTerm() const;
  /// XML serialization: <a><b/><c><d/></c></a>.
  std::string ToXml() const;

  /// Parses the compact term syntax: `a(b, c(d))`. Whitespace and the commas
  /// between siblings are optional: `a(b c(d))` is accepted too. Labels are
  /// XML-style names.
  static Result<Tree> ParseTerm(std::string_view text);
  /// Parses an XML subset: elements and whitespace only -- matching the
  /// paper's data model, which abstracts from attributes and data values.
  /// Attributes and text content are rejected with an explanatory error.
  static Result<Tree> ParseXml(std::string_view text);

 private:
  friend class TreeBuilder;
  /// Serialization (tree/tree_io.h) reads and reconstitutes the private
  /// arrays directly so a decoded tree never re-runs BuildIndexes().
  friend class TreeIo;

  /// Computes the document-order indexes (depth, subtree size, post-order,
  /// binary-lifting table, posting lists). Called once from Finish().
  void BuildIndexes();

  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> last_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> prev_sibling_;
  std::vector<LabelId> label_;
  std::vector<std::string> labels_;
  /// Transparent hash: lookups by string_view build no std::string.
  struct LabelHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, LabelId, LabelHash, std::equal_to<>>
      label_ids_;

  // Document-order indexes, immutable after BuildIndexes().
  std::vector<NodeId> post_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> subtree_size_;
  /// up_[k][v] = 2^k-th proper ancestor of v, or kNoNode past the root.
  std::vector<std::vector<NodeId>> up_;
  /// label_postings_[label] = nodes with that label, in document order.
  std::vector<std::vector<NodeId>> label_postings_;
  TreeStats stats_;
};

/// Incremental pre-order tree construction:
///
///   TreeBuilder b;
///   b.Open("a"); b.Open("b"); b.Close(); b.Close();
///   Tree t = std::move(b).Finish();
///
/// Nodes receive ids in the order they are opened, so ids are document order.
class TreeBuilder {
 public:
  TreeBuilder() = default;

  /// Starts a new node labeled `label` as the next child of the currently
  /// open node (or as root if none is open). Returns its id.
  NodeId Open(std::string_view label);
  /// Closes the most recently opened unclosed node.
  void Close();
  /// Open + Close in one step.
  NodeId Leaf(std::string_view label) {
    NodeId id = Open(label);
    Close();
    return id;
  }

  /// Reserves room for `nodes` nodes, so a builder that knows (a bound
  /// on) the size up front allocates its arrays once.
  void Reserve(std::size_t nodes);

  /// Number of currently open (unclosed) nodes.
  std::size_t open_depth() const { return stack_.size(); }

  /// Finalizes the tree. All opened nodes must be closed and exactly one
  /// root must have been created.
  Result<Tree> Finish() &&;

 private:
  LabelId Intern(std::string_view label);

  Tree tree_;
  std::vector<NodeId> stack_;
  bool saw_root_ = false;
  /// Last label interned per first byte: a hit costs one compare instead
  /// of a hash lookup, and documents rarely have two hot labels that
  /// start alike. Entries are only guesses (0 until first use), so a
  /// lookup confirms the label before trusting one.
  std::array<LabelId, 256> recent_by_first_byte_{};
};

}  // namespace xpv

#endif  // XPV_TREE_TREE_H_
