// The navigational axes of Core XPath 2.0 (Fig. 1 of the paper):
// self, child, parent, descendant, ancestor, following_sibling,
// preceding_sibling -- all proper (non-reflexive) except self.
//
// Three views of an axis relation A(t) are provided:
//   * AxisMatrix        -- the full |t| x |t| Boolean relation (for the
//                          PPLbin matrix engine of Section 4),
//   * AxisImage         -- S_A(N) = { u' | exists u in N, A(u, u') }, set
//                          at a time (the Gottlob-Koch-Pichler evaluation
//                          trick recalled in Section 4); a step costs its
//                          frontier N and its answer, not all of t,
//   * AxisHolds         -- a single pair membership test (test oracle).
#ifndef XPV_TREE_AXES_H_
#define XPV_TREE_AXES_H_

#include <array>
#include <cstddef>
#include <string_view>

#include "common/bit_matrix.h"
#include "common/bool_matrix.h"
#include "common/status.h"
#include "tree/tree.h"

namespace xpv {

/// The axes of Core XPath 2.0 (Fig. 1).
enum class Axis {
  kSelf,
  kChild,
  kParent,
  kDescendant,
  kAncestor,
  kFollowingSibling,
  kPrecedingSibling,
};

inline constexpr std::array<Axis, 7> kAllAxes = {
    Axis::kSelf,           Axis::kChild,
    Axis::kParent,         Axis::kDescendant,
    Axis::kAncestor,       Axis::kFollowingSibling,
    Axis::kPrecedingSibling,
};

/// XPath surface syntax name, e.g. "following_sibling".
std::string_view AxisName(Axis axis);
/// Parses an axis name; accepts both `following_sibling` and the XPath
/// spelling `following-sibling`.
Result<Axis> ParseAxis(std::string_view name);

/// The inverse relation's axis: child <-> parent, descendant <-> ancestor,
/// following_sibling <-> preceding_sibling, self <-> self.
Axis InverseAxis(Axis axis);

/// True iff (u, v) is in A(t), i.e. navigating axis A from u reaches v.
bool AxisHolds(const Tree& t, Axis axis, NodeId u, NodeId v);

/// The full relation A(t) as a Boolean matrix (rows = start nodes).
BitMatrix AxisMatrix(const Tree& t, Axis axis);

/// The full relation A(t) as a succinct IntervalMatrix: per-row sorted run
/// lists built directly from the pre-order index intervals in
/// O(|t| + total runs) time, never touching O(|t|^2) bits. Total runs are
/// O(|t|) for self/child/parent/descendant and bounded by the ancestor
/// chain length resp. non-leaf sibling count for the remaining axes --
/// O(|t| log |t|) on balanced or random trees.
IntervalMatrix AxisIntervalMatrix(const Tree& t, Axis axis);

/// AxisImage pushes from a frontier of at most |t| / kAxisImagePushDivisor
/// nodes and pulls into a denser one. Push walks reach the frontier and
/// its image through the link arrays; a pull sweep reads a whole parent or
/// sibling array in order, so it wins once the frontier covers most of the
/// tree -- the push/pull switch of direction-optimizing BFS (Beamer et
/// al., SC'12). The rows BM_AxisImage/65536/{1,4,5,6}/1 (a one-label
/// frontier, about |t| / 6 nodes) put push ahead of the sweep, and
/// BM_AxisImage/65536/{1,4,5,6}/3 (every node) the sweep ahead of push;
/// on random frontiers of that tree push stays ahead up to |t| / 2 on all
/// four axes and falls behind between 2 |t| / 3 and 4 |t| / 5.
inline constexpr std::size_t kAxisImagePushDivisor = 2;

/// Computes S_A(N) = image of node set N under A(t), relying on the
/// pre-order numbering of built trees. Output-sensitive on top of the
/// O(|t| / 64) words of the result vector:
///   * self copies N; parent maps each node of N to its parent;
///   * descendant fills the subtree interval of each maximal node of N
///     and jumps past it: O(maximal nodes of N) ranges at any density;
///   * child, ancestor and the sibling axes walk from each node of N
///     (children by first_child / next_sibling; chains by parent or
///     sibling links, stopping at the first node already marked), so a
///     frontier of at most |t| / kAxisImagePushDivisor nodes costs
///     O(|N| + |S_A(N)|); a denser one takes one O(|t|) pull sweep.
BitVector AxisImage(const Tree& t, Axis axis, const BitVector& from);

/// Node set { v | label(v) == label } as a BitVector; all nodes when
/// `label` is empty (the wildcard name test `*`).
BitVector LabelSet(const Tree& t, std::string_view label);

}  // namespace xpv

#endif  // XPV_TREE_AXES_H_
