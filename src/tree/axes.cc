#include "tree/axes.h"

#include <cassert>
#include <cstdint>

namespace xpv {

std::string_view AxisName(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kFollowingSibling:
      return "following_sibling";
    case Axis::kPrecedingSibling:
      return "preceding_sibling";
  }
  return "?";
}

Result<Axis> ParseAxis(std::string_view name) {
  if (name == "self") return Axis::kSelf;
  if (name == "child") return Axis::kChild;
  if (name == "parent") return Axis::kParent;
  if (name == "descendant") return Axis::kDescendant;
  if (name == "ancestor") return Axis::kAncestor;
  if (name == "following_sibling" || name == "following-sibling") {
    return Axis::kFollowingSibling;
  }
  if (name == "preceding_sibling" || name == "preceding-sibling") {
    return Axis::kPrecedingSibling;
  }
  return Status::InvalidArgument("unknown axis '" + std::string(name) + "'");
}

Axis InverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return Axis::kSelf;
    case Axis::kChild:
      return Axis::kParent;
    case Axis::kParent:
      return Axis::kChild;
    case Axis::kDescendant:
      return Axis::kAncestor;
    case Axis::kAncestor:
      return Axis::kDescendant;
    case Axis::kFollowingSibling:
      return Axis::kPrecedingSibling;
    case Axis::kPrecedingSibling:
      return Axis::kFollowingSibling;
  }
  return axis;
}

bool AxisHolds(const Tree& t, Axis axis, NodeId u, NodeId v) {
  switch (axis) {
    case Axis::kSelf:
      return u == v;
    case Axis::kChild:
      return t.parent(v) == u;
    case Axis::kParent:
      return t.parent(u) == v;
    case Axis::kDescendant:
      return u != v && t.IsAncestorOrSelf(u, v);
    case Axis::kAncestor:
      return u != v && t.IsAncestorOrSelf(v, u);
    case Axis::kFollowingSibling:
      return u != v && t.IsFollowingSiblingOrSelf(u, v);
    case Axis::kPrecedingSibling:
      return u != v && t.IsFollowingSiblingOrSelf(v, u);
  }
  return false;
}

BitMatrix AxisMatrix(const Tree& t, Axis axis) {
  // All builders are interval sweeps over the pre-order numbering: a
  // subtree is the contiguous id range [v, v + SubtreeSize(v)), so
  // descendant rows are single word-filled ranges and the sibling/ancestor
  // relations propagate by in-place row ORs -- no per-node walks and no
  // temporary row copies (the walk-based originals survive as
  // naive::AxisMatrix, the test oracle).
  const std::size_t n = t.size();
  BitMatrix m(n);
  switch (axis) {
    case Axis::kSelf:
      return BitMatrix::Identity(n);
    case Axis::kChild:
      for (NodeId v = 1; v < n; ++v) m.Set(t.parent(v), v);
      return m;
    case Axis::kParent:
      for (NodeId v = 1; v < n; ++v) m.Set(v, t.parent(v));
      return m;
    case Axis::kDescendant:
      // Row v = the proper subtree interval (v, v + SubtreeSize(v)).
      for (NodeId v = 0; v < n; ++v) {
        m.SetRowRange(v, v + 1, v + t.SubtreeSize(v));
      }
      return m;
    case Axis::kAncestor:
      // Row v = row of its parent plus the parent itself; parents precede
      // children in pre-order, so one forward sweep of in-place row ORs.
      for (NodeId v = 1; v < n; ++v) {
        m.OrRowIntoRow(v, t.parent(v));
        m.Set(v, t.parent(v));
      }
      return m;
    case Axis::kFollowingSibling:
      // Row v = row of its next sibling plus that sibling; next siblings
      // have larger ids, so sweep backwards.
      for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
        NodeId ns = t.next_sibling(v);
        if (ns != kNoNode) {
          m.OrRowIntoRow(v, ns);
          m.Set(v, ns);
        }
      }
      return m;
    case Axis::kPrecedingSibling:
      // Mirror of following_sibling: previous siblings have smaller ids.
      for (NodeId v = 1; v < n; ++v) {
        NodeId ps = t.prev_sibling(v);
        if (ps != kNoNode) {
          m.OrRowIntoRow(v, ps);
          m.Set(v, ps);
        }
      }
      return m;
  }
  return m;
}

IntervalMatrix AxisIntervalMatrix(const Tree& t, Axis axis) {
  // Runs come straight from the pre-order numbering: a subtree is the
  // contiguous id range [v, v + SubtreeSize(v)), so descendant rows are
  // single runs, and the ancestor / sibling relations extend an already
  // emitted neighbor row by one id (merging when the ids are adjacent).
  // Rows processed in increasing id order append into the CSR directly;
  // only following_sibling needs a counting pass, because it copies from
  // higher-id rows.
  const std::size_t n = t.size();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<IntervalRun> runs;
  // Appends runs[from_begin, from_end) (indices, not iterators: push_back
  // may reallocate) and then merges in the single id `extra` > all copied
  // column ids.
  const auto copy_then_append = [&runs](std::size_t from_begin,
                                        std::size_t from_end,
                                        std::uint32_t extra) {
    for (std::size_t i = from_begin; i < from_end; ++i) {
      const IntervalRun run = runs[i];
      runs.push_back(run);
    }
    if (!runs.empty() && from_begin < from_end && runs.back().end == extra) {
      runs.back().end = extra + 1;
    } else {
      runs.push_back({extra, extra + 1});
    }
  };
  switch (axis) {
    case Axis::kSelf:
      runs.reserve(n);
      for (NodeId v = 0; v < n; ++v) {
        offsets[v] = static_cast<std::uint32_t>(runs.size());
        runs.push_back({v, v + 1});
      }
      break;
    case Axis::kChild:
      for (NodeId v = 0; v < n; ++v) {
        offsets[v] = static_cast<std::uint32_t>(runs.size());
        // Children in increasing id order; child c is adjacent to its next
        // sibling iff its subtree is the single node c.
        for (NodeId c = t.first_child(v); c != kNoNode;) {
          NodeId next = t.next_sibling(c);
          std::uint32_t run_end = c + 1;
          while (next != kNoNode && next == run_end) {
            run_end = next + 1;
            next = t.next_sibling(next);
          }
          runs.push_back({c, run_end});
          c = next;
        }
      }
      break;
    case Axis::kParent:
      runs.reserve(n > 0 ? n - 1 : 0);
      for (NodeId v = 0; v < n; ++v) {
        offsets[v] = static_cast<std::uint32_t>(runs.size());
        const NodeId p = t.parent(v);
        if (p != kNoNode) runs.push_back({p, p + 1});
      }
      break;
    case Axis::kDescendant:
      for (NodeId v = 0; v < n; ++v) {
        offsets[v] = static_cast<std::uint32_t>(runs.size());
        const auto sub = static_cast<std::uint32_t>(t.SubtreeSize(v));
        if (sub > 1) runs.push_back({v + 1, v + sub});
      }
      break;
    case Axis::kAncestor:
      // Row v = row of its parent plus the parent itself; parents precede
      // children in pre-order and every ancestor id is < p, so one forward
      // sweep copying the (already emitted) parent row.
      for (NodeId v = 0; v < n; ++v) {
        offsets[v] = static_cast<std::uint32_t>(runs.size());
        const NodeId p = t.parent(v);
        if (p != kNoNode) copy_then_append(offsets[p], offsets[p + 1], p);
      }
      break;
    case Axis::kPrecedingSibling:
      // Row v = row of its previous sibling plus that sibling; previous
      // siblings have smaller ids, so again a forward sweep.
      for (NodeId v = 0; v < n; ++v) {
        offsets[v] = static_cast<std::uint32_t>(runs.size());
        const NodeId ps = t.prev_sibling(v);
        if (ps != kNoNode) copy_then_append(offsets[ps], offsets[ps + 1], ps);
      }
      break;
    case Axis::kFollowingSibling: {
      // Row v = {ns} plus row of ns, where ns = next_sibling(v) has a
      // LARGER id -- so count runs first, prefix-sum the offsets, then
      // fill backwards into the finished layout. {ns} merges with the
      // first run of row ns iff that run starts at ns + 1, i.e. iff ns's
      // subtree is the single node ns.
      std::vector<std::uint32_t> counts(n, 0);
      for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
        const NodeId ns = t.next_sibling(v);
        if (ns == kNoNode) continue;
        const bool merges = counts[ns] > 0 && t.SubtreeSize(ns) == 1;
        counts[v] = counts[ns] + (merges ? 0 : 1);
      }
      for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + counts[v];
      runs.resize(offsets[n]);
      for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
        const NodeId ns = t.next_sibling(v);
        if (ns == kNoNode) continue;
        std::uint32_t w = offsets[v];
        std::uint32_t src = offsets[ns];
        if (counts[ns] > 0 && t.SubtreeSize(ns) == 1) {
          runs[w++] = {ns, runs[src].end};
          ++src;
        } else {
          runs[w++] = {ns, ns + 1};
        }
        for (; src < offsets[ns + 1]; ++src) runs[w++] = runs[src];
      }
      return IntervalMatrix(n, std::move(offsets), std::move(runs));
    }
  }
  offsets[n] = static_cast<std::uint32_t>(runs.size());
  return IntervalMatrix(n, std::move(offsets), std::move(runs));
}

namespace {

// Marks next(u), next(next(u)), ... for every u in `from`, stopping at
// the end of the chain or at the first node already in `out`. Each walk
// leaves `out` closed under `next`, so that node's whole chain is
// already marked, every node is marked once, and all walks together
// cost O(|from| + |image|).
template <typename Next>
void MarkChains(const BitVector& from, BitVector& out, Next next) {
  from.ForEachSet([&](std::size_t u) {
    for (NodeId v = next(static_cast<NodeId>(u)); v != kNoNode && !out.Get(v);
         v = next(v)) {
      out.Set(v);
    }
  });
}

// True iff `from` holds at most `limit` nodes. Zero words are skipped and
// the count stops once it passes `limit`, so the push/pull decision stays
// a small part of a one-node step's cost.
bool AtMostSet(const BitVector& from, std::size_t limit) {
  std::size_t count = 0;
  for (const std::uint64_t word : from.words()) {
    if (word == 0) continue;
    count += static_cast<std::size_t>(__builtin_popcountll(word));
    if (count > limit) return false;
  }
  return true;
}

}  // namespace

BitVector AxisImage(const Tree& t, Axis axis, const BitVector& from) {
  const std::size_t n = t.size();
  assert(from.size() == n);
  BitVector out(n);
  const auto push = [&] { return AtMostSet(from, n / kAxisImagePushDivisor); };
  switch (axis) {
    case Axis::kSelf:
      out = from;
      return out;
    case Axis::kChild:
      if (push()) {
        from.ForEachSet([&](std::size_t u) {
          for (NodeId c = t.first_child(static_cast<NodeId>(u));
               c != kNoNode; c = t.next_sibling(c)) {
            out.Set(c);
          }
        });
        return out;
      }
      for (NodeId v = 0; v < n; ++v) {
        NodeId p = t.parent(v);
        if (p != kNoNode && from.Get(p)) out.Set(v);
      }
      return out;
    case Axis::kParent:
      from.ForEachSet([&](std::size_t v) {
        NodeId p = t.parent(static_cast<NodeId>(v));
        if (p != kNoNode) out.Set(p);
      });
      return out;
    case Axis::kDescendant:
      // A subtree is the interval [u, u + SubtreeSize(u)): fill it for
      // every frontier node u outside the subtrees already filled, then
      // jump past it. O(maximal frontier nodes + n / 64) word operations
      // at any frontier density.
      for (std::size_t u = from.FirstSet(); u < n;) {
        const std::size_t end = u + t.SubtreeSize(static_cast<NodeId>(u));
        out.SetRange(u + 1, end);
        u = from.NextSet(end);
      }
      return out;
    case Axis::kAncestor:
      if (push()) {
        MarkChains(from, out, [&t](NodeId v) { return t.parent(v); });
        return out;
      }
      // out[p] = from[child] or out[child] for any child; children follow
      // parents in pre-order, so sweep backwards.
      for (NodeId v = static_cast<NodeId>(n); v-- > 1;) {
        NodeId p = t.parent(v);
        if (from.Get(v) || out.Get(v)) out.Set(p);
      }
      return out;
    case Axis::kFollowingSibling:
      if (push()) {
        MarkChains(from, out, [&t](NodeId v) { return t.next_sibling(v); });
        return out;
      }
      // out[v] = from[prev_sibling] or out[prev_sibling]; previous siblings
      // have smaller pre-order ids.
      for (NodeId v = 1; v < n; ++v) {
        NodeId ps = t.prev_sibling(v);
        if (ps != kNoNode && (from.Get(ps) || out.Get(ps))) out.Set(v);
      }
      return out;
    case Axis::kPrecedingSibling:
      if (push()) {
        MarkChains(from, out, [&t](NodeId v) { return t.prev_sibling(v); });
        return out;
      }
      for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
        NodeId ns = t.next_sibling(v);
        if (ns != kNoNode && (from.Get(ns) || out.Get(ns))) out.Set(v);
      }
      return out;
  }
  return out;
}

BitVector LabelSet(const Tree& t, std::string_view label) {
  BitVector out(t.size());
  if (label.empty()) {
    out.Fill();
    return out;
  }
  LabelId id = t.FindLabel(label);
  if (id == kNoLabel) return out;
  // Posting lists make this O(occurrences), not O(|t|).
  for (NodeId v : t.LabelPostings(id)) out.Set(v);
  return out;
}

}  // namespace xpv
