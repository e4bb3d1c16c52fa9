#include "fo/enumerate.h"

#include <algorithm>
#include <utility>

#include "fo/acq_internal.h"

namespace xpv::fo {

using internal::Forest;
using internal::ReducedQuery;

namespace {

/// Yannakakis projection optimization: existentially eliminates
/// non-output variables before enumeration. The Fig. 7 translation
/// plants projected closure variables (_start, composition midpoints)
/// into every compiled n-ary query; left in place, each would make the
/// output frames below it pay an extension check. Instead:
///
///   * a non-output LEAF v (degree 1, edge u-v) is absorbed into its
///     neighbor by one semijoin: cand[u] &= nonempty-rows of
///     rel(u->v) restricted to cand[v];
///   * a non-output DEGREE-2 variable v (edges a-v, v-b) is composed
///     away: the new a-b relation is M(a->v) . diag(cand[v]) . M(v->b)
///     (one Boolean product); a == b degenerates to a unary filter via
///     the product's diagonal;
///   * a non-output ISOLATED variable contributes only satisfiability:
///     an empty candidate set empties the whole query.
///
/// Iterated to fixpoint this strips every chain-shaped projection (all
/// union-free PPL images), so the surviving variable set is exactly the
/// output variables and every frame is entered by one row lookup.
/// Non-output variables of degree >= 3 (variables branching into a
/// filter) survive; the output frames below them run an extension check
/// (Impl::EnterFrame). Returns false when the query became
/// unsatisfiable.
Result<bool> EliminateNonOutputVars(const std::vector<int>& output_ids,
                                    ReducedQuery* rq, CancelToken* cancel) {
  const std::size_t n = rq->vars.size();
  std::vector<bool> is_output(n, false);
  for (int id : output_ids) is_output[static_cast<std::size_t>(id)] = true;
  std::vector<bool> alive(n, true);

  struct Edge {
    int u, v;          // u < v
    BitMatrix rel;     // oriented u -> v
    bool alive = true;
  };
  std::vector<Edge> edges;
  edges.reserve(rq->edges.size());
  for (auto& e : rq->edges) edges.push_back({e.u, e.v, std::move(e.relation)});

  auto degree_of = [&](int v) {
    int d = 0;
    for (const Edge& e : edges) {
      if (e.alive && (e.u == v || e.v == v)) ++d;
    }
    return d;
  };
  // Views e.rel oriented from -> other, transposing into `storage` only
  // when the stored orientation differs -- the aligned case must not
  // copy an O(|t|^2) matrix just to read it.
  auto oriented = [&](const Edge& e, int from,
                      BitMatrix& storage) -> const BitMatrix& {
    if (e.u == from) return e.rel;
    storage = e.rel.Transpose();
    return storage;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (int v = 0; v < static_cast<int>(n); ++v) {
      if (!alive[v] || is_output[static_cast<std::size_t>(v)]) continue;
      XPV_RETURN_IF_ERROR(cancel->CheckNow());
      const int deg = degree_of(v);
      const BitVector& cand_v = rq->candidates[static_cast<std::size_t>(v)];
      if (deg == 0) {
        if (cand_v.None()) return false;  // unsatisfiable
        alive[v] = false;
        changed = true;
        continue;
      }
      if (deg > 2) continue;
      // Collect the 1 or 2 live edges at v.
      std::vector<std::size_t> at;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].alive && (edges[i].u == v || edges[i].v == v)) {
          at.push_back(i);
        }
      }
      if (deg == 1) {
        Edge& e = edges[at[0]];
        const int u = e.u == v ? e.v : e.u;
        BitMatrix flipped;
        rq->candidates[static_cast<std::size_t>(u)].AndWith(
            oriented(e, u, flipped).MaskColumns(cand_v).NonEmptyRows());
        e.alive = false;
      } else {
        Edge& e1 = edges[at[0]];
        Edge& e2 = edges[at[1]];
        const int a = e1.u == v ? e1.v : e1.u;
        const int b = e2.u == v ? e2.v : e2.u;
        BitMatrix flipped1, flipped2;
        BitMatrix composed = oriented(e1, a, flipped1)
                                 .MaskColumns(cand_v)
                                 .Multiply(oriented(e2, v, flipped2));
        e1.alive = false;
        e2.alive = false;
        if (a == b) {
          // Both edges lead to one neighbor: a unary self-join filter.
          BitVector diag(composed.size());
          for (NodeId i = 0; i < composed.size(); ++i) {
            if (composed.Get(i, i)) diag.Set(i);
          }
          rq->candidates[static_cast<std::size_t>(a)].AndWith(diag);
        } else {
          BitMatrix rel =
              a < b ? std::move(composed) : composed.Transpose();
          const int lo = std::min(a, b), hi = std::max(a, b);
          bool merged = false;
          for (Edge& other : edges) {
            if (other.alive && other.u == lo && other.v == hi) {
              other.rel = other.rel.And(rel);
              merged = true;
              break;
            }
          }
          if (!merged) edges.push_back({lo, hi, std::move(rel)});
        }
      }
      alive[v] = false;
      changed = true;
    }
  }

  // Compact ids: surviving vars keep their relative order.
  std::vector<int> remap(n, -1);
  ReducedQuery out;
  for (std::size_t v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    remap[v] = static_cast<int>(out.vars.size());
    out.var_id[rq->vars[v]] = remap[v];
    out.vars.push_back(std::move(rq->vars[v]));
    out.candidates.push_back(std::move(rq->candidates[v]));
  }
  for (Edge& e : edges) {
    if (!e.alive) continue;
    out.edges.push_back({remap[e.u], remap[e.v], std::move(e.rel)});
  }
  *rq = std::move(out);
  return true;
}

}  // namespace

struct AcqEnumerator::Impl {
  ReducedQuery rq;
  Forest forest;
  std::vector<int> output_ids;
  AcqEnumeratorOptions options;

  /// Parent-edge relations oriented parent -> child, one per non-root
  /// variable (internal::TakeParentRelations), so each frame entry is
  /// one row lookup and each extension check reads rows in place.
  std::vector<BitMatrix> parent_rel;  // by var id; empty for roots

  /// The DFS frames: the distinct output variables, in forest.order.
  /// Projected variables that survive elimination are never assigned.
  std::vector<int> frames;
  std::vector<bool> is_frame;  // by var id
  /// Candidate sets of the latest extension check, by var id; allocated
  /// only when some frame's forest parent is a projected variable.
  std::vector<BitVector> pinned;

  // Resumable DFS state: current value per frame variable, kNoNode when
  // the frame is not yet entered. `depth` is the index of the next frame
  // to fill.
  std::vector<NodeId> assignment;         // by var id
  std::vector<BitVector> frame_choices;   // by frame
  std::vector<std::size_t> frame_cursor;  // next candidate to try
  int depth = 0;
  bool exhausted = false;
  bool started = false;

  std::size_t produced = 0;
  Status failed;  // sticky error from cancel

  /// Fills frame `pos`'s choices: exactly the values of its variable
  /// that extend the earlier frames' current values to a solution.
  void EnterFrame(std::size_t pos) {
    const int var = frames[pos];
    const int parent = forest.parent[var];
    BitVector& choices = frame_choices[pos];
    if (parent < 0) {
      // A root: earlier frames lie in other, independent components.
      choices = rq.candidates[var];
    } else if (is_frame[parent]) {
      // With the parent fixed, var's subtree does not depend on the
      // rest of the forest.
      parent_rel[var].CopyRowInto(assignment[parent], choices);
      choices.AndWith(rq.candidates[var]);
    } else {
      // An extension check: pin the earlier frames to their current
      // values and rerun both semijoin passes. A full reducer leaves an
      // acyclic query globally consistent, so what survives in
      // cand(var) is exactly the values that extend to a solution.
      pinned = rq.candidates;  // same sizes: reuses the storage
      for (std::size_t j = 0; j < pos; ++j) {
        pinned[frames[j]].Clear();
        pinned[frames[j]].Set(assignment[frames[j]]);
      }
      internal::SemijoinReduce(forest, parent_rel, &pinned);
      choices = pinned[var];
    }
    frame_cursor[pos] = choices.FirstSet();
  }

  /// Advances the DFS to the next distinct output assignment; returns
  /// false when exhausted.
  bool NextAssignment() {
    if (exhausted) return false;
    const int num_frames = static_cast<int>(frames.size());
    if (num_frames == 0) {
      // No output variable: the satisfiable query has one answer, the
      // empty tuple.
      if (started) {
        exhausted = true;
        return false;
      }
      started = true;
      return true;
    }
    if (!started) {
      started = true;
      depth = 0;
      EnterFrame(0);
    } else {
      // Resume by advancing the deepest frame.
      depth = num_frames - 1;
      frame_cursor[depth] =
          frame_choices[depth].NextSet(frame_cursor[depth] + 1);
    }
    while (true) {
      if (depth < 0) {
        exhausted = true;
        return false;
      }
      if (frame_cursor[depth] >= frame_choices[depth].size()) {
        // Frame exhausted: backtrack.
        assignment[frames[depth]] = kNoNode;
        --depth;
        if (depth >= 0) {
          frame_cursor[depth] =
              frame_choices[depth].NextSet(frame_cursor[depth] + 1);
        }
        continue;
      }
      assignment[frames[depth]] = static_cast<NodeId>(frame_cursor[depth]);
      if (depth + 1 == num_frames) return true;  // all outputs assigned
      ++depth;
      EnterFrame(static_cast<std::size_t>(depth));
    }
  }

  xpath::NodeTuple Project() const {
    xpath::NodeTuple tuple(output_ids.size());
    for (std::size_t i = 0; i < output_ids.size(); ++i) {
      tuple[i] = assignment[output_ids[i]];
    }
    return tuple;
  }
};

Result<AcqEnumerator> AcqEnumerator::Create(const Tree& t,
                                            const ConjunctiveQuery& q,
                                            AcqEnumeratorOptions options) {
  auto impl = std::make_unique<Impl>();
  impl->options = std::move(options);
  internal::VarUnionFind uf;
  XPV_RETURN_IF_ERROR(internal::BuildReduced(t, q, &uf, &impl->rq,
                                             impl->options.axis_cache,
                                             &impl->options.cancel));
  // Cyclicity is judged on the raw variable graph (the documented
  // contract); elimination below may only shrink it.
  if (!internal::BuildForest(impl->rq, &impl->forest)) {
    return Status::InvalidArgument("query is cyclic: " + q.ToString());
  }
  XPV_RETURN_IF_ERROR(impl->options.cancel.CheckNow());

  // Existentially eliminate projected variables, then rebuild the
  // forest over the survivors and semijoin-reduce it.
  std::vector<int> raw_output_ids;
  for (const std::string& v : q.output_vars) {
    raw_output_ids.push_back(impl->rq.var_id.at(uf.Find(v)));
  }
  XPV_ASSIGN_OR_RETURN(
      const bool satisfiable,
      EliminateNonOutputVars(raw_output_ids, &impl->rq,
                             &impl->options.cancel));
  if (!satisfiable) {
    // A projected component with no candidates empties the answer set.
    impl->exhausted = true;
    impl->rq = ReducedQuery{};
    impl->forest = Forest{};
    return AcqEnumerator(std::move(impl));
  }
  if (!internal::BuildForest(impl->rq, &impl->forest)) {
    return Status::Internal("elimination produced a cyclic graph");
  }
  impl->parent_rel = internal::TakeParentRelations(impl->forest, &impl->rq);
  internal::SemijoinReduce(impl->forest, impl->parent_rel,
                           &impl->rq.candidates);
  const std::size_t num_vars = impl->rq.vars.size();
  for (const BitVector& cand : impl->rq.candidates) {
    // After the full reducer an empty set empties its whole component.
    if (cand.None()) impl->exhausted = true;
  }
  for (const std::string& v : q.output_vars) {
    impl->output_ids.push_back(impl->rq.var_id.at(uf.Find(v)));
  }
  impl->is_frame.assign(num_vars, false);
  for (int id : impl->output_ids) impl->is_frame[id] = true;
  bool needs_check = false;
  for (int var : impl->forest.order) {
    if (!impl->is_frame[var]) continue;
    impl->frames.push_back(var);
    const int parent = impl->forest.parent[var];
    if (parent >= 0 && !impl->is_frame[parent]) needs_check = true;
  }
  if (needs_check) impl->pinned.assign(num_vars, BitVector(t.size()));
  impl->assignment.assign(num_vars, kNoNode);
  impl->frame_choices.assign(impl->frames.size(), BitVector(t.size()));
  impl->frame_cursor.assign(impl->frames.size(), 0);
  return AcqEnumerator(std::move(impl));
}

AcqEnumerator::AcqEnumerator(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
AcqEnumerator::AcqEnumerator(AcqEnumerator&&) noexcept = default;
AcqEnumerator& AcqEnumerator::operator=(AcqEnumerator&&) noexcept = default;
AcqEnumerator::~AcqEnumerator() = default;

Result<std::optional<xpath::NodeTuple>> AcqEnumerator::Next() {
  if (!impl_->failed.ok()) return impl_->failed;  // sticky
  Status live = impl_->options.cancel.Check();
  if (!live.ok()) {
    impl_->failed = live;
    return live;
  }
  if (!impl_->NextAssignment()) return std::optional<xpath::NodeTuple>();
  ++impl_->produced;
  return std::optional<xpath::NodeTuple>(impl_->Project());
}

std::size_t AcqEnumerator::produced() const { return impl_->produced; }

std::size_t AcqEnumerator::resident_bytes() const {
  std::size_t bytes = impl_->assignment.capacity() * sizeof(NodeId) +
                      impl_->frame_cursor.capacity() * sizeof(std::size_t);
  for (const BitVector& frame : impl_->frame_choices) {
    bytes += frame.words().capacity() * sizeof(std::uint64_t);
  }
  for (const BitVector& cand : impl_->pinned) {
    bytes += cand.words().capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace xpv::fo
