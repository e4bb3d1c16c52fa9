#include "hcl/answer.h"

#include <algorithm>
#include <cassert>

namespace xpv::hcl {

QueryAnswerer::QueryAnswerer(const Tree& t, const HclExpr& c,
                             std::vector<std::string> tuple_vars,
                             AnswerOptions options,
                             std::shared_ptr<AxisCache> axis_cache)
    : tree_(t),
      expr_(c),
      tuple_vars_(std::move(tuple_vars)),
      options_(options),
      axis_cache_(std::move(axis_cache)) {
  for (const auto& v : tuple_vars_) {
    if (!var_index_.contains(v)) {
      var_index_[v] = static_cast<int>(query_vars_.size());
      query_vars_.push_back(v);
    }
  }
}

Status QueryAnswerer::Prepare() {
  XPV_RETURN_IF_ERROR(CheckNoSharedComposition(expr_));
  form_ = SharingForm::FromHcl(expr_);

  // Precompile all binary queries into successor lists, sharing one
  // per-tree axis cache across every leaf of the composition (and with
  // the caller, e.g. other batch jobs on this tree, when one was given).
  if (axis_cache_ == nullptr) axis_cache_ = std::make_shared<AxisCache>(tree_);
  std::set<const BinaryQuery*> same_rows;
  for (const BinaryQueryPtr& b : form_->binary_queries()) {
    XPV_RETURN_IF_ERROR(options_.cancel.CheckNow());
    XPV_ASSIGN_OR_RETURN(BitMatrix relation, b->EvaluateCached(axis_cache_));
    std::vector<std::vector<NodeId>> adj(tree_.size());
    for (NodeId u = 0; u < tree_.size(); ++u) {
      relation.ForEachInRow(u, [&](std::size_t v) {
        adj[u].push_back(static_cast<NodeId>(v));
      });
    }
    if (std::all_of(adj.begin(), adj.end(),
                    [&](const std::vector<NodeId>& row) {
                      return row == adj.front();
                    })) {
      same_rows.insert(b.get());
    }
    successors_.emplace(b.get(), std::move(adj));
  }
  row_independent_.assign(form_->num_subformulas(), false);
  for (std::size_t id = 0; id < form_->num_subformulas(); ++id) {
    const SharingExpr& d = form_->Subformula(static_cast<int>(id));
    row_independent_[id] = d.kind == SharingKind::kCompose &&
                           d.prefix->kind == PrefixKind::kBinary &&
                           same_rows.contains(d.prefix->binary.get());
  }

  // MC table, computed for every (subformula, node) pair -- the dynamic
  // program of Proposition 10. Memoized recursion; the table is total so
  // Vals() can consult any entry. Skipped entirely under the E11
  // no-filter ablation.
  if (options_.use_mc_filter) {
    mc_.assign(form_->num_subformulas() * tree_.size(), -1);
    for (std::size_t id = 0; id < form_->num_subformulas(); ++id) {
      for (NodeId u = 0; u < tree_.size(); ++u) {
        XPV_RETURN_IF_ERROR(options_.cancel.Check());
        ComputeMc(form_->Subformula(static_cast<int>(id)), u);
      }
    }
  } else {
    mc_.assign(form_->num_subformulas() * tree_.size(), 1);
  }

  vals_memo_.assign(form_->num_subformulas() * tree_.size(), std::nullopt);
  prepared_ = true;
  return Status::OK();
}

bool QueryAnswerer::ComputeMc(const SharingExpr& d, NodeId u) {
  signed char& cell = mc_[static_cast<std::size_t>(d.id) * tree_.size() + u];
  if (cell != -1) return cell == 1;
  bool value = false;
  switch (d.kind) {
    case SharingKind::kSelf:
      // MC(self, u) = 1.
      value = true;
      break;
    case SharingKind::kParam:
      // MC(p, u) = MC(Delta(p), u).
      value = ComputeMc(form_->Def(d.param), u);
      break;
    case SharingKind::kUnion:
      // MC(D u D', u) = MC(D, u) or MC(D', u).
      value = ComputeMc(*d.left, u) || ComputeMc(*d.right, u);
      break;
    case SharingKind::kCompose: {
      const PrefixExpr& e = *d.prefix;
      switch (e.kind) {
        case PrefixKind::kBinary: {
          // MC(b/D, u) = OR over (u,u') in q_b(t) of MC(D, u').
          const auto& adj = successors_.at(e.binary.get());
          for (NodeId v : adj[u]) {
            value = ComputeMc(*d.left, v) || value;
          }
          break;
        }
        case PrefixKind::kVar:
          // MC(x/D, u) = MC(D, u): by NVS(/), x does not occur in D, so x
          // can always be bound to u independently.
          value = ComputeMc(*d.left, u);
          break;
        case PrefixKind::kFilter:
          // MC([D]/D', u) = MC(D, u) and MC(D', u): by NVS(/) the two
          // sides are variable-disjoint, hence independently satisfiable.
          value = ComputeMc(*e.filter_body, u) && ComputeMc(*d.left, u);
          break;
      }
      break;
    }
  }
  cell = value ? 1 : 0;
  return value;
}

std::vector<int> QueryAnswerer::VarIndicesOf(int subformula_id) const {
  std::vector<int> out;
  for (const std::string& v : form_->VarsOf(subformula_id)) {
    auto it = var_index_.find(v);
    if (it != var_index_.end()) out.push_back(it->second);
  }
  return out;
}

ValuationSet QueryAnswerer::Extend(
    const ValuationSet& in, const std::vector<int>& target_positions) const {
  ValuationSet out;
  const std::size_t n = tree_.size();
  for (const PartialValuation& base : in) {
    std::vector<int> missing;
    for (int pos : target_positions) {
      if (base[pos] == kNoNode) missing.push_back(pos);
    }
    if (missing.empty()) {
      out.insert(base);
      continue;
    }
    PartialValuation tuple = base;
    std::vector<NodeId> counters(missing.size(), 0);
    while (true) {
      for (std::size_t i = 0; i < missing.size(); ++i) {
        tuple[missing[i]] = counters[i];
      }
      out.insert(tuple);
      std::size_t i = 0;
      for (; i < counters.size(); ++i) {
        if (++counters[i] < n) break;
        counters[i] = 0;
      }
      if (i == counters.size()) break;
    }
  }
  return out;
}

const ValuationSet& QueryAnswerer::Vals(const SharingExpr& d, NodeId u,
                                        ValuationSet& scratch) {
  static const ValuationSet kNone;
  // Cooperative cancellation: once the token fires, the whole recursion
  // unwinds fast through empty sets (checked first, so an interrupted
  // run does no further work) and nothing more is memoized -- a partial
  // ValuationSet in the memo would corrupt later reuse.
  if (!interrupted_.ok()) return kNone;
  if (Status live = options_.cancel.Check(); !live.ok()) {
    interrupted_ = live;
    return kNone;
  }
  // Fig. 8 line 3: filter unsatisfiable cases through the MC table.
  // (Under the no-filter ablation the table is all-ones, so every branch
  // is explored and dead valuations are discarded only at merge points.)
  if (!Mc(d.id, u)) return kNone;
  if (!options_.memoize_vals) {
    scratch = ValsCompute(d, u);
    return scratch;
  }
  // vals_memo_ never reallocates (sized in Prepare), so the reference
  // stays valid across the recursive ValsCompute. A row-independent
  // subformula has one slot for every u.
  const NodeId slot_u = row_independent_[d.id] ? 0 : u;
  std::optional<ValuationSet>& memo =
      vals_memo_[static_cast<std::size_t>(d.id) * tree_.size() + slot_u];
  if (memo.has_value()) return *memo;
  ValuationSet out = ValsCompute(d, u);
  if (!interrupted_.ok()) return kNone;
  memo = std::move(out);
  return *memo;
}

ValuationSet QueryAnswerer::ValsOwned(const SharingExpr& d, NodeId u) {
  ValuationSet scratch;
  const ValuationSet& vals = Vals(d, u, scratch);
  if (&vals == &scratch) return scratch;
  return vals;
}

ValuationSet QueryAnswerer::ValsCompute(const SharingExpr& d, NodeId u) {
  ValuationSet out;
  const PartialValuation empty_valuation(query_vars_.size(), kNoNode);
  switch (d.kind) {
    case SharingKind::kSelf:
      // vals(self, u) = { epsilon }.
      out.insert(empty_valuation);
      break;
    case SharingKind::kParam:
      out = ValsOwned(form_->Def(d.param), u);
      break;
    case SharingKind::kUnion: {
      // Both branches are extended to be total on Var((D u D')_Delta)
      // intersected with the query variables, then unioned; this
      // deduplicates valuations that differ only on variables free in the
      // other branch.
      const std::vector<int> target = VarIndicesOf(d.id);
      ValuationSet scratch;
      ValuationSet l = Extend(Vals(*d.left, u, scratch), target);
      ValuationSet r = Extend(Vals(*d.right, u, scratch), target);
      out = std::move(l);
      out.insert(r.begin(), r.end());
      break;
    }
    case SharingKind::kCompose: {
      const PrefixExpr& e = *d.prefix;
      switch (e.kind) {
        case PrefixKind::kBinary: {
          // vals(b/D', u) = union over successors u' of vals(D', u').
          // Successors that share one memoized set (a row-independent
          // continuation) contribute it once.
          const auto& adj = successors_.at(e.binary.get());
          ValuationSet scratch;
          const ValuationSet* merged = nullptr;
          for (NodeId v : adj[u]) {
            const ValuationSet& sub = Vals(*d.left, v, scratch);
            if (&sub == merged) continue;
            if (&sub != &scratch) merged = &sub;
            out.insert(sub.begin(), sub.end());
          }
          break;
        }
        case PrefixKind::kVar: {
          auto it = var_index_.find(e.var);
          if (it != var_index_.end()) {
            // x in x: bind x to u in every valuation of the continuation.
            ValuationSet scratch;
            for (PartialValuation val : Vals(*d.left, u, scratch)) {
              assert(val[it->second] == kNoNode &&
                     "NVS(/) guarantees x is unset in the continuation");
              val[it->second] = u;
              out.insert(std::move(val));
            }
          } else {
            // x projected away: vals(D', u) unchanged.
            out = ValsOwned(*d.left, u);
          }
          break;
        }
        case PrefixKind::kFilter: {
          // vals([D']/D'', u) = pairwise disjoint unions alpha' . alpha''.
          ValuationSet filter_scratch;
          ValuationSet rest_scratch;
          const ValuationSet& filter_vals =
              Vals(*e.filter_body, u, filter_scratch);
          const ValuationSet& rest_vals = Vals(*d.left, u, rest_scratch);
          for (const PartialValuation& a : filter_vals) {
            for (const PartialValuation& b : rest_vals) {
              PartialValuation merged = a;
              for (std::size_t i = 0; i < merged.size(); ++i) {
                if (b[i] != kNoNode) {
                  assert(merged[i] == kNoNode &&
                         "NVS(/) guarantees disjoint valuation domains");
                  merged[i] = b[i];
                }
              }
              out.insert(std::move(merged));
            }
          }
          break;
        }
      }
      break;
    }
  }
  return out;
}

Result<xpath::TupleSet> QueryAnswerer::Answer() {
  assert(prepared_ && "call Prepare() first");
  XPV_RETURN_IF_ERROR(interrupted_);
  // partial_vals = union over u of vals(D, u).
  ValuationSet partial_vals;
  ValuationSet scratch;
  const ValuationSet* merged = nullptr;
  for (NodeId u = 0; u < tree_.size(); ++u) {
    const ValuationSet& at_u = Vals(form_->root(), u, scratch);
    XPV_RETURN_IF_ERROR(interrupted_);
    if (&at_u == merged) continue;  // a row-independent root's one set
    if (&at_u != &scratch) merged = &at_u;
    partial_vals.insert(at_u.begin(), at_u.end());
  }
  // valuations = extend_{t,x}(partial_vals).
  std::vector<int> all_positions(query_vars_.size());
  for (std::size_t i = 0; i < all_positions.size(); ++i) {
    all_positions[i] = static_cast<int>(i);
  }
  ValuationSet valuations = Extend(partial_vals, all_positions);
  // return { alpha(x) | alpha in valuations }.
  xpath::TupleSet answers;
  for (const PartialValuation& val : valuations) {
    xpath::NodeTuple tuple(tuple_vars_.size());
    for (std::size_t i = 0; i < tuple_vars_.size(); ++i) {
      tuple[i] = val[var_index_.at(tuple_vars_[i])];
    }
    answers.insert(std::move(tuple));
  }
  return answers;
}

Result<xpath::TupleSet> AnswerQuery(
    const Tree& t, const HclExpr& c,
    const std::vector<std::string>& tuple_vars) {
  QueryAnswerer answerer(t, c, tuple_vars);
  XPV_RETURN_IF_ERROR(answerer.Prepare());
  return answerer.Answer();
}

}  // namespace xpv::hcl
