#include "fo/acq.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <utility>

#include "fo/acq_internal.h"
#include "fo/positive.h"

namespace xpv::fo {

namespace internal {

std::string VarUnionFind::Find(const std::string& v) {
  auto it = parent_.find(v);
  if (it == parent_.end()) {
    parent_[v] = v;
    return v;
  }
  if (it->second == v) return v;
  std::string root = Find(it->second);
  parent_[v] = root;
  return root;
}

void VarUnionFind::Merge(const std::string& a, const std::string& b) {
  parent_[Find(a)] = Find(b);
}

Status BuildReduced(const Tree& t, const ConjunctiveQuery& q,
                    VarUnionFind* uf, ReducedQuery* out,
                    std::shared_ptr<AxisCache> axis_cache,
                    CancelToken* cancel) {
  for (const auto& [a, b] : q.equalities) uf->Merge(a, b);

  auto intern = [&](const std::string& v) -> int {
    std::string rep = uf->Find(v);
    auto it = out->var_id.find(rep);
    if (it != out->var_id.end()) return it->second;
    int id = static_cast<int>(out->vars.size());
    out->var_id[rep] = id;
    out->vars.push_back(rep);
    BitVector all(t.size());
    all.Fill();
    out->candidates.push_back(std::move(all));
    return id;
  };

  // Collapse parallel atoms between the same variable pair by intersecting
  // their relations; orient edges u < v consistently.
  std::map<std::pair<int, int>, BitMatrix> edge_map;
  std::map<const hcl::BinaryQuery*, BitMatrix> rel_cache;
  auto eval_rel =
      [&](const hcl::BinaryQueryPtr& b) -> Result<const BitMatrix*> {
    auto it = rel_cache.find(b.get());
    if (it == rel_cache.end()) {
      BitMatrix rel(0);
      if (axis_cache != nullptr) {
        XPV_ASSIGN_OR_RETURN(rel, b->EvaluateCached(axis_cache));
      } else {
        rel = b->Evaluate(t);
      }
      it = rel_cache.emplace(b.get(), std::move(rel)).first;
    }
    return &it->second;
  };

  for (const CqAtom& atom : q.atoms) {
    if (cancel != nullptr) XPV_RETURN_IF_ERROR(cancel->CheckNow());
    int ux = intern(atom.x);
    int uy = intern(atom.y);
    XPV_ASSIGN_OR_RETURN(const BitMatrix* rel_ptr, eval_rel(atom.rel));
    const BitMatrix& rel = *rel_ptr;
    if (ux == uy) {
      // Self-loop: unary filter { u | rel(u,u) }.
      BitVector diag(t.size());
      for (NodeId u = 0; u < t.size(); ++u) {
        if (rel.Get(u, u)) diag.Set(u);
      }
      out->candidates[ux].AndWith(diag);
      continue;
    }
    BitMatrix oriented = ux < uy ? rel : rel.Transpose();
    auto key = std::minmax(ux, uy);
    auto it = edge_map.find({key.first, key.second});
    if (it == edge_map.end()) {
      edge_map.emplace(std::make_pair(key.first, key.second),
                       std::move(oriented));
    } else {
      it->second = it->second.And(oriented);
    }
  }
  for (auto& [key, rel] : edge_map) {
    out->edges.push_back({key.first, key.second, std::move(rel)});
  }
  // Output variables not in any atom still need candidate sets.
  for (const std::string& v : q.output_vars) intern(v);
  return Status::OK();
}

bool BuildForest(const ReducedQuery& rq, Forest* out) {
  const int n = static_cast<int>(rq.vars.size());
  std::vector<std::vector<std::pair<int, int>>> adj(n);  // (neighbor, edge)
  for (int e = 0; e < static_cast<int>(rq.edges.size()); ++e) {
    adj[rq.edges[e].u].push_back({rq.edges[e].v, e});
    adj[rq.edges[e].v].push_back({rq.edges[e].u, e});
  }
  out->parent.assign(n, -2);  // -2 = unvisited
  out->parent_edge.assign(n, -1);
  out->order.clear();
  for (int root = 0; root < n; ++root) {
    if (out->parent[root] != -2) continue;
    out->parent[root] = -1;
    std::vector<int> queue = {root};
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      int u = queue[qi];
      out->order.push_back(u);
      for (auto [v, e] : adj[u]) {
        if (e == out->parent_edge[u]) continue;
        if (out->parent[v] != -2) return false;  // cycle
        out->parent[v] = u;
        out->parent_edge[v] = e;
        queue.push_back(v);
      }
    }
  }
  return true;
}

std::vector<BitMatrix> TakeParentRelations(const Forest& forest,
                                           ReducedQuery* rq) {
  std::vector<BitMatrix> parent_rel(rq->vars.size());
  for (std::size_t child = 0; child < parent_rel.size(); ++child) {
    if (forest.parent[child] < 0) continue;
    ReducedQuery::Edge& edge = rq->edges[forest.parent_edge[child]];
    parent_rel[child] = edge.u == forest.parent[child]
                            ? std::move(edge.relation)
                            : edge.relation.Transpose();
  }
  rq->edges.clear();
  return parent_rel;
}

void SemijoinReduce(const Forest& forest,
                    const std::vector<BitMatrix>& parent_rel,
                    std::vector<BitVector>* cand) {
  // Bottom-up: children before parents (reverse BFS order); u stays in
  // cand(parent) when row u meets cand(child).
  for (auto it = forest.order.rbegin(); it != forest.order.rend(); ++it) {
    const int child = *it;
    if (forest.parent[child] < 0) continue;
    BitVector& up = (*cand)[forest.parent[child]];
    for (std::size_t u = up.FirstSet(); u < up.size();
         u = up.NextSet(u + 1)) {
      if (!parent_rel[child].RowIntersects(u, (*cand)[child])) up.Reset(u);
    }
  }
  // Top-down: parents before children (BFS order).
  for (int child : forest.order) {
    if (forest.parent[child] < 0) continue;
    (*cand)[child].AndWith(
        parent_rel[child].ImageOf((*cand)[forest.parent[child]]));
  }
}

}  // namespace internal

using internal::BuildForest;
using internal::BuildReduced;
using internal::Forest;
using internal::ReducedQuery;
using internal::SemijoinReduce;
using internal::TakeParentRelations;
using internal::VarUnionFind;

std::set<std::string> ConjunctiveQuery::AllVars() const {
  std::set<std::string> out;
  for (const auto& atom : atoms) {
    out.insert(atom.x);
    out.insert(atom.y);
  }
  for (const auto& [a, b] : equalities) {
    out.insert(a);
    out.insert(b);
  }
  for (const auto& v : output_vars) out.insert(v);
  return out;
}

std::string ConjunctiveQuery::ToString() const {
  std::string out;
  bool first = true;
  for (const auto& atom : atoms) {
    if (!first) out += " & ";
    first = false;
    out += atom.rel->ToString() + "(" + atom.x + "," + atom.y + ")";
  }
  for (const auto& [a, b] : equalities) {
    if (!first) out += " & ";
    first = false;
    out += a + "=" + b;
  }
  return out;
}

bool IsAcyclic(const ConjunctiveQuery& q) {
  // Structure-only check: no relation evaluation needed. Build the merged
  // variable graph and test forest-ness.
  VarUnionFind uf;
  for (const auto& [a, b] : q.equalities) uf.Merge(a, b);
  std::map<std::string, int> id;
  auto intern = [&](const std::string& v) {
    std::string rep = uf.Find(v);
    auto [it, inserted] = id.emplace(rep, static_cast<int>(id.size()));
    return it->second;
  };
  std::set<std::pair<int, int>> edges;
  for (const auto& atom : q.atoms) {
    int ux = intern(atom.x);
    int uy = intern(atom.y);
    if (ux == uy) continue;
    edges.insert({std::min(ux, uy), std::max(ux, uy)});
  }
  // Forest iff adding every edge joins two distinct components.
  std::vector<int> parent(id.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<int>(i);
  }
  std::function<int(int)> find = [&](int v) {
    return parent[v] == v ? v : parent[v] = find(parent[v]);
  };
  for (auto [u, v] : edges) {
    int ru = find(u);
    int rv = find(v);
    if (ru == rv) return false;  // cycle
    parent[ru] = rv;
  }
  return true;
}

Result<xpath::TupleSet> AnswerAcqYannakakis(const Tree& t,
                                            const ConjunctiveQuery& q) {
  VarUnionFind uf;
  ReducedQuery rq;
  XPV_RETURN_IF_ERROR(BuildReduced(t, q, &uf, &rq));
  Forest forest;
  if (!BuildForest(rq, &forest)) {
    return Status::InvalidArgument("query is cyclic: " + q.ToString());
  }
  const std::vector<BitMatrix> parent_rel = TakeParentRelations(forest, &rq);
  SemijoinReduce(forest, parent_rel, &rq.candidates);

  // Enumeration: assign every variable in BFS order; each child's choices
  // are the parent's successors intersected with its candidate set. After
  // the two semijoin passes every choice extends to a full solution, so
  // the walk never dead-ends, but it visits every assignment: assignments
  // that differ only on projected variables land on one tuple, and the
  // set absorbs them. AcqEnumerator walks the output variables only.
  std::vector<int> output_ids;
  for (const std::string& v : q.output_vars) {
    output_ids.push_back(rq.var_id.at(uf.Find(v)));
  }

  xpath::TupleSet answers;
  std::vector<NodeId> assignment(rq.vars.size(), kNoNode);
  std::function<void(std::size_t)> enumerate = [&](std::size_t idx) {
    if (idx == forest.order.size()) {
      xpath::NodeTuple tuple(output_ids.size());
      for (std::size_t i = 0; i < output_ids.size(); ++i) {
        tuple[i] = assignment[output_ids[i]];
      }
      answers.insert(std::move(tuple));
      return;
    }
    int var = forest.order[idx];
    BitVector choices = rq.candidates[var];
    if (forest.parent[var] >= 0) {
      choices.AndWith(parent_rel[var].Row(assignment[forest.parent[var]]));
    }
    choices.ForEachSet([&](std::size_t u) {
      assignment[var] = static_cast<NodeId>(u);
      enumerate(idx + 1);
    });
    assignment[var] = kNoNode;
  };
  enumerate(0);
  return answers;
}

xpath::TupleSet AnswerCqNaive(const Tree& t, const ConjunctiveQuery& q) {
  const std::size_t n = t.size();
  const std::set<std::string> all_vars = q.AllVars();
  const std::vector<std::string> vars(all_vars.begin(), all_vars.end());

  std::map<const hcl::BinaryQuery*, BitMatrix> rel_cache;
  auto eval_rel = [&](const hcl::BinaryQueryPtr& b) -> const BitMatrix& {
    auto it = rel_cache.find(b.get());
    if (it == rel_cache.end()) {
      it = rel_cache.emplace(b.get(), b->Evaluate(t)).first;
    }
    return it->second;
  };

  xpath::TupleSet answers;
  std::map<std::string, NodeId> nu;
  std::vector<NodeId> counters(vars.size(), 0);
  while (true) {
    for (std::size_t i = 0; i < vars.size(); ++i) nu[vars[i]] = counters[i];
    bool holds = true;
    for (const auto& atom : q.atoms) {
      if (!eval_rel(atom.rel).Get(nu[atom.x], nu[atom.y])) {
        holds = false;
        break;
      }
    }
    if (holds) {
      for (const auto& [a, b] : q.equalities) {
        if (nu[a] != nu[b]) {
          holds = false;
          break;
        }
      }
    }
    if (holds) {
      xpath::NodeTuple tuple(q.output_vars.size());
      for (std::size_t i = 0; i < q.output_vars.size(); ++i) {
        tuple[i] = nu[q.output_vars[i]];
      }
      answers.insert(std::move(tuple));
    }
    std::size_t i = 0;
    for (; i < counters.size(); ++i) {
      if (++counters[i] < n) break;
      counters[i] = 0;
    }
    if (i == counters.size() || vars.empty()) break;
  }
  return answers;
}

Result<ConjunctiveQuery> HclToConjunctive(
    const hcl::HclExpr& c, const std::vector<std::string>& tuple_vars) {
  // Reuse the Proposition 6 translation, which on union-free input yields
  // a conjunction of atoms and equalities; then flatten.
  PositivePtr xi = HclToPositive(c, "_start", "_end");
  ConjunctiveQuery q;
  q.output_vars = tuple_vars;
  std::function<Status(const PositiveFormula&)> flatten =
      [&](const PositiveFormula& f) -> Status {
    switch (f.kind) {
      case PositiveKind::kAtom:
        q.atoms.push_back({f.atom, f.x, f.y});
        return Status::OK();
      case PositiveKind::kEq:
        q.equalities.push_back({f.x, f.y});
        return Status::OK();
      case PositiveKind::kAnd:
        XPV_RETURN_IF_ERROR(flatten(*f.a));
        return flatten(*f.b);
      case PositiveKind::kOr:
        return Status::InvalidArgument(
            "HclToConjunctive requires a union-free formula");
    }
    return Status::Internal("unreachable");
  };
  XPV_RETURN_IF_ERROR(flatten(*xi));
  return q;
}

}  // namespace xpv::fo
