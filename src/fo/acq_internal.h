// Internal shared machinery between the Yannakakis evaluator (acq.cc) and
// the answer enumerator (enumerate.cc): equality elimination, relation
// materialization, join-forest construction and the two semijoin passes.
// Not part of the public API.
#ifndef XPV_FO_ACQ_INTERNAL_H_
#define XPV_FO_ACQ_INTERNAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/cancel.h"
#include "fo/acq.h"
#include "tree/axis_cache.h"

namespace xpv::fo::internal {

/// Union-find over variable names (for equality elimination).
class VarUnionFind {
 public:
  std::string Find(const std::string& v);
  void Merge(const std::string& a, const std::string& b);

 private:
  std::map<std::string, std::string> parent_;
};

/// The reduced form of a query: representative variables, per-variable
/// candidate sets, and relation edges between them.
struct ReducedQuery {
  std::vector<std::string> vars;
  std::map<std::string, int> var_id;
  struct Edge {
    int u, v;
    BitMatrix relation;  // oriented u -> v with u < v
  };
  std::vector<Edge> edges;
  std::vector<BitVector> candidates;
};

/// Materializes relations, merges equalities, collapses parallel edges and
/// applies self-loop filters. Relation materialization draws axis
/// matrices from `axis_cache` when one is supplied (e.g. a stored
/// document's persistent cache); `cancel`, when non-null, is observed
/// between atom materializations so a slow preprocessing stops
/// cooperatively.
Status BuildReduced(const Tree& t, const ConjunctiveQuery& q,
                    VarUnionFind* uf, ReducedQuery* out,
                    std::shared_ptr<AxisCache> axis_cache = nullptr,
                    CancelToken* cancel = nullptr);

/// A rooted orientation of the (forest-shaped) variable graph.
struct Forest {
  std::vector<int> parent;       // -1 for roots
  std::vector<int> parent_edge;  // edge index, -1 for roots
  std::vector<int> order;        // BFS order, roots first
};

/// Returns false when the graph contains a cycle.
bool BuildForest(const ReducedQuery& rq, Forest* out);

/// Moves every edge relation out of `rq` into the parent relation of the
/// variable below it, oriented parent -> child (transposed where the
/// stored orientation differs), indexed by variable id; roots get an
/// empty matrix. Clears rq->edges.
std::vector<BitMatrix> TakeParentRelations(const Forest& forest,
                                           ReducedQuery* rq);

/// The two semijoin passes of Yannakakis' algorithm over the candidate
/// sets `cand` (by variable id), reading rows of `parent_rel` in place:
/// after this, every surviving candidate value extends to a full
/// solution.
void SemijoinReduce(const Forest& forest,
                    const std::vector<BitMatrix>& parent_rel,
                    std::vector<BitVector>* cand);

}  // namespace xpv::fo::internal

#endif  // XPV_FO_ACQ_INTERNAL_H_
