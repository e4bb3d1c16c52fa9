// The full binary relation of a positive (complement-free) PPLbin
// expression by the Gottlob-Koch-Pichler successor-set trick recalled in
// Section 4 of the paper: the image S_P(N) of a node set N is computable
// in O(|P| |t|), so one image per start node yields [[P]] in
// O(|P| |t|^2). The paper points out the asymmetry: "it is not clear
// whether this trick can be used for evaluating PPLbin, since the except
// operator can occur at any position" -- hence the matrix algorithm for
// the full language, and this per-source loop for its positive part.
//
// The images themselves come from MatrixEngine's row-restricted sweep
// (ppl/matrix_engine.h), the system's one set-image evaluator; monadic
// queries take that sweep directly. GKP is a full-relation route only:
// this engine adds the per-source loop over domain(P) and a whole-relation
// RelationCache consult under its own "gkp" tag.
#ifndef XPV_PPL_GKP_ENGINE_H_
#define XPV_PPL_GKP_ENGINE_H_

#include <memory>

#include "common/bit_matrix.h"
#include "common/cancel.h"
#include "common/status.h"
#include "ppl/matrix_engine.h"
#include "ppl/pplbin.h"
#include "tree/axis_cache.h"
#include "tree/tree.h"

namespace xpv::ppl {

class RelationCache;

/// Section 4 per-source full-relation evaluator for positive PPLbin.
/// Label sets and filter domains are shared across the loop's images, so
/// the full relation costs O(|P| |t| |domain(P)|) overall. Label sets come
/// from an AxisCache: private by default, or shared with other engines and
/// jobs on the same tree when one is supplied (the positive image sweep
/// never materializes axis matrices -- it only shares label sets).
class GkpEngine {
 public:
  explicit GkpEngine(const Tree& tree)
      : GkpEngine(std::make_shared<AxisCache>(tree)) {}

  /// Shares the given per-tree cache (label sets only).
  explicit GkpEngine(std::shared_ptr<AxisCache> cache)
      : images_(std::move(cache)) {}

  /// Attaches a shared subrelation cache (ppl/relation_cache.h):
  /// Relation() consults it for the whole expression under this engine's
  /// own "gkp" representation tag before running the per-start-node
  /// image loop, and publishes the relation it computes. Null detaches.
  void set_relation_cache(std::shared_ptr<RelationCache> cache) {
    rel_cache_ = std::move(cache);
  }

  /// Shared-cache consults performed by Relation() (subrel_hits and
  /// subrel_misses; the product counters stay 0), in the matrix engine's
  /// stats type so QueryService folds both engines the same way.
  const MatrixEngineStats& stats() const { return stats_; }

  /// The full relation [[P]]. Rows outside domain(P) are empty, so the
  /// per-start-node image loop runs only over the domain -- computed
  /// first by one preimage sweep, O(|P| |t|). Label-selective queries
  /// (small domains) pay O(|P| |t| |domain|) instead of O(|P| |t|^2).
  /// Fails with FragmentViolation if P contains `except`, and with
  /// kCancelled / kDeadlineExceeded once `cancel` fires (checked once per
  /// source row).
  Result<BitMatrix> Relation(const PplBinExpr& p, CancelToken cancel = {});

  /// Monadic query from the root: S_P({root}), O(|P| |t|) -- the matrix
  /// engine's image sweep. Fails with FragmentViolation if P contains
  /// `except`.
  Result<BitVector> FromRoot(const PplBinExpr& p);

 private:
  MatrixEngine images_;
  std::shared_ptr<RelationCache> rel_cache_;
  MatrixEngineStats stats_;
};

}  // namespace xpv::ppl

#endif  // XPV_PPL_GKP_ENGINE_H_
