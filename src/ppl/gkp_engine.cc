#include "ppl/gkp_engine.h"

#include <string>
#include <utility>

#include "ppl/relation_cache.h"

namespace xpv::ppl {

namespace {

Status RejectComplement(const PplBinExpr& p) {
  if (p.IsPositive()) return Status::OK();
  return Status::FragmentViolation(
      "GkpEngine evaluates the positive fragment only; '" + p.ToString() +
      "' contains except");
}

}  // namespace

Result<BitMatrix> GkpEngine::Relation(const PplBinExpr& p,
                                      CancelToken cancel) {
  XPV_RETURN_IF_ERROR(RejectComplement(p));
  // Whole-relation memoization under this engine's own tag: the image
  // loop is a deterministic pure function of (tree, expression), so a
  // cached relation is the exact matrix the loop below would rebuild.
  // The tag keeps GKP entries apart from the matrix engine's -- the
  // engines are proven byte-identical by the differential tests, but the
  // cache never papers over a divergence.
  std::string key;
  if (rel_cache_ != nullptr) {
    key = RelationKey(p.ToString(), "gkp");
    if (std::shared_ptr<const AnyMatrix> hit = rel_cache_->Get(key)) {
      ++stats_.subrel_hits;
      return hit->dense();
    }
    ++stats_.subrel_misses;
  }
  // Rows outside domain(P) are empty by definition, so one O(|P| |t|)
  // preimage sweep bounds the loop; selective leading labels shrink it.
  XPV_ASSIGN_OR_RETURN(BitVector domain, images_.Domain(p));
  const std::size_t n = images_.tree().size();
  BitMatrix out(n);
  // Images cost their frontier, so the one-node frontier is kept rather
  // than cleared: resetting the previous source's bit is O(1), a Clear()
  // would be the loop's O(n / 64) fixed cost per source.
  BitVector from(n);
  for (std::size_t u = domain.FirstSet(); u < n; u = domain.NextSet(u + 1)) {
    XPV_RETURN_IF_ERROR(cancel.Check());
    from.Set(u);
    XPV_ASSIGN_OR_RETURN(BitVector row, images_.Image(p, from));
    from.Reset(u);
    out.OrIntoRow(u, row);
  }
  // Copy into a shared payload only when the cache will keep it: an
  // oversize relation would be copied just to be rejected.
  if (rel_cache_ != nullptr && rel_cache_->Admits(key, out.resident_bytes())) {
    rel_cache_->Put(key, std::make_shared<const AnyMatrix>(AnyMatrix(out)));
  }
  return out;
}

Result<BitVector> GkpEngine::FromRoot(const PplBinExpr& p) {
  XPV_RETURN_IF_ERROR(RejectComplement(p));
  return images_.EvaluateFromRoot(p);
}

}  // namespace xpv::ppl
