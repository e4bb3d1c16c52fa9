#include "ppl/gkp_engine.h"

#include <cassert>
#include <utility>

#include "ppl/relation_cache.h"

namespace xpv::ppl {

namespace {

/// Syntactic reversal: Reverse(P) denotes the inverse relation of P.
///   Reverse(A::N)    = self::N / A^{-1}::*   (label moves to the source)
///   Reverse(P1/P2)   = Reverse(P2)/Reverse(P1)
///   Reverse(P1 u P2) = Reverse(P1) u Reverse(P2)
///   Reverse([P])     = [P]                   (partial identities are
///                                             symmetric)
PplBinPtr Reverse(const PplBinExpr& p) {
  switch (p.kind) {
    case PplBinKind::kStep: {
      PplBinPtr label_filter = PplBinExpr::Step(
          Axis::kSelf, p.name_test.empty() ? "*" : p.name_test);
      if (p.axis == Axis::kSelf) return label_filter;
      return PplBinExpr::Compose(std::move(label_filter),
                                 PplBinExpr::Step(InverseAxis(p.axis), "*"));
    }
    case PplBinKind::kCompose:
      return PplBinExpr::Compose(Reverse(*p.right), Reverse(*p.left));
    case PplBinKind::kUnion:
      return PplBinExpr::Union(Reverse(*p.left), Reverse(*p.right));
    case PplBinKind::kFilter:
      return p.Clone();
    case PplBinKind::kComplement:
      assert(false && "Reverse() requires a positive expression");
      return nullptr;
  }
  return nullptr;
}

}  // namespace

BitVector GkpEngine::ImagePositive(const PplBinExpr& p,
                                   const BitVector& from) {
  switch (p.kind) {
    case PplBinKind::kStep: {
      BitVector out = AxisImage(tree_, p.axis, from);
      if (!p.name_test.empty()) out.AndWith(cache_->Labels(p.name_test));
      return out;
    }
    case PplBinKind::kCompose: {
      BitVector mid = ImagePositive(*p.left, from);
      return ImagePositive(*p.right, mid);
    }
    case PplBinKind::kUnion: {
      BitVector out = ImagePositive(*p.left, from);
      out.OrWith(ImagePositive(*p.right, from));
      return out;
    }
    case PplBinKind::kFilter: {
      // S_{[P]}(N) = N  intersect  domain(P).
      std::string key = p.left->ToString();
      auto it = domain_cache_.find(key);
      if (it == domain_cache_.end()) {
        PplBinPtr reversed = Reverse(*p.left);
        BitVector all(tree_.size());
        all.Fill();
        BitVector domain = ImagePositive(*reversed, all);
        it = domain_cache_.emplace(std::move(key), std::move(domain)).first;
      }
      BitVector out = from;
      out.AndWith(it->second);
      return out;
    }
    case PplBinKind::kComplement:
      assert(false && "positive fragment only");
      return BitVector(tree_.size());
  }
  return BitVector(tree_.size());
}

Result<BitVector> GkpEngine::Image(const PplBinExpr& p,
                                   const BitVector& from) {
  if (!p.IsPositive()) {
    return Status::FragmentViolation(
        "GkpEngine evaluates the positive fragment only; '" + p.ToString() +
        "' contains except");
  }
  return ImagePositive(p, from);
}

BitVector GkpEngine::DomainPositive(const PplBinExpr& p) {
  PplBinPtr reversed = Reverse(p);
  BitVector all(tree_.size());
  all.Fill();
  return ImagePositive(*reversed, all);
}

Result<BitVector> GkpEngine::Domain(const PplBinExpr& p) {
  if (!p.IsPositive()) {
    return Status::FragmentViolation(
        "GkpEngine evaluates the positive fragment only");
  }
  return DomainPositive(p);
}

Result<BitMatrix> GkpEngine::Relation(const PplBinExpr& p) {
  if (!p.IsPositive()) {
    return Status::FragmentViolation(
        "GkpEngine evaluates the positive fragment only");
  }
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
      ++subrel_hits_;
      return hit->dense();
    }
    ++subrel_misses_;
  }
  // Rows outside domain(P) are empty by definition, so one O(|P| |t|)
  // reversal image bounds the loop; selective leading labels shrink it.
  BitVector domain = DomainPositive(p);
  BitMatrix out(tree_.size());
  BitVector from(tree_.size());
  domain.ForEachSet([&](std::size_t u) {
    from.Clear();
    from.Set(u);
    out.OrIntoRow(u, ImagePositive(p, from));
  });
  // Copy into a shared payload only when the cache will keep it: an
  // oversize relation would be copied just to be rejected.
  if (rel_cache_ != nullptr && rel_cache_->Admits(key, out.resident_bytes())) {
    rel_cache_->Put(key, std::make_shared<const AnyMatrix>(AnyMatrix(out)));
  }
  return out;
}

Result<BitVector> GkpEngine::EvaluateFromNode(const PplBinExpr& p, NodeId u) {
  BitVector from(tree_.size());
  from.Set(u);
  return Image(p, from);
}

Result<BitVector> GkpEngine::FromRoot(const PplBinExpr& p) {
  return EvaluateFromNode(p, tree_.root());
}

}  // namespace xpv::ppl
