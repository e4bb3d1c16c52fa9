// Canonical forms for PPLbin expressions -- the naming layer under the
// plan optimizer (engine/planner.h) and the subrelation cache
// (ppl/relation_cache.h).
//
// Two structurally different expressions can denote the same relation;
// the cheap, confluent part of that equivalence is normalized here so
// that one canonical *surface text* names each equivalence class:
//
//   * union is commutative and associative over Boolean OR: nested
//     unions are flattened, operands sorted by their own canonical
//     text, and duplicates dropped (generalizing the exact-match
//     `P union P => P` rewrite of ppl/simplify.h to any operand order);
//   * compose is associative but NOT commutative: factor order is
//     preserved, and the *association* is deliberately left alone --
//     re-parenthesizing composition chains is a cost-based decision the
//     planner makes per tree (the matrix-chain DP), not a tree-free
//     normalization.
//
// Canonicalization is semantics-preserving (every engine computes the
// same relation on the canonicalized expression, byte-identically) and
// idempotent. CompileQuery canonicalizes every binary query once, so
// all downstream keys -- PlanMemo entries, MatrixEngine filter-domain
// keys, RelationCache subexpression keys -- agree across syntactic variants
// of one query.
#ifndef XPV_PPL_CANONICAL_H_
#define XPV_PPL_CANONICAL_H_

#include <string>

#include "ppl/pplbin.h"

namespace xpv::ppl {

/// Rewrites `p` into its canonical form (union flatten + sort + dedupe,
/// applied bottom-up). Consumes and returns ownership; the result is
/// equivalent to the input on every tree. Idempotent.
PplBinPtr Canonicalize(PplBinPtr p);

/// The canonical surface text of `p`: Canonicalize(p.Clone())->ToString().
/// Round-trips through the PPLbin grammar; equal canonical texts imply
/// equal relations on every tree. This is the key the RelationCache is
/// built on.
std::string CanonicalText(const PplBinExpr& p);

}  // namespace xpv::ppl

#endif  // XPV_PPL_CANONICAL_H_
