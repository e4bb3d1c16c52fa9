// Answer enumeration for acyclic conjunctive queries -- the direction the
// paper's conclusion poses as an open question ("Which fragments of ACQs
// or HCL admit polynomial-time preprocessing and a linear enumeration
// delay?").
//
// This implements a Yannakakis-based enumerator: after the preprocessing
// (relation materialization, elimination of projected chain variables
// and the up/down semijoin passes), answers are produced one at a time by
// a resumable DFS over the output variables only, in join-forest order.
// On entering the frame of output variable o:
//
//   * when o's forest parent is an earlier output variable, the choices
//     are o's candidates in the parent's row -- with the parent fixed,
//     o's subtree does not depend on the rest of the forest;
//   * otherwise the earlier output variables are pinned to their
//     current values and the two semijoin passes rerun (an extension
//     check). A full reducer leaves an acyclic query globally consistent
//     (Yannakakis; Bagan, Durand & Grandjean, CSL 2007), so what
//     survives in cand(o) is exactly the values that extend to an answer.
//
// No branch dead-ends and no projection is produced twice, so distinct
// answers need no memory of the emitted ones. With k output variables
// the delay between consecutive answers is at most k extension checks,
// each O(#edges * |t| * ceil(|t|/64)) word operations; when every
// surviving variable is an output no check runs and the delay is
// O(k * |t|/64). Memory is the k frames plus one candidate set per
// variable for the checks -- O((k + #vars) * |t|) bits, fixed at
// Create() no matter how many answers exist.
#ifndef XPV_FO_ENUMERATE_H_
#define XPV_FO_ENUMERATE_H_

#include <memory>
#include <optional>

#include "common/cancel.h"
#include "fo/acq.h"
#include "tree/axis_cache.h"

namespace xpv::fo {

struct AcqEnumeratorOptions {
  /// Observed during preprocessing (between relation materializations /
  /// semijoin passes) and between DFS steps, so an in-flight enumeration
  /// stops cooperatively on batch cancel or deadline expiry.
  CancelToken cancel;
  /// Optional shared per-tree axis cache for relation materialization
  /// (e.g. a stored document's persistent cache); null = uncached.
  std::shared_ptr<AxisCache> axis_cache;
};

/// Resumable answer enumeration for an acyclic conjunctive query.
/// Create() runs the preprocessing (semijoin reduction); Next() yields
/// distinct answers one at a time in the (deterministic) order induced by
/// the join-forest DFS over the internal variable numbering.
class AcqEnumerator {
 public:
  /// Preprocesses the query. Fails on cyclic queries (InvalidArgument)
  /// and when the cancel token fires mid-preprocessing.
  static Result<AcqEnumerator> Create(const Tree& t,
                                      const ConjunctiveQuery& q,
                                      AcqEnumeratorOptions options = {});

  AcqEnumerator(AcqEnumerator&&) noexcept;
  AcqEnumerator& operator=(AcqEnumerator&&) noexcept;
  ~AcqEnumerator();

  /// The next distinct output tuple; nullopt when exhausted. Errors --
  /// kCancelled / kDeadlineExceeded from the cancel token -- are sticky:
  /// once Next() has failed, every later call returns the same status.
  Result<std::optional<xpath::NodeTuple>> Next();

  /// Number of distinct tuples produced so far.
  std::size_t produced() const;

  /// Resident bytes of the DFS frames and the extension check's
  /// candidate sets -- the enumeration state, fixed at Create(); excludes
  /// the preprocessed relations, whose size is fixed by the query and
  /// tree.
  std::size_t resident_bytes() const;

 private:
  struct Impl;
  explicit AcqEnumerator(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace xpv::fo

#endif  // XPV_FO_ENUMERATE_H_
