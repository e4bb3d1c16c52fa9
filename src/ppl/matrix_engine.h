// The Boolean-matrix evaluation algorithm for PPLbin (Section 4 of the
// paper, Theorem 2): a binary query q^bin_P(t) is represented as the
// |t| x |t| matrix M^t_P computed bottom-up by
//
//   M_{P1/P2} = M_{P1} . M_{P2}     M_{except P}  = not M_P
//   M_{P1 union P2} = M_{P1} + M_{P2}     M_{[P]} = [M_P]
//
// over the Boolean algebra ({0,1}, or, and). With the naive product this
// is O(|P| |t|^3); the bit-packed product performs |t|^3 / 64 word
// operations (the same asymptotic bound; the paper notes the exponent can
// be lowered to 2.376 with Coppersmith-Winograd).
//
// Representations. Each intermediate matrix is a tagged AnyMatrix holding
// either a dense bit-packed BitMatrix or a CSR run-list SparseBoolMatrix
// (common/sparse_matrix.h). The engine's MatrixRepr mode -- normally the
// planner's per-(query, tree, shape) crossover decision -- picks the leaf
// representation and the product kernel per node:
//
//   kDense   every leaf densifies (fallibly: kResourceExhausted above
//            BitMatrix::kMaxDenseNodes); dense x dense products.
//   kSparse  masked step leaves come straight from the AxisCache's runs
//            (no densification); SpGEMM-style run-merge products under a
//            kSparseEvalByteBudget run budget. Works at any tree size.
//   kAuto    leaves follow the cache backing; products dispatch on the
//            operand tags (all four kernel shapes); saturated sparse
//            results re-encode dense when that is smaller and the tree is
//            under the dense ceiling (counted as a repr crossover).
#ifndef XPV_PPL_MATRIX_ENGINE_H_
#define XPV_PPL_MATRIX_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>

#include "common/bit_matrix.h"
#include "common/cancel.h"
#include "common/sparse_matrix.h"
#include "common/status.h"
#include "ppl/pplbin.h"
#include "tree/axis_cache.h"
#include "tree/tree.h"

namespace xpv::ppl {

/// Matrix multiplication strategy, for the E3 ablation benchmark. Applies
/// to dense x dense products only; sparse kernels have one implementation.
enum class MultiplyMode {
  kBitPacked,  // blocked row-OR word-parallel product (default)
  kNaive,      // triple loop, one bit at a time (reference)
};

/// A Boolean relation in whichever representation the engine chose:
/// dense bit-packed or CSR run-list. The monadic kernels (ImageOf,
/// AndOfRows, RowsContaining) dispatch on the tag so set-level consumers
/// never care which one they got.
class AnyMatrix {
 public:
  AnyMatrix() : m_(BitMatrix()) {}
  // NOLINTNEXTLINE(google-explicit-constructor): tagged-union by design.
  AnyMatrix(BitMatrix m) : m_(std::move(m)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  AnyMatrix(SparseBoolMatrix m) : m_(std::move(m)) {}

  bool is_dense() const { return std::holds_alternative<BitMatrix>(m_); }
  std::size_t size() const;
  /// "dense" or "sparse", for stats and test failure messages.
  std::string_view repr_name() const { return is_dense() ? "dense" : "sparse"; }

  const BitMatrix& dense() const { return std::get<BitMatrix>(m_); }
  const SparseBoolMatrix& sparse() const {
    return std::get<SparseBoolMatrix>(m_);
  }
  BitMatrix&& TakeDense() && { return std::get<BitMatrix>(std::move(m_)); }
  SparseBoolMatrix&& TakeSparse() && {
    return std::get<SparseBoolMatrix>(std::move(m_));
  }

  bool Get(std::size_t row, std::size_t col) const;
  std::size_t Count() const;
  std::size_t resident_bytes() const;

  // Tag-dispatched monadic kernels (semantics as on BoolMatrix).
  BitVector ImageOf(const BitVector& rows) const;
  BitVector AndOfRows(const BitVector& rows) const;
  BitVector RowsContaining(const BitVector& cols) const;
  BitVector NonEmptyRows() const;

  /// Dense copy; kResourceExhausted above BitMatrix::kMaxDenseNodes.
  Result<BitMatrix> ToDense() const;

 private:
  std::variant<BitMatrix, SparseBoolMatrix> m_;
};

/// Kernel counters for one engine's lifetime; QueryService aggregates
/// them into ServiceStats. A "product" is one composition node; it counts
/// dense when any operand forced a packed-row kernel (dense x dense and
/// both mixed shapes) and sparse only for pure run-merge SpGEMM. A
/// crossover is a mid-evaluation re-encoding of a result between the two
/// representations (kAuto's density switch). The subrel counters cover
/// shared RelationCache consults (ppl/relation_cache.h): one hit or miss
/// per interior node looked up when a cache is attached; intra-query
/// hash-cons reuse is not a consult (it shows up as *fewer products*).
struct MatrixEngineStats {
  std::uint64_t dense_products = 0;
  std::uint64_t sparse_products = 0;
  std::uint64_t repr_crossovers = 0;
  std::uint64_t subrel_hits = 0;
  std::uint64_t subrel_misses = 0;
};

class RelationCache;

/// Evaluates PPLbin expressions on one fixed tree via Boolean matrices.
/// Axis relation matrices and label sets live in an AxisCache: private by
/// default, or shared across engines (and threads) evaluating the same
/// tree when one is supplied.
class MatrixEngine {
 public:
  explicit MatrixEngine(const Tree& tree,
                        MultiplyMode mode = MultiplyMode::kBitPacked,
                        MatrixRepr repr = MatrixRepr::kAuto)
      : MatrixEngine(std::make_shared<AxisCache>(tree), mode, repr) {}

  /// Shares the given per-tree cache; jobs of the batch QueryService
  /// evaluating different queries on one tree pass the same cache here,
  /// plus the plan's representation decision.
  explicit MatrixEngine(std::shared_ptr<AxisCache> cache,
                        MultiplyMode mode = MultiplyMode::kBitPacked,
                        MatrixRepr repr = MatrixRepr::kAuto)
      : tree_(cache->tree()),
        mode_(mode),
        repr_(repr),
        cache_(std::move(cache)) {}

  /// Attaches a shared subrelation cache (ppl/relation_cache.h):
  /// EvaluateAny consults it before evaluating any interior node and
  /// publishes every interior result it computes, keyed by the node's
  /// surface text x this engine's representation tag. Null detaches.
  /// Cached values are the exact bytes the engine would recompute, so
  /// results are byte-identical with and without a cache attached.
  void set_relation_cache(std::shared_ptr<RelationCache> cache) {
    rel_cache_ = std::move(cache);
  }

  /// Observes `cancel` from now on: every interior node of EvaluateAny
  /// (one whole product, union or complement) reads it with CheckNow()
  /// on entry and again between its operands and its own kernel, and
  /// every Image / Preimage recursion step with the amortized Check(), so
  /// a fired token surfaces as kCancelled / kDeadlineExceeded from any
  /// entry point. The default token never fires.
  void set_cancel(CancelToken cancel) { cancel_ = cancel; }

  /// M^t_P in the engine's chosen representation. Structurally identical
  /// subtrees inside `p` are hash-consed: each distinct subtree text is
  /// computed once per call (e.g. `(a/b) | ((a/b)/c)` evaluates `a/b`
  /// once), independent of whether a shared RelationCache is attached.
  /// Fails with kResourceExhausted when a dense-mode evaluation exceeds
  /// the dense ceiling or a sparse evaluation exceeds its run byte
  /// budget; never aborts the process.
  Result<AnyMatrix> EvaluateAny(const PplBinExpr& p);

  /// M^t_P densified. Same failure modes as EvaluateAny, plus the final
  /// dense conversion's ceiling.
  Result<BitMatrix> EvaluateDense(const PplBinExpr& p);

  /// Unchecked convenience for tests, benches and small-tree callers:
  /// EvaluateDense() or std::abort() with the status on stderr (reaching
  /// the abort means the caller skipped the planner's gates on an
  /// oversized tree -- a programmer error). Serving paths use the
  /// fallible entry points above.
  BitMatrix Evaluate(const PplBinExpr& p);

  // ------------------------------------------------------------------
  // Row-restricted (monadic) entry points -- the system's one set-image
  // evaluator. When a caller only consumes a node set -- not the full
  // O(|t|^2) relation -- the evaluation propagates a single BitVector
  // through the expression, Gottlob-Koch-Pichler style (Section 4), and
  // falls back to materialized sub-matrices only underneath `except`
  // reached from more than one source node. A filter [Q] intersects with
  // domain(Q), which each engine computes once per distinct Q and reuses
  // across calls, so GkpEngine's per-source full-relation loop
  // (ppl/gkp_engine.h) pays for each filter domain once, not once per
  // source. On the positive fragment images cost O(|P| |t|); under
  // `except`:
  //
  //   image(not Q, {u})  = not image(Q, {u})
  //   image(not Q, N)    = not AndOfRows(M_Q, N)
  //   preimage(not Q, N) = not RowsContaining(M_Q, N)
  //
  // A complement reached from a single source u needs only row u of M_Q,
  // which is image(Q, {u}): the sweep continues into Q and builds no
  // matrix. From-root queries start single-source, and unions and
  // complements keep it, so a from-root `except` that is not under the
  // right operand of a composition or inside a filter is a pure sweep.
  // Any other complement node costs one sub-matrix evaluation instead of
  // the whole query costing O(|P| |t|^3 / 64) -- except a complement
  // whose operand is a plain step, which runs the AndOfRows /
  // RowsContaining kernel directly on the cached axis relation (no
  // sub-matrix at all, so it stays valid on interval-backed caches of
  // any size). A general complement evaluates its sub-matrix through
  // EvaluateAny, so in sparse/auto modes even those run beyond the dense
  // ceiling; the Result statuses surface budget exhaustion instead of
  // aborting.

  /// S_P(N) = { v | exists u in N, (u, v) in [[P]] }.
  Result<BitVector> Image(const PplBinExpr& p, const BitVector& from);
  /// S^{-1}_P(N) = { u | exists v in N, (u, v) in [[P]] }.
  Result<BitVector> Preimage(const PplBinExpr& p, const BitVector& to);
  /// domain(P) = { u | row u of M_P is nonempty } = Preimage(P, nodes).
  Result<BitVector> Domain(const PplBinExpr& p);

  /// Monadic query from one start node: Image(P, {u}).
  Result<BitVector> EvaluateFromNode(const PplBinExpr& p, NodeId u);
  /// Monadic query from the root: nodes reachable from the root via P.
  Result<BitVector> EvaluateFromRoot(const PplBinExpr& p);

  const Tree& tree() const { return tree_; }
  MatrixRepr repr() const { return repr_; }
  const MatrixEngineStats& stats() const { return stats_; }

 private:
  /// Per-EvaluateAny hash-consing state (defined in the .cc): subtree
  /// surface texts, their occurrence counts, and the local memo.
  struct EvalContext;

  /// domain(Q) for a filter body Q, from domain_cache_ or computed and
  /// stored there. The pointer stays valid for the engine's lifetime.
  Result<const BitVector*> FilterDomain(const PplBinExpr& body);

  /// The recursive evaluation body behind EvaluateAny: local memo for
  /// duplicated subtrees, shared RelationCache consult for interior
  /// nodes, then the kernel dispatch below.
  Result<AnyMatrix> EvalNode(const PplBinExpr& p, EvalContext& ctx);
  /// Leaf M_{A::N} in the mode's representation (see header comment).
  Result<AnyMatrix> StepLeaf(const PplBinExpr& p);
  /// Product kernel dispatch on the operand tags.
  Result<AnyMatrix> ComposeAny(AnyMatrix a, AnyMatrix b);
  Result<AnyMatrix> UnionAny(AnyMatrix a, AnyMatrix b);
  Result<AnyMatrix> ComplementAny(AnyMatrix a);
  AnyMatrix FilterAny(AnyMatrix a);
  /// kAuto only: re-encodes a sparse result densely when the tree is
  /// under the dense ceiling and the run list outweighs the packed bits.
  AnyMatrix MaybeDensify(SparseBoolMatrix m);

  BitMatrix Product(const BitMatrix& a, const BitMatrix& b) const;
  /// Run budget for every sparse kernel of this evaluation.
  static std::size_t RunBudget() {
    return kSparseEvalByteBudget / sizeof(IntervalRun);
  }

  const Tree& tree_;
  MultiplyMode mode_;
  MatrixRepr repr_;
  std::shared_ptr<AxisCache> cache_;
  std::shared_ptr<RelationCache> rel_cache_;
  CancelToken cancel_;
  MatrixEngineStats stats_;
  // Filter domains keyed by the filter body's surface text. ToString
  // round-trips, so equal keys mean equal expressions; pointer keys would
  // dangle across calls (expressions die while the engine lives, and the
  // allocator reuses their addresses).
  std::unordered_map<std::string, BitVector> domain_cache_;
};

}  // namespace xpv::ppl

#endif  // XPV_PPL_MATRIX_ENGINE_H_
