// The middle stage of the compile -> plan -> execute pipeline: a
// cost-based, result-shape-aware query planner.
//
// CompileQuery (engine/compiled_query.h) is tree-independent and records
// every admissible engine; this layer picks one per (compiled query,
// tree, result shape) using the Tree::Stats() statistics that
// TreeBuilder::Finish() precomputes -- node count, depth, fanout, label
// posting-list sizes. The decision follows the paper's complexity
// landscape, made quantitative:
//
//   route           full relation              monadic (row-restricted)
//   kGkpPositive    O(|P| |t| |domain|)        -- (full relations only)
//   kMatrixGeneral  dense: O(|P| |t|^3 / 64)   image sweep: O(|P| |t|)
//                   sparse: O(runs merged)     + one sub-matrix per `except`
//                                              reached from many sources
//   kNaryAnswer     ACQs: Prop. 8 enumeration, O(|atoms| |t|^2 / 64)
//                   preprocessing + O(|vars| |t| / 64) per tuple;
//                   unions: the Fig. 8 answer set
//
// A full relation takes the cheapest admissible of three routes: GKP
// (positive queries only), matrix-dense, and matrix-sparse (when its
// estimated peak fits kSparseEvalByteBudget). So a general-PPLbin query
// on a small tree runs dense (one 64-bit word covers a whole row), and a
// full relation on a large tree usually runs on the sparse run-list
// kernels, whose cost follows the runs produced rather than |t|^2 --
// GKP wins where its posting-list-bounded domain is the smaller bill.
// Every monadic binary plan is the matrix engine's row-restricted image
// sweep: GKP's per-source loop is that sweep run once per start node, so
// the planner does not price GKP for monadic shapes. The sweep starts
// from the root alone, and a complement it reaches from one source u is
// swept too (row u of `except Q` is the complement of image(Q, {u})), so
// a from-root `except` costs O(|P| |t|) and builds no matrix. Only a
// complement of a non-step operand that the sweep reaches from many
// sources -- under a composition's right operand, or inside a filter --
// builds a sub-matrix.
//
// The *result shape* says what the caller actually consumes. Callers who
// only need the nodes reachable from the root -- the overwhelmingly
// common serving workload -- get a monadic fast path that propagates a
// single BitVector through the expression instead of materializing the
// O(|t|^2) relation:
//
//   shape           binary (PPLbin) payload        n-ary payload
//   kFullRelation   relation + from_root           tuples
//   kFromRootSet    from_root only                 tuples
//   kBoolean        boolean = from-root nonempty   boolean = any tuple
//   kCount          count = |from-root set|        count = |tuples|
//
// Plans are deterministic functions of (query, tree, shape), so memoizing
// them per document (PlanMemo, owned by the DocumentStore next to the
// AxisCache) never changes results -- only skips the cost arithmetic.
#ifndef XPV_ENGINE_PLANNER_H_
#define XPV_ENGINE_PLANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.h"
#include "common/sparse_matrix.h"
#include "common/thread_annotations.h"
#include "engine/compiled_query.h"
#include "ppl/pplbin.h"
#include "tree/tree.h"

namespace xpv::engine {

/// What a caller consumes from a query's answer. Shapes other than
/// kFullRelation unlock the monadic fast path on binary queries.
/// kTupleStream is the streaming shape: it is served exclusively through
/// QueryService::OpenStream (engine/query_stream.h) -- batch jobs
/// requesting it are rejected -- and yields tuples incrementally instead
/// of a materialized payload.
enum class ResultShape {
  kFullRelation,
  kFromRootSet,
  kBoolean,
  kCount,
  kTupleStream,
};

std::string_view ResultShapeName(ResultShape shape);

/// How an n-ary plan (every shape) or a kTupleStream plan produces its
/// tuples; kNone for binary plans of the batch shapes. N-ary plans pick
/// the backing from the query class alone, and a batch job drains the
/// same backing a stream pulls from (engine/query_stream.h,
/// internal::NaryBacking). The backing fixes the deterministic stream
/// *order* (documented on QueryStream), never the tuple *set*.
enum class StreamBacking {
  kNone,
  /// Binary query: the monadic from-root node set, streamed as 1-tuples
  /// in ascending node order.
  kNodeSet,
  /// Enumerable n-ary query (union-free, alpha-acyclic -- the Prop. 8
  /// ACQ class, CompiledQuery::acq): Yannakakis polynomial-delay
  /// enumeration with bounded memory (fo/enumerate.h).
  kEnumerator,
  /// Non-enumerable n-ary query (unions): the Fig. 8 answer set is
  /// materialized once and served from a cursor in lexicographic order.
  kMaterialized,
};

std::string_view StreamBackingName(StreamBacking backing);

/// The planner's decision for one (compiled query, tree, shape): which
/// engine runs and whether it takes the row-restricted entry point.
struct ExecutionPlan {
  EnginePlan engine = EnginePlan::kMatrixGeneral;
  ResultShape shape = ResultShape::kFullRelation;
  /// Monadic fast path: MatrixEngine::EvaluateFromRoot propagates a
  /// single BitVector instead of materializing the O(|t|^2) relation.
  /// Set on every monadic binary plan; the planner always names
  /// kMatrixGeneral for them, and a forced kGkpPositive plan runs the
  /// same sweep.
  bool row_restricted = false;
  /// N-ary plans and kTupleStream plans: how the tuples are produced.
  StreamBacking backing = StreamBacking::kNone;
  /// Matrix-engine plans that materialize relations (full relations, and
  /// monadic plans whose sweep builds a sub-matrix for a complement
  /// reached from many sources): which representation the engine
  /// composes in. A monadic plan that builds no matrix -- a from-root
  /// `except` among them -- has no representation to choose (it keeps
  /// kDense, which it never uses). The planner's dense/sparse crossover
  /// picks kDense or kSparse per (tree stats, label selectivity, query
  /// shape);
  /// kAuto appears only via a forced override (PlanOverrides::repr) and
  /// lets the engine switch per node. Non-matrix plans keep the
  /// default (their execution never consults it).
  MatrixRepr repr = MatrixRepr::kDense;
  /// Cost-model estimate (in 64-bit word operations) of the chosen
  /// route, and of the cheapest rejected admissible route among GKP,
  /// matrix-dense and matrix-sparse (0 = no alternative existed). A
  /// forced sparse plan whose estimated peak exceeds
  /// kSparseEvalByteBudget under the dense ceiling costs +inf: the
  /// planner never picks that route itself.
  double cost = 0.0;
  double alternative_cost = 0.0;
  /// Matrix plans that materialize relations: the query rewritten by the
  /// matrix-chain reassociation DP (composition chains re-parenthesized
  /// into the estimated-cheapest association; factor order, and hence
  /// the denoted relation, unchanged). Null when no chain changed --
  /// execution then evaluates the compiled form as parsed. Execution
  /// uses `reassociated` when set; forced parse-order runs
  /// (PlanOverrides::parse_order) plan with the DP disabled so
  /// association-order differentials stay possible.
  std::shared_ptr<const ppl::PplBinExpr> reassociated;
  /// Number of composition chains whose association the DP changed.
  std::uint32_t chains_reassociated = 0;

  /// Structural equality: plans are deterministic functions of (query,
  /// tree stats, shape), so independently computed plans compare equal
  /// -- the reassociated expression by structure, not pointer.
  bool operator==(const ExecutionPlan& other) const;

  /// E.g. "matrix-general/from-root-set row-restricted cost=1.2e3 alt=0".
  std::string DebugString() const;
};

/// Chooses the cheapest admissible route (engine and, for the matrix
/// engine, representation) for `q` on `tree` under the requested shape.
/// With `force_engine` set (tests, ablations), the cost model still runs
/// but the named engine is selected; it must be
/// admissible for `q` (callers check via CompiledQuery::Admits --
/// QueryService rejects inadmissible overrides with InvalidArgument
/// before reaching this function).
///
/// Pure and non-blocking: reads only the precomputed Tree::Stats(), never
/// fails, and is safe to call concurrently from any number of threads.
///
/// `stream_limit` matters only for kTupleStream plans of ACQ queries: it
/// is the caller's requested tuple budget (offset + limit; 0 = drain
/// everything) and enters only `cost` (enumerator preprocessing plus
/// the expected tuple count times the delay), never the backing, which
/// the query class alone decides. Stream plans are NOT memoized in the
/// PlanMemo (their key would need the limit); OpenStream plans per
/// call, which is cheap.
/// `force_repr` (tests, ablations) pins the matrix representation the
/// plan executes with, bypassing the crossover (and, in QueryService, the
/// PlanMemo -- forced plans are never memoized).
///
/// `force_parse_order` (tests, ablations) disables the composition-chain
/// reassociation DP, so the plan evaluates the query exactly as parsed
/// -- the baseline for association-order differentials. Like the other
/// overrides it bypasses the PlanMemo in QueryService.
///
/// Reassociation runs only for matrix plans that materialize relations
/// (full-relation shapes, and monadic plans whose sweep reaches a
/// complement of a non-step operand from many sources; a from-root
/// `except` is swept from the root alone and never reassociates): purely
/// monadic evaluation is a left-to-right vector sweep whose cost is
/// association-invariant, and row
/// restrictions push through a reassociated chain unchanged (Image
/// recursion handles any parenthesization), so matrixxmatrix products
/// become vectorxmatrix sweeps wherever the shape allows regardless of
/// the association the DP picked for the materialized parts.
ExecutionPlan PlanQuery(const CompiledQuery& q, const Tree& tree,
                        ResultShape shape,
                        std::optional<EnginePlan> force_engine = {},
                        std::size_t stream_limit = 0,
                        std::optional<MatrixRepr> force_repr = {},
                        bool force_parse_order = false);

/// True when executing `plan` for `q` must materialize at least one dense
/// |t| x |t| BitMatrix: every kNaryAnswer plan (the n-ary
/// machinery is dense end-to-end), kFullRelation shapes on non-matrix
/// engines (their answer IS a dense matrix), and matrix plans whose
/// chosen representation is kDense when the execution materializes
/// relations (full-relation shapes, and monadic plans whose sweep reaches
/// a complement over a non-step subexpression from many sources -- never
/// a from-root `except`, which is swept from the root alone and builds
/// no matrix whatever the representation). Matrix plans carrying
/// repr kSparse or kAuto never require the dense form: the sparse
/// composition kernels run at any tree size under their run byte budget,
/// which is how the planner lifts the old full-relation refusal on
/// oversized trees. QueryService refuses dense-requiring plans with
/// kResourceExhausted when the tree exceeds BitMatrix::kMaxDenseNodes
/// (common/bit_matrix.h), the documented dense-materialization ceiling.
bool PlanRequiresDenseRelation(const CompiledQuery& q,
                               const ExecutionPlan& plan);

/// Tests and ablations only: forced planner decisions for one job
/// (QueryJob::overrides). Any set field bypasses the per-document
/// PlanMemo, so a forced run never pollutes the planner's cache.
struct PlanOverrides {
  /// Force this engine instead of the cost-based choice. Must be
  /// admissible for the query (InvalidArgument otherwise).
  std::optional<EnginePlan> engine;
  /// Force the matrix representation (dense / sparse / auto). Binary
  /// (PPLbin) queries only (InvalidArgument otherwise); without `engine`
  /// it routes the job to the matrix engine.
  std::optional<MatrixRepr> repr;
  /// Disable the composition-chain reassociation DP, so the job evaluates
  /// the query exactly as parsed -- the baseline side of
  /// association-order differentials.
  bool parse_order = false;
};

/// Bounded, thread-safe (query text, shape) -> ExecutionPlan memo. One
/// lives beside each document's AxisCache in the DocumentStore, so a
/// repeated query template on a long-lived document plans once. Once
/// full, unseen keys are still planned by the caller but not inserted
/// (same containment policy as the QueryCache).
///
/// Thread safety: all methods may be called concurrently; no method
/// blocks beyond a short internal mutex hold (GetOrCompute runs the
/// compute callback outside the lock, so a slow planner never serializes
/// other lookups -- plans are deterministic, making a racing duplicate
/// computation harmless).
class PlanMemo {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 256;

  explicit PlanMemo(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  PlanMemo(const PlanMemo&) = delete;
  PlanMemo& operator=(const PlanMemo&) = delete;

  /// The memoized plan, or `compute()` on a miss: builds the key once
  /// and runs `compute` outside the lock (plans are deterministic, so a
  /// racing duplicate computation is harmless). Once the memo is full,
  /// unseen keys are computed but not inserted.
  template <typename Fn>
  ExecutionPlan GetOrCompute(std::string_view text, ResultShape shape,
                             Fn&& compute) XPV_EXCLUDES(mu_) {
    std::string key = Key(text, shape);
    {
      MutexLock lock(mu_);
      auto it = plans_.find(key);
      if (it != plans_.end()) {
        ++hits_;
        return it->second;
      }
      ++misses_;
    }
    ExecutionPlan plan = compute();
    MutexLock lock(mu_);
    if (plans_.size() < max_entries_ || plans_.contains(key)) {
      plans_.emplace(std::move(key), plan);
    }
    return plan;
  }

  std::size_t size() const XPV_EXCLUDES(mu_);
  std::uint64_t hits() const XPV_EXCLUDES(mu_);
  std::uint64_t misses() const XPV_EXCLUDES(mu_);

 private:
  static std::string Key(std::string_view text, ResultShape shape);

  const std::size_t max_entries_;
  mutable Mutex mu_;
  std::unordered_map<std::string, ExecutionPlan> plans_ XPV_GUARDED_BY(mu_);
  std::uint64_t hits_ XPV_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ XPV_GUARDED_BY(mu_) = 0;
};

}  // namespace xpv::engine

#endif  // XPV_ENGINE_PLANNER_H_
