// Streaming n-ary answer service: cursors over query answers with
// bounded memory -- the serving-layer response to the paper's closing
// question on answer *enumeration*.
//
// A QueryStream is a pull-based cursor returned by
// QueryService::OpenStream. Instead of materializing a potentially
// O(|t|^k) tuple set into a QueryResult, the stream produces tuples
// incrementally, from one of three backings the planner picks by query
// class (engine/planner.h, StreamBacking):
//
//   kEnumerator    enumerable n-ary queries (union-free, alpha-acyclic
//                  Prop. 8 image): Yannakakis polynomial-delay
//                  enumeration (fo/enumerate.h). First-tuple latency and
//                  peak memory are independent of the answer count.
//   kMaterialized  n-ary queries with unions: the Fig. 8 answer set is
//                  materialized on first read and served from a cursor.
//   kNodeSet       binary (variable-free) queries: the monadic
//                  from-root node set, streamed as 1-tuples.
//
// The two n-ary backings are internal::NaryBacking, which batch jobs
// drain too: a kNaryAnswer job and a stream over the same query run the
// same preprocessing and produce the same tuples.
//
// Stream order is deterministic per (query, tree, options) -- identical
// across NextBatch chunk sizes, service thread counts, and repeats --
// but unspecified across backings: the enumerator emits in join-forest
// DFS order, the other two in ascending/lexicographic order. Consumers
// needing a specific order sort their page.
//
// Lifecycle and ownership. OpenStream resolves and *pins* the backing
// document: the stream holds the DocumentPtr and its AxisCache
// shared_ptr, so a stream keeps serving correct answers even if the
// document is Remove()d from the store (and its id re-Interned) while
// the stream is open -- the store only forgets the id; the tree and
// cache live until the last holder lets go. The backing (enumerator /
// answer set / node set) is built lazily on the first NextBatch, so an
// opened-then-closed stream does no evaluation work.
//
// Admission control. An open stream occupies one of the service's
// `max_inflight_batches` slots until it is closed, exhausted, or failed
// -- long-lived cursors are load the dispatcher must see, or a crowd of
// idle streams would let batch work overcommit the service. OpenStream
// returns kOverloaded (never blocks) when no slot is free. Deadlines
// and Cancel() are honored *inside* the stream: every NextBatch checks
// the deadline/cancel token between tuples (and the enumerator checks
// between DFS steps), so a stream over a huge answer set stops
// cooperatively mid-pull with kDeadlineExceeded / kCancelled.
//
// Thread safety: Cancel() may be called from any thread *while the
// handle is alive* -- as with any C++ object, destroying or
// move-assigning the QueryStream concurrently with a member call
// (Cancel() included) is a data race the caller must exclude; keep the
// handle alive until cancelling threads are done with it. Everything
// else (NextBatch/Next/Close/stats) is single-consumer -- callers
// serialize access to one stream. Different streams are independent.
// A stream may outlive its QueryService (it shares the admission state
// it must update on close); a stream opened on a caller-owned Tree must
// not outlive that tree.
#ifndef XPV_ENGINE_QUERY_STREAM_H_
#define XPV_ENGINE_QUERY_STREAM_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/planner.h"
#include "fo/enumerate.h"
#include "tree/axis_cache.h"
#include "xpath/eval.h"

namespace xpv::ppl {
struct MatrixEngineStats;
}  // namespace xpv::ppl

namespace xpv::engine {

/// Per-stream options for QueryService::OpenStream.
struct StreamOptions {
  /// Maximum tuples the stream will produce (after `offset`); it reports
  /// exhaustion once reached. 0 = unbounded (drain the full answer set).
  std::size_t limit = 0;
  /// Tuples skipped before the first one is produced -- the resume
  /// cursor: reopening a stream with offset = previous stats().cursor
  /// continues exactly where the previous stream stopped (stream order
  /// is deterministic per backing, and the backing depends only on the
  /// query class -- see planner.h).
  std::size_t offset = 0;
  /// Observed inside NextBatch (between tuples) and inside the backing
  /// enumerator/answerer, not just between calls.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Observability snapshot of one stream (QueryStream::stats()).
struct StreamStats {
  /// Tuples handed to the caller so far (post-offset).
  std::uint64_t produced = 0;
  /// Absolute cursor position: offset + produced. Pass as `offset` of a
  /// new stream to resume after a partial read.
  std::uint64_t cursor = 0;
  /// NextBatch calls served (monitoring).
  std::uint64_t batches = 0;
  std::size_t arity = 0;
  bool exhausted = false;
  bool closed = false;
  /// Sticky failure (deadline or cancel), OK while healthy.
  Status status;
  /// The planner's decision, including the stream backing.
  ExecutionPlan plan;
  /// Resident bytes of the backing's enumeration state: the
  /// enumerator's DFS frames and extension-check candidate sets, or the
  /// materialized answer set estimate, or the node-set bitvector. The
  /// acceptance property of the enumerator backing is that this stays
  /// flat no matter how many answers exist.
  std::size_t backing_bytes = 0;
  /// Always 0: the enumerator keeps no answer memory. Stays until
  /// perfbench stops reading it (ROADMAP item 11).
  std::size_t dedup_entries = 0;
};

namespace internal {
struct AdmissionShared;
struct StreamState;
}  // namespace internal

/// Pull-based cursor over one query's answers. Move-only; the
/// destructor closes the stream (releasing the admission slot and the
/// document pin). See the file comment for ordering, pinning, and
/// admission semantics.
class QueryStream {
 public:
  QueryStream() = default;
  QueryStream(QueryStream&&) noexcept;
  QueryStream& operator=(QueryStream&&) noexcept;
  ~QueryStream();

  /// False for default-constructed / moved-from handles.
  bool valid() const { return state_ != nullptr; }

  /// Up to `max_tuples` next tuples (at least one unless the stream
  /// ends). An empty vector means exhausted -- the full answer set (or
  /// the requested limit) has been delivered. Errors are sticky:
  /// kDeadlineExceeded / kCancelled / kResourceExhausted fail the
  /// stream, release its resources, and repeat on later calls.
  /// InvalidArgument after Close() or on max_tuples == 0.
  Result<std::vector<xpath::NodeTuple>> NextBatch(std::size_t max_tuples);

  /// Single-tuple sugar: nullopt when exhausted.
  Result<std::optional<xpath::NodeTuple>> Next();

  /// True once the stream cannot produce more tuples (exhausted, limit
  /// reached, failed, or closed).
  bool done() const;

  /// Absolute cursor position (offset + produced).
  std::uint64_t cursor() const;

  /// Requests cooperative cancellation; the next tuple boundary inside
  /// an in-flight NextBatch (even on another thread) observes it and
  /// fails with kCancelled. Idempotent, never blocks. The handle must
  /// stay alive for the duration of the call (see the file comment).
  void Cancel();

  /// Releases the backing, the document pin, and the admission slot.
  /// Idempotent; stats() stays readable. Called by the destructor.
  void Close();

  StreamStats stats() const;

 private:
  friend class QueryService;
  explicit QueryStream(std::unique_ptr<internal::StreamState> state);

  std::unique_ptr<internal::StreamState> state_;
};

namespace internal {

/// The one tree a job or stream evaluates on, with the caches that come
/// with it. QueryService::Resolve builds it for a stored document (the
/// pinned DocumentPtr and the store's persistent per-document caches);
/// the one-shot Tree entry points build a private one (a fresh AxisCache,
/// no plan memo, no relation cache) over the caller's tree.
struct JobTarget {
  DocumentPtr doc;  // null for a caller-owned tree
  const Tree* tree = nullptr;
  std::shared_ptr<AxisCache> cache;
  /// Null: every job plans afresh.
  std::shared_ptr<PlanMemo> plans;
  /// Null: no subrelation reuse across evaluations.
  std::shared_ptr<ppl::RelationCache> relations;
};

/// The monadic from-root node set of a row-restricted binary plan: the
/// matrix engine's image sweep on the plan's reassociated expression,
/// whichever engine the plan names (a forced GKP plan is positive, and
/// GKP's own FromRoot is this same sweep). The sweep observes `cancel`
/// (MatrixEngine::set_cancel). `stats` (nullable) receives the engine's
/// kernel counters on every return path.
Result<BitVector> EvaluateFromRoot(const CompiledQuery& q,
                                   const ExecutionPlan& plan,
                                   const JobTarget& target,
                                   CancelToken cancel,
                                   ppl::MatrixEngineStats* stats);

/// The tuple producer of an n-ary plan (kEnumerator or kMaterialized),
/// shared by both consumers: a stream pulls it tuple by tuple, and a
/// batch job drains it into its payload. Move-only.
class NaryBacking {
 public:
  /// Runs the backing's preprocessing on `target`: the enumerator's
  /// semijoin reduction, or the whole Fig. 8 answer set. Observes
  /// `cancel` there and, for the enumerator, between DFS steps.
  static Result<NaryBacking> Build(const CompiledQuery& q,
                                   StreamBacking backing,
                                   const JobTarget& target,
                                   CancelToken cancel);

  /// The next distinct tuple; nullopt when exhausted. Errors
  /// (kCancelled / kDeadlineExceeded) are sticky.
  Result<std::optional<xpath::NodeTuple>> Next();

  /// Advances past up to `count` tuples without producing them where
  /// the backing allows (the materialized cursor); returns how many were
  /// skipped. The enumerator must produce to skip, so it skips none.
  std::size_t FastSkip(std::size_t count);

  /// Resident bytes of the enumeration state: the enumerator's frames
  /// and candidate sets, or the materialized answer-set estimate.
  std::size_t resident_bytes() const;

 private:
  NaryBacking() = default;

  std::optional<fo::AcqEnumerator> enumerator_;
  /// Heap-held so the cursor (end() included) survives moves.
  std::unique_ptr<xpath::TupleSet> answers_;
  xpath::TupleSet::const_iterator cursor_{};
  std::size_t answers_bytes_ = 0;
};

/// The slice of QueryService's admission state shared with every stream
/// (and batch) it admits: streams must release their inflight slot --
/// and wake the dispatcher -- even if they outlive the service, so the
/// mutex/cv/counters live behind a shared_ptr rather than in the
/// service object itself.
struct AdmissionShared {
  Mutex mu;
  CondVar cv;
  /// Admitted batches currently executing.
  std::size_t inflight_batches XPV_GUARDED_BY(mu) = 0;
  /// Open streams holding an inflight slot (released on close,
  /// exhaustion, or failure).
  std::size_t open_streams XPV_GUARDED_BY(mu) = 0;
  std::uint64_t streams_opened XPV_GUARDED_BY(mu) = 0;
  std::uint64_t streams_closed XPV_GUARDED_BY(mu) = 0;
  /// Tuples delivered across all streams (relaxed; monitoring only).
  std::atomic<std::uint64_t> stream_tuples{0};
};

/// Everything one open stream owns. Heap-allocated and stable: the
/// cancel flag is observed by CancelToken copies inside the backing.
struct StreamState {
  // Pins + plan, immutable after OpenStream.
  std::shared_ptr<AdmissionShared> adm;
  /// The pinned tree and its caches. The node-set backing consults the
  /// relation cache; stream consults show up in the store's
  /// relation_hits/relation_misses, not in the service's job counters.
  JobTarget target;
  std::shared_ptr<const CompiledQuery> compiled;
  ExecutionPlan plan;
  StreamOptions options;
  std::size_t arity = 0;

  std::atomic<bool> cancelled{false};
  /// Observes `cancelled` + options.deadline; checked between tuples.
  /// The backing holds its own copies over the same flag/deadline.
  CancelToken token;

  // Backing, built lazily by the first NextBatch.
  bool backing_built = false;
  std::optional<NaryBacking> nary;
  std::optional<BitVector> node_set;
  std::size_t node_pos = 0;

  // Cursor + terminal state (single-consumer).
  std::uint64_t skipped = 0;
  std::uint64_t produced = 0;
  std::uint64_t batches = 0;
  bool exhausted = false;
  bool closed = false;
  bool slot_released = false;
  Status failed;

  /// Drops the backing and document pin; releases the admission slot.
  void ReleaseResources();
};

}  // namespace internal

}  // namespace xpv::engine

#endif  // XPV_ENGINE_QUERY_STREAM_H_
