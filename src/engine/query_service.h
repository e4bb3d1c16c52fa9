// Batched parallel query evaluation -- the serving layer over the paper's
// engines.
//
// A QueryService accepts batches of (document, query-text, result-shape)
// jobs and:
//
//   1. compiles each distinct query text once (QueryCache) into a
//      tree-independent CompiledQuery recording every admissible engine,
//   2. plans each job per (compiled query, tree, result shape) with the
//      cost-based planner (engine/planner.h), choosing GkpEngine (full
//      relations), MatrixEngine, or the n-ary answer machinery (Prop. 8
//      enumeration for ACQs, Fig. 8 for unions) from Tree::Stats and
//      taking the matrix engine's monadic row-restricted fast path when
//      the caller only consumes a node set / boolean / count,
//   3. executes jobs across a fixed thread pool with a *shard-aware*
//      scheduler: jobs are grouped by the DocumentStore shard their
//      document resides in, each worker drains "its" shard group first
//      (maximizing axis-cache and plan-memo affinity within a shard) and
//      then work-steals from the remaining groups so no worker idles
//      while another shard still has jobs.
//
// Batch jobs address their document by DocumentId into a DocumentStore,
// whose per-document AxisCache persists across batches: a document
// queried by many batches materializes each axis relation once in its
// lifetime, not once per batch. The one-shot Evaluate/OpenStream
// overloads also take a caller-owned Tree, evaluated with private caches
// that live for that one call.
//
// Admission control. In front of the synchronous EvaluateBatch path the
// service offers a bounded asynchronous front door: TrySubmit() enqueues a
// batch if the submission queue has room and returns kOverloaded
// otherwise, giving callers explicit backpressure instead of unbounded
// memory growth. A dispatcher thread admits queued batches while fewer
// than `max_inflight_batches` are running -- open streams (below) count
// against the same bound. Each batch may carry a deadline and can be
// cancelled through its BatchHandle; both are checked between jobs -- a
// job observed after the deadline/cancellation reports
// kDeadlineExceeded/kCancelled without running -- AND inside running
// jobs. N-ary answering, GKP full relations and every matrix-engine
// evaluation observe the batch's CancelToken and stop cooperatively with
// the same statuses: n-ary answering between DFS or recursion steps, GKP
// between source rows, the matrix engine at each interior node of a
// relation (on entry and between its operands and its own product) and
// at each step of the from-root image sweep behind monadic jobs and
// node-set streams. That sweep passes through a complement it reaches
// from one source; only a complement of a non-step operand reached from
// many sources builds a sub-matrix, checked node by node like a full
// relation. An accepted batch is never dropped: even service destruction
// drains the queue first. ServiceStats snapshots the
// queued/running/completed/rejected counters plus the store's per-shard
// cache hit rates for monitoring (see examples/batch_server.cc).
//
// Streaming. OpenStream() returns a QueryStream cursor
// (engine/query_stream.h) that serves a query's answers incrementally --
// n-ary answers by polynomial-delay enumeration where the query admits
// it -- instead of materializing the tuple set into a QueryResult. A
// stream pins its document (correct across concurrent Remove/re-Intern),
// occupies one inflight slot until closed or drained, and honors its
// deadline and Cancel() between tuples. Batch jobs requesting
// ResultShape::kTupleStream are rejected: the streaming shape is only
// reachable through OpenStream.
//
// Results are deterministic: each job writes only its own result slot and
// every engine is a pure function of (tree, compiled query), so the output
// vector is byte-identical across thread counts, shard counts, and
// scheduling orders.
#ifndef XPV_ENGINE_QUERY_SERVICE_H_
#define XPV_ENGINE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bit_matrix.h"
#include "common/cancel.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/planner.h"
#include "engine/query_cache.h"
#include "engine/query_stream.h"
#include "engine/thread_pool.h"
#include "tree/axis_cache.h"
#include "tree/tree.h"
#include "xpath/eval.h"

namespace xpv::ppl {
struct MatrixEngineStats;
}  // namespace xpv::ppl

namespace xpv::engine {

/// One unit of work: evaluate `query` on the stored document `document`
/// (the service's DocumentStore). kNoDocument, or any id when the service
/// has no store, fails with InvalidArgument; unknown ids with NotFound.
struct QueryJob {
  DocumentId document = kNoDocument;
  std::string query;
  /// What this job's caller consumes (see engine/planner.h). Shapes other
  /// than kFullRelation unlock the monadic row-restricted fast path.
  ResultShape shape = ResultShape::kFullRelation;
  /// Tests and ablations only: forced planner decisions (engine/planner.h).
  PlanOverrides overrides;
};

/// Outcome of one job. Which payload fields are populated follows the
/// job's requested shape (the table in engine/planner.h):
///
///   kFullRelation  binary: relation + from_root     n-ary: tuples
///   kFromRootSet   binary: from_root                n-ary: tuples
///   kBoolean       boolean (from-root set / tuple set nonempty)
///   kCount         count (|from-root set| / |tuple set|)
struct QueryResult {
  /// Non-OK when the query failed to compile (syntax / fragment), the job
  /// was malformed, or the job was skipped by admission control:
  /// kDeadlineExceeded / kCancelled mark jobs whose batch deadline passed
  /// or was cancelled before the job started (such jobs never run), or
  /// mid-run: every engine observes the batch's CancelToken (n-ary
  /// answering, GKP full relations, matrix relations and image sweeps).
  /// Engine fields are empty whenever status is non-OK.
  Status status;
  /// The planner's decision that produced this result (valid when status
  /// is OK): engine, shape, row restriction, estimated costs.
  ExecutionPlan plan;

  /// Binary engines: the full relation q^bin_P(t) (kFullRelation only)
  /// and its monadic from-the-root restriction. Matrix-engine results
  /// that evaluated sparsely densify into `relation` while the tree is
  /// under the dense ceiling (so the payload is byte-identical across
  /// representations); above it -- trees where no dense n x n form can
  /// exist -- the run-list result is returned in `relation_sparse`
  /// instead and `relation` stays empty.
  BitMatrix relation;
  std::shared_ptr<const SparseBoolMatrix> relation_sparse;
  BitVector from_root;

  /// kNaryAnswer: the answer set q_{C,x}(t).
  xpath::TupleSet tuples;

  /// kBoolean / kCount payloads.
  bool boolean = false;
  std::uint64_t count = 0;
};

struct QueryServiceOptions {
  /// Worker threads for batch evaluation. 0 = hardware concurrency;
  /// 1 = evaluate inline on the calling thread (no pool).
  std::size_t num_threads = 0;
  /// Corpus for jobs and streams addressed by DocumentId. Not owned; must
  /// outlive the service. Null = only the one-shot Tree overloads of
  /// Evaluate and OpenStream work; every DocumentId fails with
  /// InvalidArgument.
  DocumentStore* document_store = nullptr;
  /// Admission control: maximum batches waiting in the TrySubmit queue
  /// before new submissions are rejected with kOverloaded. 0 = unbounded.
  std::size_t max_queued_batches = 64;
  /// Maximum admitted batches executing concurrently (they share the one
  /// thread pool; bounding this bounds the service's transient result
  /// memory). 0 = unbounded.
  std::size_t max_inflight_batches = 2;
};

/// Per-batch submission options for the asynchronous TrySubmit path.
struct BatchOptions {
  /// Jobs not yet started when this instant passes report
  /// kDeadlineExceeded instead of running. Unset = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

namespace internal {
struct BatchState;
}  // namespace internal

/// Handle to a batch accepted by QueryService::TrySubmit. Cheap to copy;
/// all copies refer to the same batch.
///
/// Thread safety: Wait/Cancel/done may be called concurrently from any
/// thread. Wait() blocks until the batch finishes and moves the results
/// out -- call it once per batch (later calls return an empty vector).
/// The handle may outlive the service; a batch accepted before the
/// service's destructor began is always completed by it.
class BatchHandle {
 public:
  BatchHandle() = default;

  /// False for default-constructed handles.
  bool valid() const { return state_ != nullptr; }
  /// Non-blocking: has the batch finished?
  bool done() const;
  /// Blocks until the batch finishes; results[i] corresponds to the
  /// submitted jobs[i]. Moves the results out of the handle.
  std::vector<QueryResult> Wait();
  /// Requests cancellation: jobs not yet started report kCancelled; jobs
  /// already running stop at their engine's next cancellation check
  /// (every engine has them; see the cancellation paragraph above) or
  /// finish normally.
  /// Idempotent; never blocks.
  void Cancel();

 private:
  friend class QueryService;
  explicit BatchHandle(std::shared_ptr<internal::BatchState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::BatchState> state_;
};

/// Snapshot of the admission front-end and execution counters. Batch
/// counters cover the TrySubmit path; job counters cover every executed
/// job (TrySubmit and synchronous EvaluateBatch/Evaluate alike). The
/// invariant `batches_accepted == batches_completed + batches_queued +
/// batches_running` holds at every quiescent point.
struct ServiceStats {
  std::uint64_t batches_accepted = 0;   // TrySubmit returned a handle
  std::uint64_t batches_rejected = 0;   // TrySubmit returned kOverloaded
  std::uint64_t batches_completed = 0;  // accepted batches finished
  std::size_t batches_queued = 0;       // waiting for admission now
  std::size_t batches_running = 0;      // admitted, executing now
  /// Job slots finalized with a real result -- including jobs that
  /// finished with an error status (malformed addressing, unknown id,
  /// compile failure). Excludes jobs skipped by admission control and
  /// jobs interrupted mid-run by cooperative cancellation, so for every
  /// batch: slots == completed + cancelled + expired.
  std::uint64_t jobs_completed = 0;
  /// Jobs skipped before starting OR stopped mid-run because their
  /// batch was cancelled.
  std::uint64_t jobs_cancelled = 0;
  /// Jobs skipped before starting OR stopped mid-run because their
  /// batch deadline passed.
  std::uint64_t jobs_deadline_exceeded = 0;
  /// Streams: opened ever, closed/drained/failed ever, and the gauge of
  /// streams currently holding an inflight slot.
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::size_t streams_open = 0;
  /// Tuples delivered across all streams.
  std::uint64_t stream_tuples = 0;
  /// Matrix-engine kernel counters aggregated across every executed job
  /// (ppl::MatrixEngineStats semantics: a product counts dense when any
  /// operand forced a packed-row kernel, sparse only for pure run-merge
  /// SpGEMM; a crossover is a mid-evaluation re-encoding between the
  /// representations).
  std::uint64_t dense_products = 0;
  std::uint64_t sparse_products = 0;
  std::uint64_t repr_crossovers = 0;
  /// Subrelation-cache consults by executed jobs (ppl/relation_cache.h):
  /// hits served a materialized interior subexpression without
  /// recomputing it; misses evaluated and (budget permitting) inserted
  /// it. GKP jobs consult at whole-relation granularity, matrix jobs per
  /// interior node. Stream-served consults are visible in the store's
  /// relation_hits/relation_misses, not here (same split as the kernel
  /// counters above).
  std::uint64_t subrel_hits = 0;
  std::uint64_t subrel_misses = 0;
  /// Composition chains whose association the planner's DP changed,
  /// summed over executed matrix plans (a memoized plan counts each time
  /// a job runs it).
  std::uint64_t chains_reassociated = 0;
  /// Per-shard corpus counters (empty when the service has no store).
  /// Store-wide gauges and counters (resident bytes, spills, reloads)
  /// are read from DocumentStore::stats() directly.
  std::vector<DocumentStoreStats> shard_stats;
};

/// Compile-plan-execute service over the three engines. Thread-safe:
/// concurrent EvaluateBatch / TrySubmit calls share the query cache, the
/// admission queue, and the pool.
///
/// Blocking behavior: Evaluate and EvaluateBatch block the calling thread
/// until their results are complete (EvaluateBatch bypasses the admission
/// queue). TrySubmit never blocks beyond a mutex; stats() never blocks
/// beyond the mutexes it snapshots. The destructor blocks until every
/// accepted batch has completed.
class QueryService {
 public:
  explicit QueryService(QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Evaluates one query immediately on the calling thread, over a
  /// caller-owned tree with a fresh AxisCache and no plan memo or
  /// relation cache.
  QueryResult Evaluate(const Tree& tree, std::string_view query,
                       ResultShape shape = ResultShape::kFullRelation);
  /// Evaluates one query on a stored document (uses its persistent axis
  /// cache, plan memo and relation cache). NotFound for unknown ids;
  /// InvalidArgument for kNoDocument and when the service has no store.
  QueryResult Evaluate(DocumentId document, std::string_view query,
                       ResultShape shape = ResultShape::kFullRelation);

  /// Evaluates a batch synchronously; results[i] corresponds to jobs[i].
  /// Jobs on the same DocumentId share the store's persistent
  /// per-document caches, across batches. Jobs are scheduled by resident
  /// shard with cross-shard work stealing.
  std::vector<QueryResult> EvaluateBatch(const std::vector<QueryJob>& jobs);

  /// Admission-controlled asynchronous submission. Returns a handle whose
  /// Wait() yields the results, or kOverloaded when `max_queued_batches`
  /// batches are already waiting -- the rejected batch is not retained and
  /// none of its jobs run. Accepted batches always complete (rejections
  /// never lose accepted work; see ServiceStats).
  Result<BatchHandle> TrySubmit(std::vector<QueryJob> jobs,
                                BatchOptions options = {});

  /// Opens a streaming cursor over the query's answers on a stored
  /// document (pinning it for the stream's lifetime) or a caller-owned
  /// tree (which must outlive the stream). Never blocks: kOverloaded
  /// when all `max_inflight_batches` slots are taken (by batches or
  /// other open streams) or the service is shutting down; compile
  /// errors and unknown ids surface as on Evaluate. The stream may
  /// outlive the service -- during destruction, open streams stop
  /// counting against the inflight bound so accepted batches always
  /// drain. See engine/query_stream.h for semantics.
  Result<QueryStream> OpenStream(DocumentId document, std::string_view query,
                                 StreamOptions options = {});
  Result<QueryStream> OpenStream(const Tree& tree, std::string_view query,
                                 StreamOptions options = {});

  /// Snapshot of admission/execution counters and per-shard store stats.
  ServiceStats stats() const;

  /// Compiled-query cache (hit/miss stats for monitoring and tests).
  const QueryCache& cache() const { return cache_; }

  /// Effective worker count (>= 1).
  std::size_t num_threads() const { return num_threads_; }

  /// The corpus this service serves from (may be null).
  DocumentStore* document_store() const { return store_; }

 private:
  /// The only code that touches the store: fetches `document` and its
  /// persistent caches into one pinned target. InvalidArgument for
  /// kNoDocument and when the service has no store; the store's typed
  /// Fetch status (kNotFound, kDataLoss) otherwise.
  Result<internal::JobTarget> Resolve(DocumentId document);
  /// Compiles, plans and executes one job on `target`. `precompiled`
  /// (optional) is the batch-prepare pass's QueryCache result for this
  /// job's text; when set, RunJob skips its own cache lookup so each job
  /// costs exactly one lookup per batch.
  QueryResult RunJob(const internal::JobTarget& target,
                     const std::string& query, ResultShape shape,
                     const PlanOverrides& overrides,
                     const Result<std::shared_ptr<const CompiledQuery>>*
                         precompiled = nullptr,
                     CancelToken cancel = {});
  /// Shared tail of the OpenStream overloads: compiles, plans, takes an
  /// inflight slot, and builds the stream state.
  Result<QueryStream> OpenStreamImpl(internal::JobTarget target,
                                     std::string_view query,
                                     StreamOptions options);

  /// Resolves each distinct document once and builds the per-shard job
  /// groups.
  void PrepareRun(internal::BatchState& run);
  /// Runs one claimed job (admission checks, then RunJob).
  void RunOne(internal::BatchState& run, std::size_t job_index);
  /// Drains the worker's own shard group, then steals from the others.
  void RunBatchWorker(internal::BatchState& run, std::size_t worker_index);
  /// Executes a prepared run inline or across the pool; marks the batch
  /// done (and updates admission counters for admitted batches) when the
  /// last worker finishes. Returns immediately when the pool is used.
  void ExecuteRun(std::shared_ptr<internal::BatchState> run);
  /// Marks `run` complete and wakes waiters / the dispatcher.
  void FinishRun(internal::BatchState& run);
  /// Dispatcher thread: admits queued batches while capacity allows.
  void DispatcherLoop();
  /// Folds one matrix-engine run's kernel counters into the service-wide
  /// atomics snapshotted by stats().
  void AccumulateEngineStats(const ppl::MatrixEngineStats& s);

  std::size_t num_threads_;
  QueryCache cache_;
  DocumentStore* store_;  // not owned

  // Admission front-end. adm_->mu guards the queue, the batch counters,
  // and the inflight/stream gauges (the mutex/cv/gauges live in the
  // shared AdmissionShared so streams outliving the service can still
  // release their slot); job counters are atomics written from workers.
  const std::size_t max_queued_batches_;
  const std::size_t max_inflight_batches_;
  const std::shared_ptr<internal::AdmissionShared> adm_ =
      std::make_shared<internal::AdmissionShared>();
  std::deque<std::shared_ptr<internal::BatchState>> adm_queue_
      XPV_GUARDED_BY(adm_->mu);
  bool stopping_ XPV_GUARDED_BY(adm_->mu) = false;
  std::uint64_t batches_accepted_ XPV_GUARDED_BY(adm_->mu) = 0;
  std::uint64_t batches_rejected_ XPV_GUARDED_BY(adm_->mu) = 0;
  std::uint64_t batches_completed_ XPV_GUARDED_BY(adm_->mu) = 0;
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};
  std::atomic<std::uint64_t> jobs_deadline_exceeded_{0};
  // Matrix-engine kernel counters (ServiceStats), accumulated per job
  // from the engine's MatrixEngineStats after each matrix-plan execution.
  std::atomic<std::uint64_t> dense_products_{0};
  std::atomic<std::uint64_t> sparse_products_{0};
  std::atomic<std::uint64_t> repr_crossovers_{0};
  // Subrelation-cache consults and DP-changed chains (ServiceStats),
  // accumulated per executed job.
  std::atomic<std::uint64_t> subrel_hits_{0};
  std::atomic<std::uint64_t> subrel_misses_{0};
  std::atomic<std::uint64_t> chains_reassociated_{0};
  std::thread dispatcher_;

  // Declared last: destroyed first, joining workers (and thus finishing
  // every in-flight batch) before the admission state above goes away.
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
};

}  // namespace xpv::engine

#endif  // XPV_ENGINE_QUERY_SERVICE_H_
