#include "engine/query_service.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"

namespace xpv::engine {

namespace internal {

/// Everything one batch needs from submission to completion. Shared by
/// the submitting caller (through BatchHandle), the dispatcher, and the
/// pool workers; the last finisher marks it done.
struct BatchState {
  // Submission.
  std::vector<QueryJob> owned_jobs;        // TrySubmit path owns its jobs
  const std::vector<QueryJob>* jobs = nullptr;  // always valid during run
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::atomic<bool> cancelled{false};
  bool admitted = false;  // went through TrySubmit (admission counters)

  // Prepared run state (PrepareRun).
  std::vector<QueryResult> results;
  /// Per-job compiled queries, filled by PrepareRun's CSE pass (empty
  /// for doomed or single-job batches): workers reuse them instead of
  /// re-consulting the QueryCache, so each job costs one cache lookup
  /// per batch no matter which path resolved it.
  std::vector<std::optional<Result<std::shared_ptr<const CompiledQuery>>>>
      compiled;
  /// Every distinct document the batch addresses, resolved once (or the
  /// typed reason it could not be).
  std::unordered_map<DocumentId, Result<JobTarget>> docs;
  /// Job indices grouped by resident store shard (one group when the
  /// service has no store).
  std::vector<std::vector<std::size_t>> groups;
  /// One claim cursor per group; workers fetch_add to claim job slots.
  std::unique_ptr<std::atomic<std::size_t>[]> cursors;
  std::atomic<std::size_t> remaining_workers{0};

  // Completion.
  Mutex mu;
  CondVar cv;
  bool done XPV_GUARDED_BY(mu) = false;
};

}  // namespace internal

using internal::BatchState;
using internal::JobTarget;

namespace {

/// A private target over a caller-owned tree: a fresh AxisCache, no plan
/// memo, no relation cache -- the one-shot Tree entry points.
JobTarget OneShotTarget(const Tree& tree) {
  JobTarget target;
  target.tree = &tree;
  target.cache = std::make_shared<AxisCache>(tree);
  return target;
}

/// Derives the monadic payload from a from-root node set.
void FinishMonadic(QueryResult& result, ResultShape shape, BitVector image) {
  switch (shape) {
    case ResultShape::kFullRelation:
    case ResultShape::kFromRootSet:
    case ResultShape::kTupleStream:  // unreachable: rejected in RunJob
      result.from_root = std::move(image);
      return;
    case ResultShape::kBoolean:
      result.boolean = image.Any();
      return;
    case ResultShape::kCount:
      result.count = image.Count();
      return;
  }
}

/// Drains an n-ary backing into the payload the shape asks for: kBoolean
/// stops at the first tuple, kCount keeps no tuples, and the tuple
/// shapes collect every one (hinted at the end: the materialized backing
/// emits in order). A failed drain leaves no partial payload.
Status FinishNary(QueryResult& result, ResultShape shape,
                  internal::NaryBacking& backing) {
  while (true) {
    Result<std::optional<xpath::NodeTuple>> next = backing.Next();
    if (!next.ok()) {
      result.tuples.clear();
      result.count = 0;
      return next.status();
    }
    if (!next->has_value()) return Status::OK();
    switch (shape) {
      case ResultShape::kFullRelation:
      case ResultShape::kFromRootSet:
      case ResultShape::kTupleStream:  // unreachable: rejected in RunJob
        result.tuples.emplace_hint(result.tuples.end(), std::move(**next));
        break;
      case ResultShape::kBoolean:
        result.boolean = true;
        return Status::OK();
      case ResultShape::kCount:
        ++result.count;
        break;
    }
  }
}

}  // namespace

// ----------------------------------------------------------- BatchHandle

bool BatchHandle::done() const {
  if (state_ == nullptr) return false;
  MutexLock lock(state_->mu);
  return state_->done;
}

std::vector<QueryResult> BatchHandle::Wait() {
  if (state_ == nullptr) return {};
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(lock);
  return std::move(state_->results);
}

void BatchHandle::Cancel() {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------- QueryService

QueryService::QueryService(QueryServiceOptions options)
    : num_threads_(options.num_threads),
      store_(options.document_store),
      max_queued_batches_(options.max_queued_batches),
      max_inflight_batches_(options.max_inflight_batches) {
  if (num_threads_ == 0) {
    num_threads_ = std::thread::hardware_concurrency();
    if (num_threads_ == 0) num_threads_ = 1;
  }
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

QueryService::~QueryService() {
  {
    MutexLock lock(adm_->mu);
    stopping_ = true;
  }
  adm_->cv.NotifyAll();
  // The dispatcher drains the queue before exiting (accepted batches are
  // never lost); pool_'s destructor then joins the workers, finishing any
  // batch still in flight before the admission state is destroyed.
  dispatcher_.join();
}

QueryResult QueryService::Evaluate(const Tree& tree, std::string_view query,
                                   ResultShape shape) {
  QueryResult result =
      RunJob(OneShotTarget(tree), std::string(query), shape, {});
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

QueryResult QueryService::Evaluate(DocumentId document, std::string_view query,
                                   ResultShape shape) {
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  Result<JobTarget> target = Resolve(document);
  if (!target.ok()) {
    QueryResult result;
    result.status = target.status();
    return result;
  }
  return RunJob(*target, std::string(query), shape, {});
}

Result<JobTarget> QueryService::Resolve(DocumentId document) {
  if (document == kNoDocument) {
    return Status::InvalidArgument("job addresses no document (kNoDocument)");
  }
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "job addresses a DocumentId but the service has no DocumentStore");
  }
  // Fetch (not Get): a spilled document faults back in transparently, and
  // a genuinely failed fault-in (corrupt or vanished segment) surfaces
  // its typed kDataLoss / kNotFound instead of a generic "unknown id".
  XPV_ASSIGN_OR_RETURN(DocumentPtr doc, store_->Fetch(document));
  JobTarget target;
  target.tree = &doc->tree();
  target.cache = store_->AxisCacheFor(document);
  if (target.cache == nullptr) {
    // A Remove() racing between the fetch and the cache lookup loses the
    // store's persistent cache (the lookup returns null for ids the store
    // no longer knows); the pinned tree is still valid, so fall back to a
    // private cache.
    target.cache = std::make_shared<AxisCache>(*target.tree);
  }
  target.plans = store_->PlanMemoFor(document);
  target.relations = store_->RelationCacheFor(document);
  target.doc = std::move(doc);
  return target;
}

QueryResult QueryService::RunJob(
    const JobTarget& target, const std::string& query, ResultShape shape,
    const PlanOverrides& overrides,
    const Result<std::shared_ptr<const CompiledQuery>>* precompiled,
    CancelToken cancel) {
  QueryResult result;
  if (shape == ResultShape::kTupleStream) {
    result.status = Status::InvalidArgument(
        "the tuple-stream shape is served by OpenStream, not batch jobs");
    return result;
  }
  if (target.tree->empty()) {
    result.status = Status::InvalidArgument("job has an empty tree");
    return result;
  }
  std::optional<Result<std::shared_ptr<const CompiledQuery>>> own_compiled;
  if (precompiled == nullptr) {
    own_compiled.emplace(cache_.GetOrCompile(query));
    precompiled = &*own_compiled;
  }
  const Result<std::shared_ptr<const CompiledQuery>>& compiled = *precompiled;
  if (!compiled.ok()) {
    result.status = compiled.status();
    return result;
  }
  const CompiledQuery& q = **compiled;
  const Tree& t = *target.tree;

  // Plan stage: per (compiled query, tree, shape), memoized per document.
  // Forced engines and forced representations (tests, ablations) bypass
  // the memo so a forced run never pollutes the planner's cache.
  if (overrides.repr.has_value() && q.pplbin == nullptr) {
    result.status = Status::InvalidArgument(
        "representation override applies only to binary (PPLbin) queries: " +
        q.text);
    return result;
  }
  if (overrides.engine.has_value() && !q.Admits(*overrides.engine)) {
    result.status = Status::InvalidArgument(
        "engine override '" + std::string(EnginePlanName(*overrides.engine)) +
        "' is not admissible for query: " + q.text);
    return result;
  }
  ExecutionPlan plan;
  if (overrides.engine.has_value() || overrides.repr.has_value() ||
      overrides.parse_order) {
    plan = PlanQuery(q, t, shape, overrides.engine, 0, overrides.repr,
                     overrides.parse_order);
  } else if (target.plans != nullptr) {
    // Memoized under the canonical text: syntactic variants of one query
    // share one plan entry (mirroring the QueryCache's canonical keying).
    plan = target.plans->GetOrCompute(
        q.canonical_text, shape, [&] { return PlanQuery(q, t, shape); });
  } else {
    plan = PlanQuery(q, t, shape);
  }
  result.plan = plan;

  // Dense ceiling: a plan that must materialize an n x n BitMatrix is
  // refused on oversized trees -- a clean error instead of an O(n^2)-bit
  // allocation (~125 GB at 1M nodes). Monadic shapes on such trees keep
  // working through interval-backed axis relations.
  if (t.size() > BitMatrix::kMaxDenseNodes &&
      PlanRequiresDenseRelation(q, plan)) {
    result.status = Status::ResourceExhausted(
        "plan " + plan.DebugString() + " requires a dense relation on a " +
        std::to_string(t.size()) + "-node tree (dense ceiling " +
        std::to_string(BitMatrix::kMaxDenseNodes) +
        " nodes); request a monadic result shape instead");
    return result;
  }

  // Executed matrix plans whose chains the DP re-parenthesized evaluate
  // the reassociated form -- same factor order, cheapest association.
  if (plan.engine == EnginePlan::kMatrixGeneral &&
      plan.reassociated != nullptr) {
    chains_reassociated_.fetch_add(plan.chains_reassociated,
                                   std::memory_order_relaxed);
  }

  // Execute stage: dispatch through the plan. Every monadic binary plan
  // is row-restricted and propagates one from-root vector.
  if (plan.row_restricted) {
    ppl::MatrixEngineStats engine_stats;
    Result<BitVector> image =
        internal::EvaluateFromRoot(q, plan, target, cancel, &engine_stats);
    AccumulateEngineStats(engine_stats);
    if (!image.ok()) {
      result.status = image.status();
      return result;
    }
    FinishMonadic(result, plan.shape, std::move(image).value());
    return result;
  }
  switch (plan.engine) {
    case EnginePlan::kGkpPositive: {
      ppl::GkpEngine engine(target.cache);
      engine.set_relation_cache(target.relations);
      Result<BitMatrix> rel = engine.Relation(*q.pplbin, cancel);
      AccumulateEngineStats(engine.stats());
      if (!rel.ok()) {
        result.status = rel.status();
        return result;
      }
      result.relation = std::move(rel).value();
      break;
    }
    case EnginePlan::kMatrixGeneral: {
      ppl::MatrixEngine engine(target.cache, ppl::MultiplyMode::kBitPacked,
                               plan.repr);
      engine.set_relation_cache(target.relations);
      engine.set_cancel(cancel);
      Result<ppl::AnyMatrix> rel = engine.EvaluateAny(
          plan.reassociated != nullptr ? *plan.reassociated : *q.pplbin);
      AccumulateEngineStats(engine.stats());
      // The last product may have outlived the deadline: stop before
      // paying for the payload (densify, or the above-ceiling from_root).
      Status live = rel.ok() ? cancel.CheckNow() : rel.status();
      if (!live.ok()) {
        result.status = live;
        return result;
      }
      ppl::AnyMatrix m = std::move(rel).value();
      if (m.is_dense()) {
        result.relation = std::move(m).TakeDense();
        break;
      }
      if (t.size() <= BitMatrix::kMaxDenseNodes) {
        // Under the dense ceiling the payload contract is a dense
        // BitMatrix regardless of the representation the engine composed
        // in -- keeping results byte-identical across repr overrides. The
        // densification cannot exceed the ceiling we just checked.
        Result<BitMatrix> dense = m.ToDense();
        if (!dense.ok()) {
          result.status = dense.status();
          return result;
        }
        result.relation = std::move(dense).value();
        break;
      }
      // Above the ceiling no dense n x n form can exist: hand the caller
      // the run-list relation and derive from_root from it directly.
      BitVector root_only(t.size());
      root_only.Set(t.root());
      result.from_root = m.ImageOf(root_only);
      result.relation_sparse = std::make_shared<const SparseBoolMatrix>(
          std::move(m).TakeSparse());
      return result;
    }
    case EnginePlan::kNaryAnswer: {
      // The backing a stream over this query would pull, drained into
      // the payload. The batch's cancel token reaches its preprocessing
      // and every enumeration step, so BatchHandle::Cancel and expired
      // deadlines stop an in-flight n-ary job mid-run.
      Result<internal::NaryBacking> backing =
          internal::NaryBacking::Build(q, plan.backing, target, cancel);
      result.status = backing.ok()
                          ? FinishNary(result, plan.shape, *backing)
                          : backing.status();
      return result;
    }
  }

  // Full binary relation computed; plan.shape is kFullRelation here --
  // every monadic binary plan is row-restricted and returned inside the
  // switch above.
  BitVector root_only(t.size());
  root_only.Set(t.root());
  result.from_root = result.relation.ImageOf(root_only);
  return result;
}

// ------------------------------------------------- batch run machinery

void QueryService::PrepareRun(BatchState& run) {
  const std::vector<QueryJob>& jobs = *run.jobs;
  run.results.resize(jobs.size());

  // A batch already cancelled or past its deadline will skip every job
  // (cancellation is sticky and deadlines are monotone, so RunOne is
  // guaranteed to observe the same condition): don't resolve documents or
  // build axis caches for it -- resolution would churn the store's LRU
  // and could retire hot caches that live batches are using.
  const bool doomed =
      run.cancelled.load(std::memory_order_relaxed) ||
      (run.deadline.has_value() &&
       std::chrono::steady_clock::now() > *run.deadline);

  // Resolve every distinct document once, touching the store's LRU once
  // per batch, not once per job.
  if (!doomed) {
    for (const QueryJob& job : jobs) {
      if (!run.docs.contains(job.document)) {
        run.docs.emplace(job.document, Resolve(job.document));
      }
    }
  }

  // Shard-affine grouping: jobs resident on one store shard share that
  // shard's hot caches, so a worker draining one group touches one
  // shard's working set.
  run.groups.assign(store_ != nullptr ? store_->num_shards() : 1, {});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    run.groups[store_ != nullptr ? store_->shard_of(jobs[i].document) : 0]
        .push_back(i);
  }
  // Batch-level common-subexpression ordering: within each group, jobs
  // on one document sharing one canonical query run back to back, so the
  // first evaluates each distinct subrelation and the rest hit the
  // document's RelationCache while the entries are hottest (LRU eviction
  // between distant duplicates can otherwise lose the reuse under a
  // tight byte budget). Warming the compile cache here also makes the
  // canonical text available for the sort; workers then hit it. Results
  // are order-independent (each job writes only its own slot), so this
  // reordering never changes output, only reuse.
  if (!doomed && jobs.size() > 1) {
    run.compiled.reserve(jobs.size());
    std::vector<std::string> keys(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const QueryJob& job = jobs[i];
      run.compiled.emplace_back(cache_.GetOrCompile(job.query));
      const auto& compiled = *run.compiled.back();
      keys[i] = std::to_string(job.document);
      keys[i].push_back('\x1f');
      keys[i] += compiled.ok() ? (*compiled)->canonical_text : job.query;
    }
    for (std::vector<std::size_t>& group : run.groups) {
      std::stable_sort(group.begin(), group.end(),
                       [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                       });
    }
  }

  run.cursors =
      std::make_unique<std::atomic<std::size_t>[]>(run.groups.size());
  for (std::size_t g = 0; g < run.groups.size(); ++g) {
    run.cursors[g].store(0, std::memory_order_relaxed);
  }
}

void QueryService::RunOne(BatchState& run, std::size_t i) {
  const QueryJob& job = (*run.jobs)[i];
  // Admission checks between jobs: a cancelled or expired batch stops
  // starting new jobs but never abandons its results vector -- skipped
  // slots carry an explanatory status.
  if (run.cancelled.load(std::memory_order_relaxed)) {
    run.results[i].status =
        Status::Cancelled("batch cancelled before this job started");
    jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (run.deadline.has_value() &&
      std::chrono::steady_clock::now() > *run.deadline) {
    run.results[i].status = Status::DeadlineExceeded(
        "batch deadline passed before this job started");
    jobs_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Started jobs carry the batch's cancel token into the engine, so a
  // long-running n-ary or GKP full-relation job stops mid-run instead of
  // running to completion; attribute the slot to the counter matching its
  // outcome.
  const CancelToken token(&run.cancelled, run.deadline);
  const Result<std::shared_ptr<const CompiledQuery>>* precompiled =
      i < run.compiled.size() && run.compiled[i].has_value()
          ? &*run.compiled[i]
          : nullptr;
  const Result<JobTarget>& target = run.docs.at(job.document);
  if (target.ok()) {
    run.results[i] = RunJob(*target, job.query, job.shape, job.overrides,
                            precompiled, token);
  } else {
    run.results[i].status = target.status();
  }
  switch (run.results[i].status.code()) {
    case StatusCode::kCancelled:
      jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kDeadlineExceeded:
      jobs_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      jobs_completed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void QueryService::RunBatchWorker(BatchState& run, std::size_t worker_index) {
  // Affinity first, stealing second: worker w starts on shard group
  // w mod G and claims its jobs via the group cursor; once that group is
  // drained it moves on to the next, so stragglers on one shard are
  // finished by otherwise-idle workers. Each job writes only its own
  // result slot, so the steal order never affects results.
  const std::size_t num_groups = run.groups.size();
  for (std::size_t offset = 0; offset < num_groups; ++offset) {
    const std::size_t g = (worker_index + offset) % num_groups;
    const std::vector<std::size_t>& group = run.groups[g];
    std::atomic<std::size_t>& cursor = run.cursors[g];
    for (std::size_t k = cursor.fetch_add(1); k < group.size();
         k = cursor.fetch_add(1)) {
      RunOne(run, group[k]);
    }
  }
}

void QueryService::FinishRun(BatchState& run) {
  // Admission counters are retired BEFORE waiters are woken, so a caller
  // returning from Wait() observes stats() with this batch completed.
  if (run.admitted) {
    {
      MutexLock lock(adm_->mu);
      --adm_->inflight_batches;
      ++batches_completed_;
    }
    adm_->cv.NotifyAll();
  }
  {
    MutexLock lock(run.mu);
    run.done = true;
  }
  run.cv.NotifyAll();
}

void QueryService::ExecuteRun(std::shared_ptr<BatchState> run) {
  const std::size_t num_jobs = run->jobs->size();
  // Inline only when there is no pool or nothing to do. A single-job
  // batch still goes through the pool: on the TrySubmit path the caller
  // here is the dispatcher thread, and running the job inline would
  // serialize admission behind every batch's execution.
  if (pool_ == nullptr || num_jobs == 0) {
    RunBatchWorker(*run, 0);
    FinishRun(*run);
    return;
  }
  const std::size_t live_workers = std::min(num_threads_, num_jobs);
  run->remaining_workers.store(live_workers, std::memory_order_relaxed);
  for (std::size_t w = 0; w < live_workers; ++w) {
    pool_->Submit([this, run, w] {
      RunBatchWorker(*run, w);
      if (run->remaining_workers.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        FinishRun(*run);
      }
    });
  }
}

std::vector<QueryResult> QueryService::EvaluateBatch(
    const std::vector<QueryJob>& jobs) {
  if (jobs.empty()) return {};
  auto run = std::make_shared<BatchState>();
  run->jobs = &jobs;  // caller-owned; we block below until the run is done
  PrepareRun(*run);
  ExecuteRun(run);
  MutexLock lock(run->mu);
  while (!run->done) run->cv.Wait(lock);
  return std::move(run->results);
}

Result<BatchHandle> QueryService::TrySubmit(std::vector<QueryJob> jobs,
                                            BatchOptions options) {
  auto state = std::make_shared<BatchState>();
  state->owned_jobs = std::move(jobs);
  state->jobs = &state->owned_jobs;
  state->deadline = options.deadline;
  state->admitted = true;
  {
    MutexLock lock(adm_->mu);
    if (stopping_) {
      ++batches_rejected_;
      return Status::Overloaded("service is shutting down");
    }
    if (max_queued_batches_ != 0 &&
        adm_queue_.size() >= max_queued_batches_) {
      ++batches_rejected_;
      return Status::Overloaded(
          "admission queue full (" + std::to_string(adm_queue_.size()) +
          " batches queued, limit " + std::to_string(max_queued_batches_) +
          ")");
    }
    adm_queue_.push_back(state);
    ++batches_accepted_;
  }
  adm_->cv.NotifyAll();
  return BatchHandle(std::move(state));
}

Result<QueryStream> QueryService::OpenStream(DocumentId document,
                                             std::string_view query,
                                             StreamOptions options) {
  // The stream holds the target's DocumentPtr and AxisCache shared_ptr: a
  // concurrent Remove(document) only forgets the id -- the pinned tree
  // and cache outlive it, so an open stream keeps serving identical
  // answers (see the stream-outlives-Remove tests).
  XPV_ASSIGN_OR_RETURN(JobTarget target, Resolve(document));
  return OpenStreamImpl(std::move(target), query, options);
}

Result<QueryStream> QueryService::OpenStream(const Tree& tree,
                                             std::string_view query,
                                             StreamOptions options) {
  return OpenStreamImpl(OneShotTarget(tree), query, options);
}

Result<QueryStream> QueryService::OpenStreamImpl(JobTarget target,
                                                 std::string_view query,
                                                 StreamOptions options) {
  const Tree& tree = *target.tree;
  if (tree.empty()) {
    return Status::InvalidArgument("stream has an empty tree");
  }
  Result<std::shared_ptr<const CompiledQuery>> compiled =
      cache_.GetOrCompile(std::string(query));
  if (!compiled.ok()) return compiled.status();

  // Plan with the caller's tuple budget (offset tuples are produced and
  // discarded, so they count). Stream plans are cheap and depend on the
  // limit, so they bypass the per-document PlanMemo.
  const std::size_t budget =
      options.limit == 0 ? 0 : options.offset + options.limit;
  ExecutionPlan plan = PlanQuery(**compiled, tree,
                                 ResultShape::kTupleStream, {}, budget);

  // Same dense ceiling as RunJob: n-ary stream backings (enumerator
  // preprocessing and Fig. 8 materialization alike) build n x n
  // relations, so refuse them on oversized trees up front.
  if (tree.size() > BitMatrix::kMaxDenseNodes &&
      PlanRequiresDenseRelation(**compiled, plan)) {
    return Status::ResourceExhausted(
        "stream plan " + plan.DebugString() +
        " requires a dense relation on a " + std::to_string(tree.size()) +
        "-node tree (dense ceiling " +
        std::to_string(BitMatrix::kMaxDenseNodes) + " nodes)");
  }

  // Take one inflight slot; never block. An open stream is admitted load
  // exactly like a running batch.
  {
    MutexLock lock(adm_->mu);
    if (stopping_) {
      return Status::Overloaded("service is shutting down");
    }
    if (max_inflight_batches_ != 0 &&
        adm_->inflight_batches + adm_->open_streams >=
            max_inflight_batches_) {
      return Status::Overloaded(
          "all " + std::to_string(max_inflight_batches_) +
          " inflight slots are taken (" +
          std::to_string(adm_->open_streams) + " open streams)");
    }
    ++adm_->open_streams;
    ++adm_->streams_opened;
  }

  auto state = std::make_unique<internal::StreamState>();
  state->adm = adm_;
  state->target = std::move(target);
  state->compiled = std::move(compiled).value();
  state->plan = plan;
  state->options = options;
  state->arity = state->compiled->pplbin != nullptr
                     ? 1
                     : state->compiled->tuple_vars.size();
  state->token = CancelToken(&state->cancelled, options.deadline);
  return QueryStream(std::move(state));
}

void QueryService::DispatcherLoop() {
  MutexLock lock(adm_->mu);
  while (true) {
    // Open streams count against the inflight bound -- except during
    // shutdown: a stream the caller still holds may never close (it
    // cannot while the caller is blocked in ~QueryService), and the
    // destructor's "accepted batches always drain" contract must win
    // over the stream's slot, so stopping admission ignores streams.
    // (Explicit wait loop rather than the predicate overload: the
    // thread-safety analysis cannot see guarded reads inside a lambda.)
    while (true) {
      const std::size_t occupied =
          adm_->inflight_batches + (stopping_ ? 0 : adm_->open_streams);
      const bool can_admit =
          !adm_queue_.empty() &&
          (max_inflight_batches_ == 0 || occupied < max_inflight_batches_);
      if (can_admit || (stopping_ && adm_queue_.empty())) break;
      adm_->cv.Wait(lock);
    }
    if (adm_queue_.empty()) return;  // only reachable when stopping
    std::shared_ptr<BatchState> state = std::move(adm_queue_.front());
    adm_queue_.pop_front();
    ++adm_->inflight_batches;
    lock.Unlock();
    // Preparation (store lookups, cache resolution) happens outside
    // adm_mu_ so TrySubmit callers are never blocked behind it. With no
    // pool this runs the whole batch inline on the dispatcher thread.
    PrepareRun(*state);
    ExecuteRun(std::move(state));
    lock.Relock();
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  {
    MutexLock lock(adm_->mu);
    s.batches_accepted = batches_accepted_;
    s.batches_rejected = batches_rejected_;
    s.batches_completed = batches_completed_;
    s.batches_queued = adm_queue_.size();
    s.batches_running = adm_->inflight_batches;
    s.streams_opened = adm_->streams_opened;
    s.streams_closed = adm_->streams_closed;
    s.streams_open = adm_->open_streams;
  }
  s.stream_tuples = adm_->stream_tuples.load(std::memory_order_relaxed);
  s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  s.jobs_cancelled = jobs_cancelled_.load(std::memory_order_relaxed);
  s.jobs_deadline_exceeded =
      jobs_deadline_exceeded_.load(std::memory_order_relaxed);
  s.dense_products = dense_products_.load(std::memory_order_relaxed);
  s.sparse_products = sparse_products_.load(std::memory_order_relaxed);
  s.repr_crossovers = repr_crossovers_.load(std::memory_order_relaxed);
  s.subrel_hits = subrel_hits_.load(std::memory_order_relaxed);
  s.subrel_misses = subrel_misses_.load(std::memory_order_relaxed);
  s.chains_reassociated =
      chains_reassociated_.load(std::memory_order_relaxed);
  if (store_ != nullptr) s.shard_stats = store_->shard_stats();
  return s;
}

void QueryService::AccumulateEngineStats(const ppl::MatrixEngineStats& s) {
  if (s.dense_products != 0) {
    dense_products_.fetch_add(s.dense_products, std::memory_order_relaxed);
  }
  if (s.sparse_products != 0) {
    sparse_products_.fetch_add(s.sparse_products, std::memory_order_relaxed);
  }
  if (s.repr_crossovers != 0) {
    repr_crossovers_.fetch_add(s.repr_crossovers, std::memory_order_relaxed);
  }
  if (s.subrel_hits != 0) {
    subrel_hits_.fetch_add(s.subrel_hits, std::memory_order_relaxed);
  }
  if (s.subrel_misses != 0) {
    subrel_misses_.fetch_add(s.subrel_misses, std::memory_order_relaxed);
  }
}

}  // namespace xpv::engine
