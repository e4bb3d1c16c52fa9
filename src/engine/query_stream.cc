#include "engine/query_stream.h"

#include <algorithm>
#include <utility>

#include "hcl/answer.h"
#include "ppl/matrix_engine.h"

namespace xpv::engine {

namespace internal {

Result<BitVector> EvaluateFromRoot(const CompiledQuery& q,
                                   const ExecutionPlan& plan,
                                   const JobTarget& target,
                                   CancelToken cancel,
                                   ppl::MatrixEngineStats* stats) {
  ppl::MatrixEngine engine(target.cache, ppl::MultiplyMode::kBitPacked,
                           plan.repr);
  engine.set_relation_cache(target.relations);
  engine.set_cancel(cancel);
  Result<BitVector> image = engine.EvaluateFromRoot(
      plan.reassociated != nullptr ? *plan.reassociated : *q.pplbin);
  if (stats != nullptr) *stats = engine.stats();
  return image;
}

namespace {

/// Rough resident estimate of a materialized TupleSet: per tuple, one
/// red-black node + the NodeTuple vector header + its elements.
std::size_t MaterializedBytes(const xpath::TupleSet& tuples,
                              std::size_t arity) {
  constexpr std::size_t kSetNodeOverhead = 64;   // rb-node + color + padding
  constexpr std::size_t kVectorOverhead = 24;    // NodeTuple header
  return tuples.size() *
         (kSetNodeOverhead + kVectorOverhead + arity * sizeof(NodeId));
}

}  // namespace

Result<NaryBacking> NaryBacking::Build(const CompiledQuery& q,
                                       StreamBacking backing,
                                       const JobTarget& target,
                                       CancelToken cancel) {
  NaryBacking out;
  switch (backing) {
    case StreamBacking::kEnumerator: {
      fo::AcqEnumeratorOptions options;
      options.cancel = cancel;
      options.axis_cache = target.cache;
      Result<fo::AcqEnumerator> e =
          fo::AcqEnumerator::Create(*target.tree, *q.acq, std::move(options));
      if (!e.ok()) return e.status();
      out.enumerator_.emplace(std::move(e).value());
      return out;
    }
    case StreamBacking::kMaterialized: {
      hcl::AnswerOptions options;
      options.cancel = cancel;
      hcl::QueryAnswerer answerer(*target.tree, *q.hcl, q.tuple_vars, options,
                                  target.cache);
      XPV_RETURN_IF_ERROR(answerer.Prepare());
      Result<xpath::TupleSet> answers = answerer.Answer();
      if (!answers.ok()) return answers.status();
      out.answers_ =
          std::make_unique<xpath::TupleSet>(std::move(answers).value());
      out.cursor_ = out.answers_->begin();
      out.answers_bytes_ =
          MaterializedBytes(*out.answers_, q.tuple_vars.size());
      return out;
    }
    case StreamBacking::kNone:
    case StreamBacking::kNodeSet:
      break;
  }
  return Status::Internal("plan has no n-ary backing");
}

Result<std::optional<xpath::NodeTuple>> NaryBacking::Next() {
  if (enumerator_.has_value()) return enumerator_->Next();
  if (cursor_ == answers_->end()) return std::optional<xpath::NodeTuple>();
  return std::optional<xpath::NodeTuple>(*cursor_++);
}

std::size_t NaryBacking::FastSkip(std::size_t count) {
  std::size_t skipped = 0;
  if (answers_ == nullptr) return skipped;
  while (skipped < count && cursor_ != answers_->end()) {
    ++cursor_;
    ++skipped;
  }
  return skipped;
}

std::size_t NaryBacking::resident_bytes() const {
  return enumerator_.has_value() ? enumerator_->resident_bytes()
                                 : answers_bytes_;
}

void StreamState::ReleaseResources() {
  nary.reset();
  node_set.reset();
  backing_built = false;
  target = {};
  if (!slot_released && adm != nullptr) {
    {
      MutexLock lock(adm->mu);
      --adm->open_streams;
      ++adm->streams_closed;
    }
    // The dispatcher may now admit a queued batch into the freed slot.
    adm->cv.NotifyAll();
  }
  slot_released = true;
}

namespace {

/// Builds the stream's backing; returns non-OK (without marking state)
/// when evaluation fails or the token fires mid-build.
Status BuildBacking(StreamState& s) {
  const CompiledQuery& q = *s.compiled;
  switch (s.plan.backing) {
    case StreamBacking::kNone:
      return Status::Internal("stream plan has no backing");
    case StreamBacking::kEnumerator:
    case StreamBacking::kMaterialized: {
      Result<NaryBacking> nary = NaryBacking::Build(
          q, s.plan.backing, s.target,
          CancelToken(&s.cancelled, s.options.deadline));
      if (!nary.ok()) return nary.status();
      s.nary.emplace(std::move(nary).value());
      break;
    }
    case StreamBacking::kNodeSet: {
      Result<BitVector> image = EvaluateFromRoot(
          q, s.plan, s.target, CancelToken(&s.cancelled, s.options.deadline),
          /*stats=*/nullptr);
      if (!image.ok()) return image.status();
      s.node_set.emplace(std::move(image).value());
      s.node_pos = 0;
      break;
    }
  }
  s.backing_built = true;
  return Status::OK();
}

/// Advances past `offset` tuples without materializing them where the
/// backing allows it: the materialized cursor and the node-set scan
/// skip by iterator/bit advance (no NodeTuple allocations); the
/// enumerator must produce to skip, so it is left to the pull loop.
void FastSkip(StreamState& s) {
  switch (s.plan.backing) {
    case StreamBacking::kNone:
      return;
    case StreamBacking::kEnumerator:
    case StreamBacking::kMaterialized:
      s.skipped += s.nary->FastSkip(s.options.offset - s.skipped);
      return;
    case StreamBacking::kNodeSet:
      while (s.skipped < s.options.offset) {
        const std::size_t pos = s.node_set->NextSet(s.node_pos);
        if (pos >= s.node_set->size()) return;  // pull loop sees the end
        s.node_pos = pos + 1;
        ++s.skipped;
      }
      return;
  }
}

/// Pulls the next tuple out of the built backing. OK + nullopt =
/// exhausted.
Result<std::optional<xpath::NodeTuple>> PullOne(StreamState& s) {
  switch (s.plan.backing) {
    case StreamBacking::kNone:
      return Status::Internal("stream plan has no backing");
    case StreamBacking::kEnumerator:
    case StreamBacking::kMaterialized:
      return s.nary->Next();
    case StreamBacking::kNodeSet: {
      const std::size_t pos = s.node_set->NextSet(s.node_pos);
      if (pos >= s.node_set->size()) {
        return std::optional<xpath::NodeTuple>();
      }
      s.node_pos = pos + 1;
      return std::optional<xpath::NodeTuple>(
          xpath::NodeTuple{static_cast<NodeId>(pos)});
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

}  // namespace internal

using internal::StreamState;

QueryStream::QueryStream(std::unique_ptr<StreamState> state)
    : state_(std::move(state)) {}

QueryStream::QueryStream(QueryStream&&) noexcept = default;
QueryStream& QueryStream::operator=(QueryStream&&) noexcept = default;

QueryStream::~QueryStream() {
  if (state_ != nullptr) state_->ReleaseResources();
}

Result<std::vector<xpath::NodeTuple>> QueryStream::NextBatch(
    std::size_t max_tuples) {
  if (state_ == nullptr) {
    return Status::InvalidArgument("invalid (default-constructed) stream");
  }
  StreamState& s = *state_;
  if (!s.failed.ok()) return s.failed;  // sticky
  if (s.closed) {
    return Status::InvalidArgument("stream is closed");
  }
  if (max_tuples == 0) {
    return Status::InvalidArgument("NextBatch needs max_tuples >= 1");
  }
  ++s.batches;
  std::vector<xpath::NodeTuple> out;
  if (s.exhausted) return out;

  auto fail = [&](Status status) -> Result<std::vector<xpath::NodeTuple>> {
    s.failed = std::move(status);
    s.ReleaseResources();
    return s.failed;
  };

  // Phase boundary: an expired deadline / cancel is observed even before
  // any backing work starts.
  if (Status live = s.token.CheckNow(); !live.ok()) return fail(live);

  if (!s.backing_built) {
    if (Status built = internal::BuildBacking(s); !built.ok()) {
      return fail(built);
    }
  }
  if (s.skipped < s.options.offset) internal::FastSkip(s);

  while (out.size() < max_tuples) {
    if (Status live = s.token.Check(); !live.ok()) return fail(live);
    Result<std::optional<xpath::NodeTuple>> next = internal::PullOne(s);
    if (!next.ok()) return fail(next.status());
    if (!next->has_value()) {
      s.exhausted = true;
      break;
    }
    if (s.skipped < s.options.offset) {
      ++s.skipped;
      continue;
    }
    out.push_back(std::move(**next));
    ++s.produced;
    if (s.options.limit != 0 && s.produced >= s.options.limit) {
      s.exhausted = true;
      break;
    }
  }

  if (s.adm != nullptr) {
    s.adm->stream_tuples.fetch_add(out.size(), std::memory_order_relaxed);
  }
  if (s.exhausted) {
    // A drained stream stops counting against the inflight budget; the
    // handle stays valid for stats()/cursor().
    s.ReleaseResources();
  }
  return out;
}

Result<std::optional<xpath::NodeTuple>> QueryStream::Next() {
  Result<std::vector<xpath::NodeTuple>> batch = NextBatch(1);
  if (!batch.ok()) return batch.status();
  if (batch->empty()) return std::optional<xpath::NodeTuple>();
  return std::optional<xpath::NodeTuple>(std::move(batch->front()));
}

bool QueryStream::done() const {
  return state_ == nullptr || state_->exhausted || state_->closed ||
         !state_->failed.ok();
}

std::uint64_t QueryStream::cursor() const {
  if (state_ == nullptr) return 0;
  return state_->options.offset + state_->produced;
}

void QueryStream::Cancel() {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

void QueryStream::Close() {
  if (state_ == nullptr || state_->closed) return;
  state_->closed = true;
  state_->ReleaseResources();
}

StreamStats QueryStream::stats() const {
  StreamStats stats;
  if (state_ == nullptr) return stats;
  const StreamState& s = *state_;
  stats.produced = s.produced;
  stats.cursor = s.options.offset + s.produced;
  stats.batches = s.batches;
  stats.arity = s.arity;
  stats.exhausted = s.exhausted;
  stats.closed = s.closed;
  stats.status = s.failed;
  stats.plan = s.plan;
  if (s.nary.has_value()) {
    stats.backing_bytes = s.nary->resident_bytes();
  } else if (s.node_set.has_value()) {
    stats.backing_bytes =
        s.node_set->words().capacity() * sizeof(std::uint64_t);
  }
  return stats;
}

}  // namespace xpv::engine
