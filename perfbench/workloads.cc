#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "engine/snapshot.h"
#include "replay.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"

namespace perfbench {

namespace xe = xpv::engine;
using xe::BatchHandle;
using xe::DocumentId;
using xe::QueryJob;
using xe::QueryResult;
using xe::ResultShape;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------- counter deltas

/// Counters of the service and store at one instant.
struct Counters {
  xe::ServiceStats svc;
  xe::DocumentStoreStats store;
  std::size_t compile_hits = 0;
  std::size_t compile_misses = 0;
  double process_cpu_s = 0;
  double thread_cpu_s = 0;
  Clock::time_point at;
};

Counters Snap(Workload& w) {
  Counters c;
  c.svc = w.service().stats();
  c.store = w.store().stats();
  c.compile_hits = w.service().cache().hits();
  c.compile_misses = w.service().cache().misses();
  c.process_cpu_s = ProcessCpuSeconds();
  c.thread_cpu_s = ThreadCpuSeconds();
  c.at = Clock::now();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Layer metrics that the public counters give directly, over the window
/// between `a` and `b`. `jobs` and `writes` are the window's attempts.
void AddCounterLayers(const Counters& a, const Counters& b,
                      std::size_t workers, std::uint64_t jobs,
                      std::uint64_t writes,
                      const std::vector<DocumentId>& live, Workload& w,
                      RunRecord& rec) {
  auto d = [](auto x, auto y) { return static_cast<double>(y - x); };
  rec.layer["compile.hit_rate"] =
      Ratio(d(a.compile_hits, b.compile_hits),
            d(a.compile_hits, b.compile_hits) +
                d(a.compile_misses, b.compile_misses));
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  for (DocumentId id : live) {
    if (auto memo = w.store().PlanMemoFor(id)) {
      memo_hits += memo->hits();
      memo_misses += memo->misses();
    }
  }
  rec.layer["plan.memo_hit_rate"] =
      Ratio(static_cast<double>(memo_hits),
            static_cast<double>(memo_hits + memo_misses));
  rec.layer["ppl.dense_products"] =
      d(a.svc.dense_products, b.svc.dense_products);
  rec.layer["ppl.sparse_products"] =
      d(a.svc.sparse_products, b.svc.sparse_products);
  rec.layer["ppl.repr_crossovers"] =
      d(a.svc.repr_crossovers, b.svc.repr_crossovers);
  const double hits = d(a.svc.subrel_hits, b.svc.subrel_hits);
  const double misses = d(a.svc.subrel_misses, b.svc.subrel_misses);
  rec.layer["ppl.relcache_hit_rate"] = Ratio(hits, hits + misses);
  rec.layer["ppl.relcache_mb"] =
      static_cast<double>(b.store.relation_cache_bytes) / kMiB;
  const double builds = d(a.store.cache_builds, b.store.cache_builds);
  const double axis_hits = d(a.store.cache_hits, b.store.cache_hits);
  rec.layer["tree.axis_hit_rate"] = Ratio(axis_hits, axis_hits + builds);
  const double wall = std::chrono::duration<double>(b.at - a.at).count();
  const double worker_cpu = (b.process_cpu_s - a.process_cpu_s) -
                            (b.thread_cpu_s - a.thread_cpu_s);
  rec.layer["service.worker_util"] =
      Ratio(worker_cpu, static_cast<double>(workers) * wall);
  const double rejected = d(a.svc.batches_rejected, b.svc.batches_rejected);
  rec.layer["service.rejected_share"] =
      Ratio(rejected,
            rejected + d(a.svc.batches_accepted, b.svc.batches_accepted));
  rec.layer["store.reloads_per_fetch"] =
      Ratio(d(a.store.doc_reloads, b.store.doc_reloads),
            static_cast<double>(jobs));
  rec.layer["store.spills_per_write"] =
      Ratio(d(a.store.doc_spills, b.store.doc_spills),
            static_cast<double>(writes));
  rec.layer["store.resident_mb"] =
      static_cast<double>(b.store.resident_doc_bytes +
                          b.store.hot_cache_bytes +
                          b.store.relation_cache_bytes) /
      kMiB;
}

// ------------------------------------------------------ result checking

/// A cheap fingerprint of one answer: status, sizes, the from-root set,
/// scalar payloads, and the first and last tuple. Every job in a window
/// is fingerprinted; a (document, query, shape) seen twice must answer
/// the same both times.
std::uint64_t Fingerprint(const QueryResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(r.status.code()));
  mix(r.relation.size());
  for (std::uint64_t word : r.from_root.words()) mix(word);
  mix(r.tuples.size());
  if (!r.tuples.empty()) {
    for (xpv::NodeId v : *r.tuples.begin()) mix(v);
    for (xpv::NodeId v : *r.tuples.rbegin()) mix(v);
  }
  mix(r.boolean);
  mix(r.count);
  if (r.relation_sparse != nullptr) mix(r.relation_sparse->num_runs());
  return h;
}

class AnswerBook {
 public:
  /// Records or checks one answer; returns false on a mismatch.
  bool Check(const QueryJob& job, const QueryResult& r) {
    std::string key = std::to_string(job.document);
    key += '\x1f';
    key += job.query;
    key += '\x1f';
    key += static_cast<char>('0' + static_cast<int>(job.shape));
    const std::uint64_t fp = Fingerprint(r);
    auto [it, inserted] = seen_.emplace(std::move(key), fp);
    return inserted || it->second == fp;
  }
  void Clear() { seen_.clear(); }

 private:
  std::unordered_map<std::string, std::uint64_t> seen_;
};

/// Window-side bookkeeping shared by the three workloads.
struct WindowState {
  WindowState(RunRecord& r, Tracer& t, AnswerBook& b)
      : rec(r), tracer(t), book(b) {}

  RunRecord& rec;
  Tracer& tracer;
  AnswerBook& book;
  std::uint64_t jobs = 0;
  std::uint64_t writes = 0;
  std::uint64_t request = 0;
  std::size_t max_queued = 0;
  Samples gen_lag_ms;

  /// Accounts one finished batch; returns its OK job count.
  std::uint64_t Finish(const std::vector<QueryJob>& jobs_in,
                       const std::vector<QueryResult>& results) {
    std::uint64_t ok = 0;
    jobs += jobs_in.size();
    rec.attempted += jobs_in.size();
    if (results.size() != jobs_in.size()) {
      rec.failed += jobs_in.size();
      rec.Fail("batch returned " + std::to_string(results.size()) +
               " results for " + std::to_string(jobs_in.size()) + " jobs");
      return 0;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].status.ok()) {
        ++rec.failed;
        continue;
      }
      ++ok;
      if (!book.Check(jobs_in[i], results[i])) {
        rec.Fail("answer changed between two runs of " + jobs_in[i].query);
      }
    }
    rec.ok_jobs += ok;
    return ok;
  }

  /// A batch refused at admission: every job counts as failed.
  void Rejected(std::size_t n) {
    jobs += n;
    rec.attempted += n;
    rec.failed += n;
  }
};

/// OpenStream + first NextBatch(100), timed as one operation.
void StreamFirstPage(xe::QueryService& service, const QueryJob& job,
                     WindowState& ws) {
  ++ws.rec.attempted;
  const Clock::time_point start = Clock::now();
  xpv::Result<xe::QueryStream> stream = [&] {
    ScopedSpan span(ws.tracer, "engine.stream.open", ++ws.request);
    xe::StreamOptions options;
    options.limit = 100;
    return service.OpenStream(job.document, job.query, options);
  }();
  if (!stream.ok()) {
    ++ws.rec.failed;
    return;
  }
  auto page = [&] {
    ScopedSpan span(ws.tracer, "engine.stream.next", ws.request);
    return stream->NextBatch(100);
  }();
  ws.rec.stream_ms.Add(MillisBetween(start, Clock::now()));
  if (!page.ok()) ++ws.rec.failed;
}

/// One write: InsertTerm of `text`, then Remove of the document it
/// replaces (if any), timed together. Timing the pair keeps the write
/// latency one distribution instead of a mixture of two whose median falls
/// between them. Returns the new id; nullopt (a failed write) on error.
std::optional<DocumentId> TimedReplace(xe::DocumentStore& store,
                                       const std::string& text,
                                       std::optional<DocumentId> replaced,
                                       WindowState& ws) {
  ++ws.rec.attempted;
  ++ws.writes;
  const std::uint64_t request = ++ws.request;
  const Clock::time_point start = Clock::now();
  xpv::Result<DocumentId> id = [&] {
    ScopedSpan span(ws.tracer, "engine.store.insert", request);
    return store.InsertTerm(text);
  }();
  bool removed = true;
  if (id.ok() && replaced.has_value()) {
    ScopedSpan span(ws.tracer, "engine.store.remove", request);
    removed = store.Remove(*replaced);
  }
  ws.rec.write_ms.Add(MillisBetween(start, Clock::now()));
  if (!id.ok() || !removed) ++ws.rec.failed;
  if (!id.ok()) return std::nullopt;
  return *id;
}

/// Submit + Wait of one batch in a closed loop; returns the latency.
double ClosedBatch(xe::QueryService& service, const std::vector<QueryJob>& jobs,
                   WindowState& ws, std::uint64_t* ok_jobs) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t request = ++ws.request;
  xpv::Result<BatchHandle> handle = [&] {
    ScopedSpan span(ws.tracer, "engine.service.submit", request);
    return service.TrySubmit(jobs);
  }();
  if (!handle.ok()) {
    ws.Rejected(jobs.size());
    *ok_jobs = 0;
    return MillisBetween(start, Clock::now());
  }
  std::vector<QueryResult> results = [&] {
    ScopedSpan span(ws.tracer, "engine.service.wait", request);
    return handle->Wait();
  }();
  const double ms = MillisBetween(start, Clock::now());
  *ok_jobs = ws.Finish(jobs, results);
  return ms;
}

void AddWindowLayers(const WindowState& ws, RunRecord& rec) {
  rec.layer["service.queue_depth_max"] = static_cast<double>(ws.max_queued);
  rec.layer["bench.gen_lag_p99_ms"] = ws.gen_lag_ms.Quantile(0.99);
}

/// Parse time per 1000 nodes and full axis build time, on given texts.
void MeasureTreeLayer(const std::vector<std::string>& texts, RunRecord& rec) {
  double parse_ms = 0;
  double knodes = 0;
  double axis_ms = 0;
  std::size_t axis_docs = 0;
  for (const std::string& text : texts) {
    const Clock::time_point start = Clock::now();
    xpv::Result<xpv::Tree> tree = xpv::Tree::ParseTerm(text);
    parse_ms += MillisBetween(start, Clock::now());
    if (!tree.ok()) {
      rec.Fail("generated document does not parse");
      return;
    }
    knodes += static_cast<double>(tree->size()) / 1000.0;
    xpv::AxisCache axes(*tree);
    const Clock::time_point build = Clock::now();
    for (xpv::Axis axis : xpv::kAllAxes) axes.Matrix(axis);
    axis_ms += MillisBetween(build, Clock::now());
    ++axis_docs;
  }
  rec.layer["tree.parse_ms_per_knode"] = Ratio(parse_ms, knodes);
  rec.layer["tree.axis_build_ms"] =
      Ratio(axis_ms, static_cast<double>(axis_docs));
}

void AddKernelLayers(const xpv::Tree& dense_tree, const xpv::Tree& sparse_tree,
                     RunRecord& rec) {
  const KernelReport k = ReplayKernels(dense_tree, sparse_tree);
  rec.layer["common.dense_mult_ns_per_word"] = k.dense_mult_ns_per_word;
  rec.layer["common.spgemm_ns_per_run"] = k.spgemm_ns_per_run;
  rec.layer["common.crc32c_gb_per_s"] = k.crc32c_gb_per_s;
}

QueryJob Job(DocumentId id, const std::string& q, ResultShape s) {
  QueryJob job;
  job.document = id;
  job.query = q;
  job.shape = s;
  return job;
}

/// Parses and stores one generated document (kNoDocument on a parse
/// error, which the first check job on it then reports).
DocumentId Insert(xe::DocumentStore& store, const std::string& text) {
  xpv::Result<DocumentId> id = store.InsertTerm(text);
  return id.ok() ? *id : xe::kNoDocument;
}

/// Index drawn from a Zipf(s) distribution over [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Draw(xpv::Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A bibliography document whose node count is as close to `nodes` as
/// a few seeded tries get (book contents vary, so sizes do too).
xpv::Tree BibliographyOfSize(xpv::Rng& rng, std::size_t nodes) {
  xpv::Tree best = xpv::BibliographyTree(rng, std::max<std::size_t>(1, nodes / 5));
  for (int attempt = 0; attempt < 64 && best.size() != nodes; ++attempt) {
    xpv::Tree t = xpv::BibliographyTree(rng, std::max<std::size_t>(1, nodes / 5));
    const auto gap = [&](const xpv::Tree& x) {
      return x.size() > nodes ? x.size() - nodes : nodes - x.size();
    };
    if (gap(t) < gap(best)) best = std::move(t);
  }
  return best;
}

template <typename T>
void Shuffle(std::vector<T>& v, xpv::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

// =========================================================== serve_warm

const std::vector<std::string> kBibTemplates = {
    // GKP-positive.
    "descendant::book/child::author",
    "descendant::book[child::year]/child::title",
    "descendant::author/following_sibling::title",
    "child::book/child::*",
    "descendant::*[child::publisher]",
    "descendant::title/parent::*/child::author",
    // Matrix-general (complement).
    "descendant::* except descendant::author",
    "descendant::book/(child::* except child::author)",
    "descendant::book[not(child::year)]",
};
const std::vector<std::string> kRandomTemplates = {
    "descendant::a/child::b",
    "descendant::a[child::b]/following_sibling::c",
    "descendant::c/parent::*/child::d",
    "descendant::a/ancestor::b",
    "descendant::b/preceding_sibling::a",
    "descendant::a/descendant::b/child::c",
    "descendant::* except descendant::a",
    "child::* except child::b[child::a]",
    "descendant::a except descendant::*[child::b]",
};

/// Serving shapes: mostly from-root, boolean and count; 1/6 full relation.
ResultShape DrawWarmShape(xpv::Rng& rng) {
  const std::uint64_t r = rng.Below(12);
  if (r < 2) return ResultShape::kFullRelation;
  if (r < 6) return ResultShape::kFromRootSet;
  if (r < 9) return ResultShape::kBoolean;
  return ResultShape::kCount;
}

class ServeWarm final : public Workload {
 public:
  // Offered rates of the open-loop ladder (jobs/s) and the batch latency
  // limit of the SLO. The top rung is the nominal load whose latencies
  // are the workload's batch_p50_ms / batch_p99_ms.
  static constexpr double kLadder[] = {8000, 16000, 32000};
  static constexpr std::size_t kNominalRung = 2;
  // Share of the window each rung runs; the nominal rung runs longest so
  // its p99 rests on thousands of batches.
  static constexpr double kRungShare[] = {0.15, 0.15, 0.4};
  static constexpr double kSloMs = 5.0;
  static constexpr std::size_t kBatchJobs = 16;
  static constexpr std::size_t kSaturationDepth = 4;
  static constexpr std::chrono::microseconds kPoll{20};

  ServeWarm(const RunOptions& o, std::size_t w) : Workload(o, w) {}

  void Prepare() override {
    xpv::Rng rng(options_.seed * 7919 + 1);
    for (std::size_t i = 0; i < kDocs; ++i) {
      const bool bib = i % 2 == 0;
      // Stratified sizes over 300-2000 nodes; the seed picks content.
      const std::size_t nodes = 300 + (1700 * i) / (kDocs - 1);
      xpv::Tree t = bib ? xpv::BibliographyTree(rng, nodes / 5)
                        : xpv::RandomTree(rng, {.num_nodes = nodes,
                                                .alphabet_size = 4,
                                                .max_children = 6});
      texts_.push_back(t.ToTerm());
      is_bib_.push_back(bib);
    }
    for (std::size_t i = 0; i < kCheckDocs; ++i) {
      const bool bib = i % 2 == 0;
      xpv::Tree t = bib ? xpv::BibliographyTree(rng, 40)
                        : xpv::RandomTree(rng, {.num_nodes = 220,
                                                .alphabet_size = 4,
                                                .max_children = 6});
      check_texts_.push_back(t.ToTerm());
    }
    for (std::size_t i = 0; i < 8; ++i) {
      write_texts_.push_back(xpv::BibliographyTree(rng, 60).ToTerm());
    }
    // Zipf-repeated templates. The popularity order is the listed order,
    // fixed across seeds, so every seed offers the same cost profile; the
    // seed picks documents, draws and document content.
    const Zipf zipf(kBibTemplates.size(), 1.1);
    auto draw = [&](ResultShape shape) {
      const std::size_t doc = rng.Below(kDocs);
      const auto& family = is_bib_[doc] ? kBibTemplates : kRandomTemplates;
      return Draw{doc, family[zipf.Draw(rng)], shape};
    };
    // Pool of batches by document index; ids are bound after Setup.
    for (std::size_t b = 0; b < kPoolBatches; ++b) {
      std::vector<Draw> batch;
      for (std::size_t j = 0; j < kBatchJobs; ++j) {
        batch.push_back(draw(DrawWarmShape(rng)));
      }
      draws_.push_back(std::move(batch));
    }
    for (std::size_t i = 0; i < 512; ++i) {
      stream_draws_.push_back(draw(ResultShape::kTupleStream));
    }
  }

  void Setup() override {
    service_.reset();
    xe::DocumentStoreOptions opts;
    opts.max_hot_caches = 64;  // every document stays hot
    store_ = std::make_unique<xe::DocumentStore>(opts);
    ids_.clear();
    check_ids_.clear();
    for (const std::string& text : texts_) ids_.push_back(Insert(*store_, text));
    for (const std::string& text : check_texts_) {
      check_ids_.push_back(Insert(*store_, text));
    }
    StartService();
    // Warm every (document, template, shape) the traffic can draw.
    std::vector<QueryJob> warm;
    for (std::size_t d = 0; d < kDocs; ++d) {
      for (const std::string& q : is_bib_[d] ? kBibTemplates : kRandomTemplates) {
        for (ResultShape s : kShapes) warm.push_back(Job(ids_[d], q, s));
      }
    }
    std::vector<QueryResult> results = service_->EvaluateBatch(warm);
    book_.Clear();
    for (std::size_t i = 0; i < warm.size(); ++i) {
      if (!results[i].status.ok()) {
        warm_error_ = "warm-up job failed: " + warm[i].query + ": " +
                      results[i].status.ToString();
      }
      book_.Check(warm[i], results[i]);
    }
    batches_.clear();
    for (const auto& draw : draws_) {
      std::vector<QueryJob> jobs;
      for (const Draw& d : draw) jobs.push_back(Job(ids_[d.doc], d.query, d.shape));
      batches_.push_back(std::move(jobs));
    }
  }

  void RunWindow(double seconds, Tracer& tracer, RunRecord& rec) override {
    if (!warm_error_.empty()) rec.Fail(warm_error_);
    WindowState ws(rec, tracer, book_);
    const Counters before = Snap(*this);

    // Phase 1: closed-loop saturation -> jobs_per_s, the median rate over
    // eight slices (a stalled slice does not move it).
    {
      std::deque<std::pair<BatchHandle, const std::vector<QueryJob>*>> out;
      std::uint64_t ok = 0;
      const Clock::time_point start = Clock::now();
      const double slice_s = 0.1 * seconds / 8;
      Samples slice_rates;  // jobs/s per slice
      std::uint64_t slice_ok = 0;
      Clock::time_point slice_start = start;
      while (SecondsSince(start) < 0.1 * seconds || !out.empty()) {
        if (SecondsSince(start) < 0.1 * seconds &&
            out.size() < kSaturationDepth) {
          const std::vector<QueryJob>& jobs = NextBatch();
          ScopedSpan span(tracer, "engine.service.submit", ++ws.request);
          auto handle = service_->TrySubmit(jobs);
          if (handle.ok()) {
            out.emplace_back(std::move(handle).value(), &jobs);
          } else {
            ws.Rejected(jobs.size());
          }
          continue;
        }
        ScopedSpan span(tracer, "engine.service.wait", ws.request);
        std::vector<QueryResult> results = out.front().first.Wait();
        const std::uint64_t done = ws.Finish(*out.front().second, results);
        ok += done;
        slice_ok += done;
        out.pop_front();
        if (SecondsSince(slice_start) >= slice_s) {
          slice_rates.Add(static_cast<double>(slice_ok) /
                          SecondsSince(slice_start));
          slice_ok = 0;
          slice_start = Clock::now();
        }
      }
      rec.jobs_per_s = slice_rates.size() > 0
                           ? slice_rates.Quantile(0.5)
                           : static_cast<double>(ok) / SecondsSince(start);
    }

    // Phase 2: the open-loop ladder -> batch latency, and
    // slo_jobs_per_s: the best rung's rate of jobs in batches that met the
    // latency limit. (A pass/fail "highest rung whose p99 meets the limit"
    // flips between rungs from run to run on a shared host.)
    double slo = 0;
    for (std::size_t rung = 0; rung < std::size(kLadder); ++rung) {
      Samples lat;
      std::uint64_t ok = 0;
      std::uint64_t ok_within = 0;
      std::size_t backlog = 0;
      const double elapsed = RunRung(kLadder[rung], kRungShare[rung] * seconds,
                                     ws, lat, ok, ok_within, backlog);
      const double within = static_cast<double>(ok_within) / elapsed;
      std::printf("rung %.0f jobs/s: goodput %.0f, within %.0f ms %.0f; batch "
                  "p50 %.3f ms, p99 %.3f ms, max %.3f ms over %zu batches; "
                  "backlog %zu\n",
                  kLadder[rung], static_cast<double>(ok) / elapsed, kSloMs,
                  within, lat.Quantile(0.5), lat.Quantile(0.99),
                  lat.Quantile(1.0), lat.size(), backlog);
      slo = std::max(slo, within);
      if (rung == kNominalRung) rec.batch_ms.Append(lat);
    }
    rec.slo_jobs_per_s = slo;

    // Phase 3: warm first-page streams (node-set backing).
    {
      const Clock::time_point start = Clock::now();
      std::size_t i = 0;
      while (SecondsSince(start) < 0.1 * seconds) {
        const Draw& d = stream_draws_[i++ % stream_draws_.size()];
        StreamFirstPage(*service_, Job(ids_[d.doc], d.query, d.shape), ws);
      }
    }
    // Phase 4: small writes beside the warm corpus: a scratch document
    // replaced again and again.
    {
      const Clock::time_point start = Clock::now();
      std::optional<DocumentId> scratch;
      std::size_t i = 0;
      while (SecondsSince(start) < 0.1 * seconds) {
        scratch = TimedReplace(*store_, write_texts_[i++ % write_texts_.size()],
                               scratch, ws);
      }
      if (scratch.has_value()) store_->Remove(*scratch);
    }
    const Counters after = Snap(*this);
    rec.window_s = std::chrono::duration<double>(after.at - before.at).count();
    AddCounterLayers(before, after, workers_, ws.jobs, ws.writes, ids_, *this,
                     rec);
    AddWindowLayers(ws, rec);
  }

  std::vector<QueryJob> CheckJobs() override {
    std::vector<QueryJob> jobs;
    for (std::size_t c = 0; c < check_ids_.size(); ++c) {
      for (const std::string& q : c % 2 == 0 ? kBibTemplates : kRandomTemplates) {
        for (ResultShape s : kShapes) jobs.push_back(Job(check_ids_[c], q, s));
      }
    }
    // Plus a seeded slice of the traffic itself.
    for (std::size_t b = 0; b < 4; ++b) {
      for (const QueryJob& j : batches_[b]) jobs.push_back(j);
    }
    return jobs;
  }

  std::size_t StableChecks() override { return CheckJobs().size(); }

  std::vector<QueryJob> ProbeJobs() override {
    std::vector<QueryJob> jobs;
    for (std::size_t b = 0; b < 2; ++b) {
      for (const QueryJob& j : batches_[b]) jobs.push_back(j);
    }
    return jobs;
  }

  std::vector<QueryJob> StreamJobs() override {
    std::vector<QueryJob> jobs;
    for (std::size_t i = 0; i < 16; ++i) {
      const Draw& d = stream_draws_[i];
      jobs.push_back(Job(ids_[d.doc], d.query, d.shape));
    }
    return jobs;
  }

  void TraceExtras(RunRecord& rec) override {
    MeasureTreeLayer(texts_, rec);
    auto dense = xpv::Tree::ParseTerm(texts_.back());
    if (dense.ok()) AddKernelLayers(*dense, *dense, rec);
    rec.layer["snapshot.open_s"] = 0;
    rec.layer["snapshot.segment_write_ms"] = 0;
  }

 private:
  static constexpr std::size_t kDocs = 48;
  static constexpr std::size_t kCheckDocs = 4;
  static constexpr std::size_t kPoolBatches = 4096;
  static constexpr ResultShape kShapes[] = {
      ResultShape::kFullRelation, ResultShape::kFromRootSet,
      ResultShape::kBoolean, ResultShape::kCount};

  struct Draw {
    std::size_t doc;
    std::string query;
    ResultShape shape;
  };

  const std::vector<QueryJob>& NextBatch() {
    return batches_[next_batch_++ % batches_.size()];
  }

  /// One open-loop rung: a 16-job batch is due every 16/rate seconds;
  /// each is timed from its due time to the moment its results are
  /// collected. The generator thread also collects: it polls every
  /// kPoll between due times, so completions are seen within about that.
  double RunRung(double rate, double duration, WindowState& ws, Samples& lat,
                 std::uint64_t& ok, std::uint64_t& ok_within,
                 std::size_t& backlog) {
    struct Pending {
      BatchHandle handle;
      Clock::time_point due;
      const std::vector<QueryJob>* jobs;
    };
    std::deque<Pending> out;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(kBatchJobs) / rate));
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(duration));
    auto collect = [&](bool block) {
      while (!out.empty() && (block || out.front().handle.done())) {
        std::vector<QueryResult> results = [&] {
          ScopedSpan span(ws.tracer, "engine.service.wait", ws.request);
          return out.front().handle.Wait();
        }();
        const double ms = MillisBetween(out.front().due, Clock::now());
        lat.Add(ms);
        const std::uint64_t done = ws.Finish(*out.front().jobs, results);
        ok += done;
        if (ms <= kSloMs) ok_within += done;
        out.pop_front();
      }
    };
    std::size_t submitted = 0;
    for (Clock::time_point due = start; due < end; due += period) {
      // Poll for finished batches until the next one is due, sleeping
      // between polls: a spinning generator takes a core from the
      // service's workers and dispatcher, and its p99 shows it.
      while (Clock::now() < due) {
        collect(false);
        std::this_thread::sleep_until(std::min(due, Clock::now() + kPoll));
      }
      const std::vector<QueryJob>& jobs = NextBatch();
      ws.gen_lag_ms.Add(MillisBetween(due, Clock::now()));
      ScopedSpan span(ws.tracer, "engine.service.submit", ++ws.request);
      auto handle = service_->TrySubmit(jobs);
      if (handle.ok()) {
        out.push_back({std::move(handle).value(), due, &jobs});
      } else {
        ws.Rejected(jobs.size());
      }
      if (++submitted % 32 == 0) {
        ws.max_queued =
            std::max(ws.max_queued, service_->stats().batches_queued);
      }
    }
    backlog = out.size();
    collect(true);
    return SecondsSince(start);
  }

  std::vector<std::string> texts_;
  std::vector<bool> is_bib_;
  std::vector<std::string> check_texts_;
  std::vector<std::string> write_texts_;
  std::vector<std::vector<Draw>> draws_;
  std::vector<Draw> stream_draws_;
  std::vector<DocumentId> ids_;
  std::vector<DocumentId> check_ids_;
  std::vector<std::vector<QueryJob>> batches_;
  std::size_t next_batch_ = 0;
  AnswerBook book_;
  std::string warm_error_;
};

// ========================================================== nary_answer

const std::vector<std::string> kNaryOneVar = {
    "descendant::book/$x",
    "$x/child::title",
    "descendant::book[child::author]/$x",
    "$x/child::author",
};
const std::vector<std::string> kNaryTwoVar = {
    "descendant::book/$x/child::author/$y",
    "descendant::book[child::year]/$x/child::title/$y",
    "descendant::book/$x/child::*/$y",
    "$x/child::author/$y",
};

class NaryAnswer final : public Workload {
 public:
  static constexpr double kSloMs = 800.0;
  static constexpr std::size_t kBatchJobs = 16;
  static constexpr std::size_t kWrites = 20;
  // Two-variable jobs only on documents up to this size: their cost grows
  // faster than cubically (about 0.4 s per job at 250 nodes).
  static constexpr std::size_t kTwoVarMaxNodes = 130;

  NaryAnswer(const RunOptions& o, std::size_t w) : Workload(o, w) {}

  void Prepare() override {
    xpv::Rng rng(options_.seed * 6007 + 2);
    for (std::size_t i = 0; i < kDocs; ++i) {
      // Stratified sizes over 50-250 nodes; the seed picks content.
      const xpv::Tree t = BibliographyOfSize(rng, 50 + (200 * i) / (kDocs - 1));
      sizes_.push_back(t.size());
      texts_.push_back(t.ToTerm());
    }
    for (std::size_t i = 0; i < 2; ++i) {
      check_texts_.push_back(xpv::BibliographyTree(rng, 9).ToTerm());
    }
    for (std::size_t i = 0; i < 8; ++i) {
      write_texts_.push_back(xpv::BibliographyTree(rng, 10 + 5 * i).ToTerm());
    }
    // Every (template, document) pair in a seeded order, cycled: each run
    // draws the pairs in equal proportions, so seeds differ in content
    // and order but not in cost profile.
    std::vector<Draw> one;
    std::vector<Draw> two;
    for (std::size_t d = 0; d < kDocs; ++d) {
      for (const std::string& q : kNaryOneVar) one.push_back({d, q, {}});
      if (sizes_[d] > kTwoVarMaxNodes) continue;
      for (const std::string& q : kNaryTwoVar) two.push_back({d, q, {}});
    }
    Shuffle(one, rng);
    Shuffle(two, rng);
    for (std::size_t b = 0; b < kPoolBatches; ++b) {
      std::vector<Draw> batch;
      for (std::size_t j = 0; j < kBatchJobs; ++j) {
        const auto& list = j % 2 == 0 ? one : two;
        Draw d = list[(b * kBatchJobs / 2 + j / 2) % list.size()];
        d.shape = (b + j / 2) % 2 == 0 ? ResultShape::kFullRelation
                                       : ResultShape::kCount;
        batch.push_back(std::move(d));
      }
      draws_.push_back(std::move(batch));
    }
  }

  void Setup() override {
    service_.reset();
    store_ = std::make_unique<xe::DocumentStore>();
    ids_.clear();
    check_ids_.clear();
    for (const std::string& text : texts_) ids_.push_back(Insert(*store_, text));
    for (const std::string& text : check_texts_) check_ids_.push_back(Insert(*store_, text));
    StartService();
    // Warm: compile every template and build every document's axes.
    std::vector<QueryJob> warm;
    for (std::size_t d = 0; d < kDocs; ++d) {
      warm.push_back(Job(ids_[d], kNaryOneVar[d % kNaryOneVar.size()],
                         ResultShape::kCount));
    }
    for (const std::string& q : kNaryTwoVar) {
      warm.push_back(Job(ids_[0], q, ResultShape::kCount));
    }
    for (const QueryResult& r : service_->EvaluateBatch(warm)) {
      if (!r.status.ok()) warm_error_ = "warm-up failed: " + r.status.ToString();
    }
    batches_.clear();
    for (const auto& draw : draws_) {
      std::vector<QueryJob> jobs;
      for (const Draw& d : draw) jobs.push_back(Job(ids_[d.doc], d.query, d.shape));
      batches_.push_back(std::move(jobs));
    }
    book_.Clear();
  }

  void RunWindow(double seconds, Tracer& tracer, RunRecord& rec) override {
    if (!warm_error_.empty()) rec.Fail(warm_error_);
    WindowState ws(rec, tracer, book_);
    const Counters before = Snap(*this);
    std::uint64_t slo_ok = 0;
    std::optional<DocumentId> scratch;
    std::size_t i = 0;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds) {
      const std::vector<QueryJob>& jobs = batches_[next_batch_++ % batches_.size()];
      std::uint64_t ok = 0;
      const double ms = ClosedBatch(*service_, jobs, ws, &ok);
      rec.batch_ms.Add(ms);
      if (ms <= kSloMs) slo_ok += ok;
      // First-page streams of the batch's queries.
      for (const QueryJob& job : jobs) {
        QueryJob stream_job = job;
        stream_job.shape = ResultShape::kTupleStream;
        StreamFirstPage(*service_, stream_job, ws);
      }
      // Small writes: replace the scratch document kWrites times, so the
      // write p99 rests on thousands of samples.
      for (std::size_t k = 0; k < kWrites; ++k) {
        scratch = TimedReplace(*store_,
                               write_texts_[(i + k) % write_texts_.size()],
                               scratch, ws);
      }
      ++i;
    }
    const double elapsed = SecondsSince(start);
    if (scratch.has_value()) store_->Remove(*scratch);
    rec.jobs_per_s = static_cast<double>(rec.ok_jobs) / elapsed;
    rec.slo_jobs_per_s = static_cast<double>(slo_ok) / elapsed;
    const Counters after = Snap(*this);
    rec.window_s = elapsed;
    AddCounterLayers(before, after, workers_, ws.jobs, ws.writes, ids_, *this,
                     rec);
    AddWindowLayers(ws, rec);
  }

  std::vector<QueryJob> CheckJobs() override {
    std::vector<QueryJob> jobs;
    for (DocumentId id : check_ids_) {
      for (const auto* family : {&kNaryOneVar, &kNaryTwoVar}) {
        for (const std::string& q : *family) {
          for (ResultShape s : {ResultShape::kFullRelation, ResultShape::kCount,
                                ResultShape::kBoolean}) {
            jobs.push_back(Job(id, q, s));
          }
        }
      }
    }
    for (const QueryJob& j : batches_[0]) jobs.push_back(j);
    return jobs;
  }

  std::size_t StableChecks() override { return CheckJobs().size(); }

  std::vector<QueryJob> ProbeJobs() override { return {}; }

  std::vector<QueryJob> StreamJobs() override {
    std::vector<QueryJob> jobs;
    for (std::size_t b = 0; b < 2; ++b) {
      for (QueryJob j : batches_[b]) {
        j.shape = ResultShape::kTupleStream;
        jobs.push_back(std::move(j));
      }
    }
    return jobs;
  }

  void TraceExtras(RunRecord& rec) override {
    MeasureTreeLayer(texts_, rec);
    auto tree = xpv::Tree::ParseTerm(texts_.back());
    if (tree.ok()) AddKernelLayers(*tree, *tree, rec);
    rec.layer["snapshot.open_s"] = 0;
    rec.layer["snapshot.segment_write_ms"] = 0;
  }

 private:
  static constexpr std::size_t kDocs = 32;
  static constexpr std::size_t kPoolBatches = 512;

  struct Draw {
    std::size_t doc;
    std::string query;
    ResultShape shape;
  };

  std::vector<std::string> texts_;
  std::vector<std::size_t> sizes_;
  std::vector<std::string> check_texts_;
  std::vector<std::string> write_texts_;
  std::vector<std::vector<Draw>> draws_;
  std::vector<DocumentId> ids_;
  std::vector<DocumentId> check_ids_;
  std::vector<std::vector<QueryJob>> batches_;
  std::size_t next_batch_ = 0;
  AnswerBook book_;
  std::string warm_error_;
};

// =========================================================== cold_churn

/// Generated composition queries over the labels a..f. Full-relation
/// queries are a label-selective descendant step and two child / parent /
/// sibling steps, so their answers stay sparse.
class QueryGen {
 public:
  explicit QueryGen(std::uint64_t seed) : rng_(seed) {}

  std::string Label(bool allow_wildcard) {
    const std::uint64_t r = rng_.Below(allow_wildcard ? 7 : 6);
    return r == 6 ? "*" : std::string(1, static_cast<char>('a' + r));
  }

  std::string FullRelation() {
    static const char* kAxes[] = {"child", "parent", "following_sibling",
                                  "preceding_sibling"};
    std::string q = "descendant::" + Label(false);
    for (int s = 0; s < 2; ++s) {
      q += "/";
      q += kAxes[rng_.Below(4)];
      q += "::" + Label(false);
    }
    return q;
  }

  std::string FromRoot() {
    static const char* kAxes[] = {"child", "descendant", "parent", "ancestor",
                                  "following_sibling", "preceding_sibling"};
    if (rng_.Below(6) == 0) {
      // Matrix-general: a complement of a plain step.
      return "descendant::" + Label(true) + " except descendant::" +
             Label(false) + "[child::" + Label(false) + "]";
    }
    std::string q = "descendant::" + Label(false);
    const std::uint64_t steps = 1 + rng_.Below(3);
    for (std::uint64_t s = 0; s < steps; ++s) {
      q += "/";
      q += kAxes[rng_.Below(6)];
      q += "::" + Label(true);
      if (rng_.Below(4) == 0) q += "[child::" + Label(false) + "]";
    }
    return q;
  }

  ResultShape MonadicShape() {
    const std::uint64_t r = rng_.Below(4);
    return r < 2 ? ResultShape::kFromRootSet
                 : (r == 2 ? ResultShape::kCount : ResultShape::kBoolean);
  }

  std::uint64_t Below(std::uint64_t n) { return rng_.Below(n); }

 private:
  xpv::Rng rng_;
};

class ColdChurn final : public Workload {
 public:
  static constexpr std::size_t kSizes[] = {4096, 8192, 16384, 32768, 65536};
  static constexpr std::size_t kWindow = 6;
  static constexpr std::size_t kFullRelationMaxNodes = 16384;
  static constexpr double kSloMs = 250.0;

  ColdChurn(const RunOptions& o, std::size_t w) : Workload(o, w) {}

  ~ColdChurn() override {
    service_.reset();
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void Prepare() override {
    root_ = options_.work_dir + "/cold_churn";
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    std::filesystem::create_directories(root_ + "/snapshot", ec);
    xpv::Rng rng(options_.seed * 104729 + 3);
    // Five documents per size; inserted round-robin, so each insert is a
    // fresh document whatever its text.
    for (std::size_t i = 0; i < 5 * std::size(kSizes); ++i) {
      const std::size_t nodes = kSizes[i % std::size(kSizes)];
      pool_.push_back(xpv::RandomTree(rng, {.num_nodes = nodes,
                                            .alphabet_size = 6,
                                            .max_children = 8})
                          .ToTerm());
      pool_nodes_.push_back(nodes);
    }
    // The initial corpus: one live window plus two small check documents,
    // written once as the snapshot every set-up opens.
    xe::DocumentStore seed_store;
    for (std::size_t i = 0; i < kWindow; ++i) {
      if (!seed_store.InsertTerm(pool_[i]).ok()) prepare_error_ = "insert";
    }
    for (std::size_t i = 0; i < 2; ++i) {
      xpv::Tree t = xpv::RandomTree(
          rng, {.num_nodes = 200, .alphabet_size = 6, .max_children = 8});
      if (!seed_store.InsertTerm(t.ToTerm()).ok()) prepare_error_ = "insert";
    }
    const xpv::Status saved = seed_store.SaveSnapshot(root_ + "/snapshot");
    if (!saved.ok()) prepare_error_ = "snapshot: " + saved.ToString();
  }

  void Setup() override {
    service_.reset();
    store_.reset();
    const std::string spill = root_ + "/spill-" + std::to_string(++setups_);
    std::error_code ec;
    std::filesystem::remove_all(spill, ec);
    std::filesystem::create_directories(spill, ec);
    xe::DocumentStoreOptions opts;
    opts.num_shards = 2;
    opts.max_hot_caches = 2;        // below the live window
    opts.max_resident_docs = 4;     // below the live window: spills
    opts.relation_cache_bytes = 1u << 20;  // below the working set
    opts.spill_dir = spill;
    const Clock::time_point open_start = Clock::now();
    auto opened = xe::DocumentStore::OpenSnapshot(root_ + "/snapshot", opts);
    open_s_.push_back(SecondsSince(open_start));
    if (!opened.ok()) {
      prepare_error_ = "snapshot open: " + opened.status().ToString();
      store_ = std::make_unique<xe::DocumentStore>(opts);
      StartService();
      return;
    }
    store_ = std::move(opened).value();
    StartService();
    // Ids of the snapshot are the ids the seed store assigned: 1..8.
    live_.clear();
    for (DocumentId id = 1; id <= kWindow; ++id) {
      live_.push_back({id, pool_nodes_[id - 1]});
    }
    check_ids_ = {kWindow + 1, kWindow + 2};
    next_pool_ = kWindow;
    gen_.emplace(options_.seed * 31 + 5);
    // Warm-up: one batch over the opened corpus.
    std::vector<QueryJob> warm;
    for (const Live& l : live_) {
      warm.push_back(Job(l.id, gen_->FromRoot(), ResultShape::kCount));
    }
    for (const QueryResult& r : service_->EvaluateBatch(warm)) {
      if (!r.status.ok()) prepare_error_ = "warm-up: " + r.status.ToString();
    }
    book_.Clear();
  }

  void RunWindow(double seconds, Tracer& tracer, RunRecord& rec) override {
    if (!prepare_error_.empty()) rec.Fail(prepare_error_);
    WindowState ws(rec, tracer, book_);
    const Counters before = Snap(*this);
    std::uint64_t slo_ok = 0;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds) {
      // Write: a fresh large document in, the oldest beyond the window out.
      const std::size_t p = next_pool_++ % pool_.size();
      std::optional<DocumentId> evicted;
      if (live_.size() >= kWindow) evicted = live_.front().id;
      std::optional<DocumentId> id = TimedReplace(*store_, pool_[p], evicted, ws);
      if (!id.has_value()) continue;
      if (evicted.has_value()) live_.erase(live_.begin());
      live_.push_back({*id, pool_nodes_[p]});
      // A first page of a from-root stream on the new document.
      StreamFirstPage(*service_,
                      Job(*id, gen_->FromRoot(), ResultShape::kTupleStream), ws);
      // Read: closed-loop batches on the new, then the older documents.
      for (bool fresh : {true, false}) {
        const std::vector<QueryJob> jobs = RoundBatch(live_.back(), fresh);
        std::uint64_t ok = 0;
        const double ms = ClosedBatch(*service_, jobs, ws, &ok);
        rec.batch_ms.Add(ms);
        if (ms <= kSloMs) slo_ok += ok;
      }
    }
    const double elapsed = SecondsSince(start);
    rec.jobs_per_s = static_cast<double>(rec.ok_jobs) / elapsed;
    rec.slo_jobs_per_s = static_cast<double>(slo_ok) / elapsed;
    const Counters after = Snap(*this);
    rec.window_s = elapsed;
    std::vector<DocumentId> ids;
    for (const Live& l : live_) ids.push_back(l.id);
    AddCounterLayers(before, after, workers_, ws.jobs, ws.writes, ids, *this,
                     rec);
    AddWindowLayers(ws, rec);
  }

  std::vector<QueryJob> CheckJobs() override {
    QueryGen gen(options_.seed * 17 + 9);
    std::vector<QueryJob> jobs;
    for (DocumentId id : check_ids_) {
      for (int i = 0; i < 12; ++i) {
        jobs.push_back(Job(id, gen.FullRelation(), ResultShape::kFullRelation));
        jobs.push_back(Job(id, gen.FromRoot(), gen.MonadicShape()));
      }
    }
    // And every live document, from the root (not stable: which documents
    // are live depends on how many rounds the window ran).
    for (const Live& l : live_) {
      jobs.push_back(Job(l.id, gen.FromRoot(), ResultShape::kFromRootSet));
    }
    return jobs;
  }

  std::size_t StableChecks() override { return check_ids_.size() * 24; }

  std::vector<QueryJob> ProbeJobs() override {
    QueryGen gen(options_.seed * 23 + 11);
    std::vector<QueryJob> jobs;
    for (const Live& l : live_) {
      jobs.push_back(Job(l.id, gen.FromRoot(), gen.MonadicShape()));
      if (l.nodes <= kFullRelationMaxNodes) {
        jobs.push_back(Job(l.id, gen.FullRelation(), ResultShape::kFullRelation));
      }
      if (l.nodes == kFullRelationMaxNodes) {
        // The planner's large-GKP full relation, next to its sparse arm.
        jobs.push_back(Job(l.id, "descendant::a/child::*/following_sibling::b",
                           ResultShape::kFullRelation));
      }
    }
    return jobs;
  }

  std::vector<QueryJob> StreamJobs() override {
    QueryGen gen(options_.seed * 29 + 13);
    std::vector<QueryJob> jobs;
    for (const Live& l : live_) {
      jobs.push_back(Job(l.id, gen.FromRoot(), ResultShape::kTupleStream));
    }
    return jobs;
  }

  void TraceExtras(RunRecord& rec) override {
    MeasureTreeLayer(pool_, rec);
    auto dense = xpv::Tree::ParseTerm(pool_[0]);   // 4096 nodes
    auto sparse = xpv::Tree::ParseTerm(pool_[2]);  // 16384 nodes
    if (dense.ok() && sparse.ok()) AddKernelLayers(*dense, *sparse, rec);
    std::vector<double> open = open_s_;
    std::sort(open.begin(), open.end());
    rec.layer["snapshot.open_s"] = open.empty() ? 0 : open[open.size() / 2];
    // One segment write of a live document, axes included.
    double write_ms = 0;
    if (sparse.ok()) {
      xpv::AxisCache axes(*sparse);
      for (xpv::Axis axis : xpv::kAllAxes) axes.Matrix(axis);
      const std::string path = root_ + "/probe.xpvseg";
      const Clock::time_point start = Clock::now();
      const xpv::Status s =
          xe::WriteDocumentSegment(path, 1, "probe", *sparse, &axes, false);
      write_ms = MillisBetween(start, Clock::now());
      if (!s.ok()) rec.Fail("segment write: " + s.ToString());
    }
    rec.layer["snapshot.segment_write_ms"] = write_ms;
  }

 private:
  struct Live {
    DocumentId id;
    std::size_t nodes;
  };

  /// Mostly unique queries: on the new document, monadic jobs plus a full
  /// relation where the document is small enough; on older documents
  /// (likely spilled), monadic jobs that fault them back in.
  std::vector<QueryJob> RoundBatch(const Live& fresh, bool on_fresh) {
    std::vector<QueryJob> jobs;
    if (on_fresh) {
      for (int i = 0; i < 5; ++i) {
        jobs.push_back(Job(fresh.id, gen_->FromRoot(), gen_->MonadicShape()));
      }
      if (fresh.nodes <= kFullRelationMaxNodes) {
        jobs.push_back(Job(fresh.id, gen_->FullRelation(),
                           ResultShape::kFullRelation));
      }
      return jobs;
    }
    for (int i = 0; i < 4; ++i) {
      const Live& old = live_[gen_->Below(live_.size() - 1)];
      jobs.push_back(Job(old.id, gen_->FromRoot(), gen_->MonadicShape()));
    }
    return jobs;
  }

  std::string root_;
  std::vector<std::string> pool_;
  std::vector<std::size_t> pool_nodes_;
  std::vector<Live> live_;
  std::vector<DocumentId> check_ids_;
  std::size_t next_pool_ = 0;
  std::size_t setups_ = 0;
  std::vector<double> open_s_;
  std::optional<QueryGen> gen_;
  AnswerBook book_;
  std::string prepare_error_;
};

}  // namespace

void Workload::StartService() {
  service_ = std::make_unique<xe::QueryService>(xe::QueryServiceOptions{
      .num_threads = workers_,
      .document_store = store_.get(),
      .max_queued_batches = 0,  // unbounded: overload shows as backlog
      .max_inflight_batches = 2});
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options,
                                       std::size_t workers) {
  if (options.workload == "serve_warm") {
    return std::make_unique<ServeWarm>(options, workers);
  }
  if (options.workload == "nary_answer") {
    return std::make_unique<NaryAnswer>(options, workers);
  }
  if (options.workload == "cold_churn") {
    return std::make_unique<ColdChurn>(options, workers);
  }
  return nullptr;
}

}  // namespace perfbench
