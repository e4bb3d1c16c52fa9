// End-to-end serving benchmark driver.
//
//   perfbench_driver --workload <serve_warm|nary_answer|cold_churn>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>] [--out <dir>]
//
// Sets the workload up nine times (setup_s is the median), runs its
// timed window, checks every output, and prints a report whose last line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the window runs twice, untraced then
// traced (the ratio is bench.trace_overhead), and a sample of jobs is
// replayed stage by stage for the per-layer metrics. Exit code 0 iff
// every check passed; 3 for a build that must not report numbers.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "replay.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace xe = xpv::engine;

constexpr int kSetupRepetitions = 9;
// A p99 is taken per window of this many samples (so each has ten samples
// beyond it) and the median over windows is reported; see Samples.
constexpr std::size_t kP99Window = 1000;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"jobs_per_s", "jobs/s"},
    {"slo_jobs_per_s", "jobs/s"},
    {"batch_p50_ms", "ms"},
    {"batch_p99_ms", "ms"},
    {"stream_first_page_p50_ms", "ms"},
    {"stream_first_page_p99_ms", "ms"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Every per-layer metric, printed by every traced run (0 where a layer
// does no work on the workload).
constexpr MetricDef kPerLayer[] = {
    {"compile.us_per_call", "us"},
    {"compile.hit_rate", "ratio"},
    {"plan.us_per_call", "us"},
    {"plan.memo_hit_rate", "ratio"},
    {"plan.regret_share", "ratio"},
    {"plan.regret_geomean", "ratio"},
    {"plan.cost_rank_corr", "ratio"},
    {"ppl.gkp_ms_per_job", "ms"},
    {"ppl.matrix_ms_per_job", "ms"},
    {"ppl.dense_products", "count"},
    {"ppl.sparse_products", "count"},
    {"ppl.repr_crossovers", "count"},
    {"ppl.relcache_hit_rate", "ratio"},
    {"ppl.relcache_mb", "MiB"},
    {"common.dense_mult_ns_per_word", "ns"},
    {"common.spgemm_ns_per_run", "ns"},
    {"common.crc32c_gb_per_s", "GB/s"},
    {"tree.parse_ms_per_knode", "ms"},
    {"tree.axis_build_ms", "ms"},
    {"tree.axis_hit_rate", "ratio"},
    {"hcl.answer_ms_per_job", "ms"},
    {"fo.enum_open_ms", "ms"},
    {"fo.enum_us_per_tuple", "us"},
    {"stream.backing_kb", "KiB"},
    {"stream.dedup_entries", "count"},
    {"service.overhead_us_per_batch", "us"},
    {"service.worker_util", "ratio"},
    {"service.rejected_share", "ratio"},
    {"service.queue_depth_max", "count"},
    {"store.fetch_us", "us"},
    {"store.reloads_per_fetch", "ratio"},
    {"store.spills_per_write", "ratio"},
    {"store.resident_mb", "MiB"},
    {"snapshot.open_s", "s"},
    {"snapshot.segment_write_ms", "ms"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.replay_coverage", "ratio"},
    {"self.compile_ms_per_job", "ms"},
    {"self.store_ms_per_job", "ms"},
    {"self.planner_ms_per_job", "ms"},
    {"self.engine_ms_per_job", "ms"},
    {"self.job_ms_per_job", "ms"},
};

bool BuildMayReport(std::string* why) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    *why = std::string("build type is ") + PERFBENCH_BUILD_TYPE +
           ", not Release";
    return false;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitized build";
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  *why = "sanitized build";
  return false;
#endif
#endif
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Checks every run makes: the service's answers on the check jobs are
/// identical at nproc-1 workers and at 1 worker, equal the Fig. 2 oracle
/// on small documents, and equal a stage-by-stage replay; n-ary streams
/// drain to the batch tuple set. With a tracer on, also fills the
/// replay-derived layer metrics. Returns the stable-prefix digest.
std::uint64_t RunChecks(Workload& w, Tracer& replay, RunRecord& rec) {
  const std::vector<xe::QueryJob> jobs = w.CheckJobs();
  const std::size_t stable = std::min(w.StableChecks(), jobs.size());
  const std::vector<xe::QueryResult> many = w.service().EvaluateBatch(jobs);
  xe::QueryService one({.num_threads = 1, .document_store = &w.store()});
  const std::vector<xe::QueryResult> single = one.EvaluateBatch(jobs);
  if (DigestResults(many) != DigestResults(single)) {
    rec.Fail("check digest differs between " + std::to_string(w.workers()) +
             " workers and 1 worker");
  }

  xe::QueryCache replay_cache;
  double replay_ms = 0;
  double service_ms = 0;
  std::vector<double> job_replay_ms(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const xe::QueryJob& job = jobs[i];
    if (!many[i].status.ok()) {
      rec.Fail("check job failed: " + job.query + ": " +
               many[i].status.ToString());
      continue;
    }
    auto doc = w.store().Fetch(job.document);
    if (!doc.ok()) {
      rec.Fail("check document vanished");
      continue;
    }
    const xpv::Tree& tree = (*doc)->tree();
    const bool nary = many[i].plan.engine == xe::EnginePlan::kNaryAnswer;
    if (tree.size() <= (nary ? 60u : 256u)) {
      const std::string bad = OracleCheck(tree, job, many[i]);
      if (!bad.empty()) rec.Fail("oracle disagrees: " + bad);
    }
    // The same job through the service alone, then replayed by stage.
    const Clock::time_point svc_start = Clock::now();
    const std::vector<xe::QueryResult> again = one.EvaluateBatch({job});
    service_ms += MillisBetween(svc_start, Clock::now());
    const Clock::time_point replay_start = Clock::now();
    const xe::QueryResult replayed =
        ReplayJob(w.store(), replay_cache, job, replay, i + 1);
    const double ms = MillisBetween(replay_start, Clock::now());
    replay_ms += ms;
    job_replay_ms[i] = ms;
    if (DigestResult(replayed) != DigestResult(many[i]) ||
        DigestResult(again[0]) != DigestResult(many[i])) {
      rec.Fail("stage replay disagrees with the service on " + job.query);
    }
    if (nary && job.shape == xe::ResultShape::kFullRelation) {
      // Streamed pages must equal the batch tuple set.
      auto stream = w.service().OpenStream(job.document, job.query, {});
      xpv::xpath::TupleSet streamed;
      while (stream.ok()) {
        auto page = stream->NextBatch(256);
        if (!page.ok()) {
          rec.Fail("stream drain failed: " + page.status().ToString());
          break;
        }
        if (page->empty()) break;
        streamed.insert(page->begin(), page->end());
      }
      if (!stream.ok() || streamed != many[i].tuples) {
        rec.Fail("streamed pages differ from the batch tuple set: " +
                 job.query);
      }
    }
  }

  if (replay.enabled()) {
    rec.layer["bench.replay_coverage"] = service_ms > 0 ? replay_ms / service_ms : 0;
    // Batch overhead: one batch of 16 copies of the cheapest check job on
    // the 1-worker service, minus 16 replays of it; the median of eight.
    // (With heavy jobs the subtraction would drown in their noise.)
    std::size_t cheapest = 0;
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      if (job_replay_ms[i] > 0 && (job_replay_ms[cheapest] == 0 ||
                                   job_replay_ms[i] < job_replay_ms[cheapest])) {
        cheapest = i;
      }
    }
    const std::vector<xe::QueryJob> batch(16, jobs[cheapest]);
    Tracer off(false);
    Samples overhead_us;
    for (int rep = 0; rep < 8; ++rep) {
      const Clock::time_point replay_start = Clock::now();
      for (const xe::QueryJob& job : batch) {
        ReplayJob(w.store(), replay_cache, job, off, 0);
      }
      const double replayed = MillisBetween(replay_start, Clock::now());
      const Clock::time_point start = Clock::now();
      auto handle = one.TrySubmit(batch);
      if (handle.ok()) handle->Wait();
      overhead_us.Add((MillisBetween(start, Clock::now()) - replayed) * 1e3);
    }
    rec.layer["service.overhead_us_per_batch"] = overhead_us.Quantile(0.5);
  }

  std::vector<xe::QueryResult> stable_results(many.begin(),
                                              many.begin() + static_cast<long>(stable));
  return DigestResults(stable_results);
}

/// Per-layer metrics from the replay spans.
void ReplayLayers(const Tracer& replay, RunRecord& rec) {
  const auto totals = replay.Totals();
  const auto self = replay.SelfMillis();
  auto mean = [&](const char* name, double scale) {
    auto it = totals.find(name);
    return it == totals.end() || it->second.second == 0
               ? 0.0
               : it->second.first * scale / static_cast<double>(it->second.second);
  };
  rec.layer["compile.us_per_call"] = mean("engine.compile", 1e3);
  rec.layer["plan.us_per_call"] = mean("engine.planner", 1e3);
  rec.layer["store.fetch_us"] = mean("engine.store", 1e3);
  rec.layer["ppl.gkp_ms_per_job"] = mean("ppl.gkp", 1);
  rec.layer["ppl.matrix_ms_per_job"] = mean("ppl.matrix", 1);
  rec.layer["hcl.answer_ms_per_job"] = mean("hcl.answer", 1);
  auto it = totals.find("job");
  const double jobs = it == totals.end() ? 1 : static_cast<double>(it->second.second);
  auto self_of = [&](std::initializer_list<const char*> names) {
    double ms = 0;
    for (const char* n : names) {
      auto s = self.find(n);
      if (s != self.end()) ms += s->second;
    }
    return ms / jobs;
  };
  rec.layer["self.compile_ms_per_job"] = self_of({"engine.compile"});
  rec.layer["self.store_ms_per_job"] = self_of({"engine.store"});
  rec.layer["self.planner_ms_per_job"] = self_of({"engine.planner"});
  rec.layer["self.engine_ms_per_job"] =
      self_of({"ppl.gkp", "ppl.matrix", "hcl.answer", "engine.payload"});
  rec.layer["self.job_ms_per_job"] = self_of({"job"});
}

/// Stream-layer metrics: open plus first tuple, the backing's footprint
/// while it is live, then the time per further tuple.
void StreamLayers(Workload& w, RunRecord& rec) {
  double open_ms = 0;
  double tuple_us = 0;
  double backing_kb = 0;
  double dedup = 0;
  std::size_t opened = 0;
  std::size_t timed = 0;
  for (const xe::QueryJob& job : w.StreamJobs()) {
    const Clock::time_point start = Clock::now();
    xe::StreamOptions options;
    options.limit = 100;
    auto stream = w.service().OpenStream(job.document, job.query, options);
    if (!stream.ok()) continue;
    auto first = stream->NextBatch(1);
    open_ms += MillisBetween(start, Clock::now());
    ++opened;
    const xe::StreamStats stats = stream->stats();
    backing_kb += static_cast<double>(stats.backing_bytes) / 1024.0;
    dedup += static_cast<double>(stats.dedup_entries);
    if (!first.ok() || first->empty()) continue;
    const Clock::time_point rest = Clock::now();
    auto page = stream->NextBatch(99);
    const double us = MillisBetween(rest, Clock::now()) * 1e3;
    if (page.ok() && !page->empty()) {
      tuple_us += us / static_cast<double>(page->size());
      ++timed;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, opened));
  rec.layer["fo.enum_open_ms"] = open_ms / n;
  rec.layer["stream.backing_kb"] = backing_kb / n;
  rec.layer["stream.dedup_entries"] = dedup / n;
  rec.layer["fo.enum_us_per_tuple"] = timed > 0 ? tuple_us / static_cast<double>(timed) : 0;
}

void RegretLayers(Workload& w, RunRecord& rec) {
  const RegretReport r = ProbeRegret(w.store(), w.ProbeJobs());
  if (!r.error.empty()) rec.Fail(r.error);
  rec.layer["plan.regret_share"] =
      r.jobs > 0 ? static_cast<double>(r.regretted) / static_cast<double>(r.jobs) : 0;
  rec.layer["plan.regret_geomean"] = r.regret_geomean;
  rec.layer["plan.cost_rank_corr"] = r.cost_rank_corr;
  std::printf("regret probe: %zu jobs, %zu plans timed, %zu regretted; slowest "
              "chosen plan %.1f ms on %zu nodes: %s; fastest forced plan of "
              "that job %.1f ms: %s\n",
              r.jobs, r.timed_plans, r.regretted, r.max_chosen_ms,
              r.max_chosen_nodes, r.max_chosen_plan.c_str(),
              r.max_chosen_best_ms, r.max_chosen_best_plan.c_str());
}

/// Compares the stable digest with the one an earlier run of the same
/// workload and seed recorded in this checkout (or records it).
void CheckDigestAcrossRuns(const std::string& out_dir, const RunOptions& o,
                           std::uint64_t digest, RunRecord& rec) {
  const std::string dir = out_dir + "/digests";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/" + o.workload + "-" + std::to_string(o.seed) + ".txt";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::ifstream in(path);
  std::string previous;
  if (in >> previous) {
    if (previous != hex) {
      rec.Fail("result digest " + std::string(hex) + " differs from " +
               previous + " of an earlier run with this seed");
    }
    return;
  }
  std::ofstream(path) << hex << "\n";
}

double MetricValue(const RunRecord& rec, const std::string& name) {
  if (name == "jobs_per_s") return rec.jobs_per_s;
  if (name == "slo_jobs_per_s") return rec.slo_jobs_per_s;
  if (name == "batch_p50_ms") return rec.batch_ms.Quantile(0.5);
  if (name == "batch_p99_ms") return rec.batch_ms.WindowedQuantile(0.99, kP99Window);
  if (name == "stream_first_page_p50_ms") return rec.stream_ms.Quantile(0.5);
  if (name == "stream_first_page_p99_ms") {
    return rec.stream_ms.WindowedQuantile(0.99, kP99Window);
  }
  if (name == "write_p50_ms") return rec.write_ms.Quantile(0.5);
  if (name == "write_p99_ms") return rec.write_ms.WindowedQuantile(0.99, kP99Window);
  if (name == "setup_s") return Median(rec.setup_s);
  if (name == "peak_rss_mb") return PeakRssMb();
  auto it = rec.layer.find(name);
  return it == rec.layer.end() ? 0 : it->second;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <serve_warm|nary_answer|"
               "cold_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>] [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/perfbench";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0) return Usage();

  std::string why;
  if (!BuildMayReport(&why)) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why.c_str());
    return 3;
  }

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::max<std::size_t>(1, nproc - 1);
  o.work_dir = out_dir + "/work-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);

  std::unique_ptr<Workload> w = MakeWorkload(o, workers);
  if (w == nullptr) return Usage();

  RunRecord rec;
  w->Prepare();
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const Clock::time_point start = Clock::now();
    w->Setup();
    rec.setup_s.push_back(SecondsSince(start));
  }

  Tracer window(false);
  Tracer replay(o.trace);
  if (o.trace) {
    RunRecord untraced;
    w->RunWindow(o.seconds / 2, window, untraced);
    window.set_enabled(true);
    w->RunWindow(o.seconds / 2, window, rec);
    window.set_enabled(false);
    rec.attempted += untraced.attempted;
    rec.failed += untraced.failed;
    if (!untraced.error.empty()) rec.Fail(untraced.error);
    rec.layer["bench.trace_overhead"] =
        untraced.jobs_per_s > 0 ? 1.0 - rec.jobs_per_s / untraced.jobs_per_s : 0;
  } else {
    w->RunWindow(o.seconds, window, rec);
  }

  const std::uint64_t digest = RunChecks(*w, replay, rec);
  CheckDigestAcrossRuns(out_dir, o, digest, rec);
  if (o.trace) {
    ReplayLayers(replay, rec);
    StreamLayers(*w, rec);
    RegretLayers(*w, rec);
    w->TraceExtras(rec);
    const std::string trace_dir = out_dir + "/traces";
    std::filesystem::create_directories(trace_dir, ec);
    const std::string stem =
        trace_dir + "/" + o.workload + "-" + std::to_string(o.seed);
    if (!window.WriteJson(stem + "-window.json") ||
        !replay.WriteJson(stem + "-replay.json")) {
      rec.Fail("cannot write the trace files");
    }
    std::printf("self time per layer (replayed jobs, ms total):\n");
    for (const auto& [name, ms] : replay.SelfMillis()) {
      std::printf("  %-20s %10.3f\n", name.c_str(), ms);
    }
  }
  w.reset();
  std::filesystem::remove_all(o.work_dir, ec);

  std::printf("perfbench: workload=%s seed=%llu nproc=%zu workers=%zu "
              "build=%s commit=%s digest=%016llx window_s=%.3f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              nproc, workers, PERFBENCH_BUILD_TYPE, commit.c_str(),
              static_cast<unsigned long long>(digest), rec.window_s);
  std::printf("samples: batches=%zu streams=%zu writes=%zu setups=%zu\n",
              rec.batch_ms.size(), rec.stream_ms.size(), rec.write_ms.size(),
              rec.setup_s.size());
  if (!rec.error.empty()) std::printf("CHECK FAILED: %s\n", rec.error.c_str());

  std::string json = "{\"correct\": ";
  json += rec.error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, rec.attempted));
  json += ", \"failed\": " + std::to_string(rec.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const double v = MetricValue(rec, m.name);
    std::printf("  %-32s %16.6f %s\n", m.name, v, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (o.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rec.error.empty() ? 0 : 1;
}
