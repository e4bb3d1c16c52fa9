// Stage-by-stage replay of service jobs, output checks against the Fig. 2
// DirectEvaluator, the planner-regret probe, and the kernel replays that
// time the word-level layer on a workload's own axis matrices.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "common.h"
#include "engine/query_cache.h"

namespace perfbench {

/// Replays one document-addressed job through the public stage functions
/// QueryCache::GetOrCompile -> DocumentStore::Fetch/AxisCacheFor/
/// PlanMemoFor/RelationCacheFor -> PlanQuery -> GkpEngine / MatrixEngine /
/// hcl::QueryAnswerer, with one span per stage, and returns the result
/// the service would have produced for the same job.
xpv::engine::QueryResult ReplayJob(xpv::engine::DocumentStore& store,
                                   xpv::engine::QueryCache& cache,
                                   const xpv::engine::QueryJob& job,
                                   Tracer& tracer, std::uint64_t request);

/// Checks `result` of `job` against the Fig. 2 DirectEvaluator on the
/// job's tree: binary jobs with TryEvalPath, n-ary jobs with
/// EvalNaryNaive. Returns an empty string when they agree.
std::string OracleCheck(const xpv::Tree& tree, const xpv::engine::QueryJob& job,
                        const xpv::engine::QueryResult& result);

/// Outcome of the planner-regret probe over a sample of binary jobs.
struct RegretReport {
  std::size_t jobs = 0;           // jobs probed
  std::size_t regretted = 0;      // a forced plan beat the chosen one
  double regret_geomean = 1.0;    // chosen/best time over regretted jobs
  double cost_rank_corr = 0.0;    // Spearman(plan.cost, measured time)
  std::size_t timed_plans = 0;
  double max_chosen_ms = 0;       // slowest chosen plan seen
  std::size_t max_chosen_nodes = 0;
  std::string max_chosen_plan;
  double max_chosen_best_ms = 0;  // fastest forced plan of that job
  std::string max_chosen_best_plan;
  std::string error;              // first forced plan whose answer differed
};

/// Times every admissible forced plan (engine override x representation
/// override) of each job with the relation cache detached, next to the
/// planner's own choice. Forced dense matrix plans are skipped above
/// AxisCache::kAutoDenseMaxNodes nodes (n^3/64 word operations).
RegretReport ProbeRegret(xpv::engine::DocumentStore& store,
                         const std::vector<xpv::engine::QueryJob>& jobs);

/// Word-kernel replays on one tree's own axis matrices.
struct KernelReport {
  double dense_mult_ns_per_word = 0;  // BitMatrix::Multiply
  double spgemm_ns_per_run = 0;       // SparseBoolMatrix::Multiply
  double crc32c_gb_per_s = 0;
};
KernelReport ReplayKernels(const xpv::Tree& dense_tree,
                           const xpv::Tree& sparse_tree);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
