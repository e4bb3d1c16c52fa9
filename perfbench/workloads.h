// The three serving workloads. Each one owns its corpus (a DocumentStore)
// and a QueryService over it, generates every input from the run's seed,
// and runs a timed window through the public API:
//
//   serve_warm   open loop of 16-job TrySubmit batches over a warm corpus
//                at a fixed ladder of offered rates, plus a closed-loop
//                saturation phase, warm streams and small writes.
//   nary_answer  closed loop of n-ary batch jobs alternating with
//                first-page streams of the same queries, plus small writes.
//   cold_churn   rounds of InsertTerm + Remove of large documents beside
//                closed-loop batches of mostly unique queries, on a
//                spilling store opened from a snapshot.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed input generation (documents, query pools, snapshots).
  virtual void Prepare() = 0;
  /// Builds or opens the corpus and warms it, replacing any earlier
  /// store and service. Timed by the caller as setup_s.
  virtual void Setup() = 0;
  /// The timed window. Fills the end-to-end fields of `rec` and the
  /// layer metrics derived from the service's and store's counters.
  virtual void RunWindow(double seconds, Tracer& tracer, RunRecord& rec) = 0;

  /// Seeded job list for the digest, oracle and replay checks. The first
  /// `StableChecks()` jobs depend on the seed alone, so their result
  /// digest must repeat across runs; the rest may address documents the
  /// window happened to leave live.
  virtual std::vector<xpv::engine::QueryJob> CheckJobs() = 0;
  virtual std::size_t StableChecks() = 0;
  /// Binary jobs for the planner-regret probe.
  virtual std::vector<xpv::engine::QueryJob> ProbeJobs() = 0;
  /// Queries whose streams are sampled for the stream-layer metrics.
  virtual std::vector<xpv::engine::QueryJob> StreamJobs() = 0;
  /// Workload-specific traced measurements (snapshot, parse, kernels).
  virtual void TraceExtras(RunRecord& rec) = 0;

  xpv::engine::DocumentStore& store() { return *store_; }
  xpv::engine::QueryService& service() { return *service_; }
  std::size_t workers() const { return workers_; }

 protected:
  Workload(const RunOptions& options, std::size_t workers)
      : options_(options), workers_(workers) {}

  /// Replaces the service (after the store it serves is in place).
  void StartService();

  const RunOptions options_;
  const std::size_t workers_;
  // Declared before the service: destroyed after it.
  std::unique_ptr<xpv::engine::DocumentStore> store_;
  std::unique_ptr<xpv::engine::QueryService> service_;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const RunOptions& options,
                                       std::size_t workers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
