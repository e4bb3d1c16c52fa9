// Shared vocabulary of the end-to-end serving benchmark: clocks, latency
// samples, the span tracer, and the per-run record every workload fills.
//
// The benchmark drives the library only through its public API
// (QueryService, DocumentStore and the stage functions beneath them);
// every span is recorded here, around the benchmark's own calls.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/document_store.h"
#include "engine/query_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Latency samples in milliseconds, in the order they were taken;
/// quantiles by linear interpolation.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void Append(const Samples& other) {
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  }
  std::size_t size() const { return ms_.size(); }
  double Quantile(double q) const;
  /// The median, over consecutive windows of `window` samples, of each
  /// window's q-quantile -- once there are at least three full windows;
  /// the plain quantile before that. A burst of stalls (a descheduled
  /// vCPU, say) then moves one window's tail, not the reported one.
  double WindowedQuantile(double q, std::size_t window) const;

 private:
  std::vector<double> ms_;
};

// ------------------------------------------------------------- tracing

/// One recorded span: a call into a layer, timed from the outside.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per span. Spans are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the calling thread's innermost open span.
  std::int64_t Begin(const char* name, std::uint64_t request);
  void End(std::int64_t id);

  /// Self time per span name: each span's duration minus the part its
  /// direct children cover, summed per name, in milliseconds.
  std::map<std::string, double> SelfMillis() const;
  /// Total (inclusive) milliseconds and call counts per span name.
  std::map<std::string, std::pair<double, std::size_t>> Totals() const;

  /// Writes every span as one JSON array; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// ------------------------------------------------------------ run record

/// Everything one workload run measures. End-to-end fields come from the
/// timed window; `layer` holds the per-layer metrics of a traced run.
struct RunRecord {
  double window_s = 0;
  std::uint64_t ok_jobs = 0;       // jobs completed OK in the window
  std::uint64_t attempted = 0;     // jobs + streams + writes attempted
  std::uint64_t failed = 0;        // failed jobs/streams/writes + rejected
  double jobs_per_s = 0;
  double slo_jobs_per_s = 0;
  Samples batch_ms;
  Samples stream_ms;
  Samples write_ms;
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::map<std::string, double> layer;
  /// First failed check (empty = every check passed).
  std::string error;

  void Fail(const std::string& what) {
    if (error.empty()) error = what;
  }
};

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;      // scratch space inside the checkout
};

/// Order-sensitive FNV-1a digest of every answer byte of a result list:
/// status code, relation bits or runs, from-root set, tuples, scalars.
/// Plans are not digested (routing may change; answers may not).
std::uint64_t DigestResults(const std::vector<xpv::engine::QueryResult>& rs);
std::uint64_t DigestResult(const xpv::engine::QueryResult& r);

/// Resident-set high-water mark of this process, in MiB.
double PeakRssMb();
/// CPU seconds used by the whole process / by the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
