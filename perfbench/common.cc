#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using xpv::engine::QueryResult;

double Samples::Quantile(double q) const {
  if (ms_.empty()) return 0;
  std::vector<double> v = ms_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::WindowedQuantile(double q, std::size_t window) const {
  if (window == 0 || ms_.size() < 3 * window) return Quantile(q);
  std::vector<double> per_window;
  for (std::size_t begin = 0; begin + window <= ms_.size(); begin += window) {
    Samples w;
    w.ms_.assign(ms_.begin() + static_cast<long>(begin),
                 ms_.begin() + static_cast<long>(begin + window));
    per_window.push_back(w.Quantile(q));
  }
  std::sort(per_window.begin(), per_window.end());
  const std::size_t n = per_window.size();
  return n % 2 == 1 ? per_window[n / 2]
                    : (per_window[n / 2 - 1] + per_window[n / 2]) / 2;
}

// ------------------------------------------------------------- tracing

namespace {
// Innermost open span per thread (spans nest strictly per thread).
thread_local std::vector<std::pair<std::int64_t, std::uint64_t>> open_spans;
}  // namespace

std::int64_t Tracer::Begin(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  if (!open_spans.empty()) {
    s.parent = open_spans.back().first;
    if (request == 0) request = open_spans.back().second;
  }
  s.request = request;
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size()) + 1;
    s.id = id;
    spans_.push_back(std::move(s));
  }
  open_spans.emplace_back(id, request);
  return id;
}

void Tracer::End(std::int64_t id) {
  const std::int64_t end = NowNs();
  if (!open_spans.empty() && open_spans.back().first == id) {
    open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id - 1)].end_ns = end;
}

std::map<std::string, double> Tracer::SelfMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const std::int64_t own =
        s.end_ns - s.start_ns - child_ns[static_cast<std::size_t>(s.id)];
    self[s.name] += static_cast<double>(own) / 1e6;
  }
  return self;
}

std::map<std::string, std::pair<double, std::size_t>> Tracer::Totals()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::pair<double, std::size_t>> totals;
  for (const Span& s : spans_) {
    auto& t = totals[s.name];
    t.first += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++t.second;
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// -------------------------------------------------------------- digests

namespace {
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

void MixResult(Fnv& f, const QueryResult& r) {
  f.Mix(static_cast<std::uint64_t>(r.status.code()));
  if (!r.status.ok()) return;
  f.Mix(r.relation.size());
  for (std::size_t row = 0; row < r.relation.size(); ++row) {
    const xpv::BitVector bits = r.relation.Row(row);
    for (std::uint64_t w : bits.words()) f.Mix(w);
  }
  if (r.relation_sparse != nullptr) {
    f.Mix(r.relation_sparse->num_runs());
    for (std::size_t row = 0; row < r.relation_sparse->size(); ++row) {
      auto [first, last] = r.relation_sparse->RunsOf(row);
      for (auto it = first; it != last; ++it) {
        f.Mix(it->begin);
        f.Mix(it->end);
      }
    }
  }
  f.Mix(r.from_root.size());
  for (std::uint64_t w : r.from_root.words()) f.Mix(w);
  f.Mix(r.tuples.size());
  for (const auto& tuple : r.tuples) {
    f.Mix(tuple.size());
    for (xpv::NodeId v : tuple) f.Mix(v);
  }
  f.Mix(r.boolean ? 1 : 0);
  f.Mix(r.count);
}
}  // namespace

std::uint64_t DigestResult(const QueryResult& r) {
  Fnv f;
  MixResult(f, r);
  return f.h;
}

std::uint64_t DigestResults(const std::vector<QueryResult>& rs) {
  Fnv f;
  for (const QueryResult& r : rs) MixResult(f, r);
  return f.h;
}

// ------------------------------------------------------- process probes

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
double CpuOf(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

double ProcessCpuSeconds() { return CpuOf(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuOf(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace perfbench
