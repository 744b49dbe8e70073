// Shared plumbing of the benchmark runner: wall-clock helpers, order
// statistics, the result line, and the span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Type-7 sample quantile (what numpy and statistics.quantiles(method=
// "inclusive") give); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// High-water resident set of this process, in bytes.
[[nodiscard]] double peak_rss_bytes();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Perfetto JSON written at exit by the traced run
};

// Derives an independent stream seed for one input of the workload.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

// The benchmark's verdict: one metric per name, plus the session accounting
// behind error_rate (failed / attempted).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Reports each (name, unit) as 0: metrics of layers this workload does not
  // use. A name already reported is a bug in the runner and fails the run.
  void unused(const std::vector<std::pair<std::string, std::string>>& metrics);
  void attempt(long sessions, long failed) {
    attempted_ += sessions;
    failed_ += failed;
  }
  // Records a failed output check; the run then reports correct = false.
  void fail(const std::string& why);

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return problems_.empty() && failed_ == 0; }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }

  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> problems_;
  long attempted_ = 0;
  long failed_ = 0;
};

// In-memory span recorder for the traced run. Spans nest by call order on
// one thread; every span carries the id of the session or fetch it serves,
// and a span opened inside another becomes its child.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    int parent;  // index into spans(), -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  int begin(const char* name, std::uint64_t id);
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Durations (microseconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  // Share of the time of the root spans named `root` that none of their
  // child spans covers.
  [[nodiscard]] double untraced_fraction(const std::string& root) const;

  // Chrome/Perfetto trace-event JSON with per-span self time in args.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> child_time_ns() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing, so untraced paths pay one branch.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->begin(name, id) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
