#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux: KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  mobiweb::SplitMix64 mix(seed ^ (0xA0761D6478BD642Full * (salt + 1)));
  mix.next();
  return mix.next();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Report::unused(const std::vector<std::pair<std::string, std::string>>& metrics) {
  for (const auto& [name, unit] : metrics) {
    if (metrics_.count(name) != 0) fail("metric " + name + " is reported as used and unused");
    metrics_[name] = {0.0, unit};
  }
}

void Report::fail(const std::string& why) { problems_.push_back(why); }

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, entry] : metrics_) {
    std::snprintf(number, sizeof number, "%.17g", entry.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

int Tracer::begin(const char* name, std::uint64_t id) {
  const int parent = open_.empty() ? -1 : open_.back();
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  spans_.push_back(Span{name, id, parent, now, now});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  // Scopes close innermost-first, so the closing span is the top of the stack.
  open_.pop_back();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

// Children of one span run one after another on the span's thread, so the
// part of the parent they cover is the sum of their durations.
std::vector<std::int64_t> Tracer::child_time_ns() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  return covered;
}

double Tracer::untraced_fraction(const std::string& root) const {
  const std::vector<std::int64_t> covered = child_time_ns();
  double total = 0.0;
  double untraced = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 || root != s.name) continue;
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    total += dur;
    untraced += dur - static_cast<double>(covered[i]);
  }
  return total > 0.0 ? untraced / total : 0.0;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> covered = child_time_ns();
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %llu, \"self_us\": %.3f}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(dur) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<double>(dur - covered[i]) / 1e3);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
