// Streaming descriptive statistics: central moments up to order four (for
// skewness / kurtosis and the Jarque-Bera normality check) and the TailSummary
// record that FleetEngine, the bench harnesses and the perf gate all share.
//
// Everything here is O(1) memory per accumulator and deterministic: feeding
// the same samples in the same order always yields bit-identical results,
// which is what lets the perf gate diff tail metrics at tolerance 0.
#pragma once

#include <cstddef>
#include <vector>

namespace mobiweb::stats {

// Running count/mean/M2..M4/min/max (Welford, extended to third and fourth
// central moments). NaN samples are rejected — add() returns false and the
// accumulator is unchanged — so one poisoned measurement cannot silently
// corrupt a whole run's skewness.
class Moments {
 public:
  // Returns false (and ignores the sample) when x is NaN.
  bool add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 below two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  // Population skewness g1 = m3 / m2^1.5; 0 when undefined (n < 2 or m2 = 0).
  [[nodiscard]] double skewness() const;
  // Excess kurtosis g2 = m4 / m2^2 - 3; 0 when undefined.
  [[nodiscard]] double kurtosis_excess() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  void merge(const Moments& other);
  void reset() { *this = Moments{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Distribution summary of one metric: the mean with a Student-t 95%
// confidence half-width plus the tail quantiles the perf gate compares.
// Produced exactly by summarize_tails, from the full sample set.
struct TailSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;   // Student-t 95% half-width for the mean; 0 below n=2
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// Exact summary by sorting a copy of `samples` and reading order statistics
// (type-7 interpolation, see exact_quantile in quantile.hpp). NaN samples are
// dropped first. The result depends only on the multiset of samples — never
// on their order — so fleet aggregates built from it are shard-invariant.
TailSummary summarize_tails(const std::vector<double>& samples);

// Student-t 95% confidence half-width for the mean of n samples with sample
// standard deviation `stddev`: t_{0.975, n-1} * s / sqrt(n). 0 below n = 2.
double mean_ci95_halfwidth(std::size_t n, double stddev);

}  // namespace mobiweb::stats
