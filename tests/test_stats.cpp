// Statistical experiment engine: exact order statistics, Student-t
// confidence intervals, Jarque-Bera normality, chi-square goodness of fit,
// the dispersion test, and least-squares regression. Every random draw is
// seeded, so nothing here can flake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/describe.hpp"
#include "stats/inference.hpp"
#include "stats/quantile.hpp"
#include "stats/regress.hpp"
#include "stats/slo.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stats = mobiweb::stats;
using mobiweb::ContractViolation;
using mobiweb::Rng;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<double> uniform_draws(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.next_double();
  return out;
}

std::vector<double> exponential_draws(std::size_t n, double rate,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = -std::log(1.0 - rng.next_double()) / rate;
  return out;
}

}  // namespace

// ---------------------------------------------------------------- exact

TEST(ExactQuantile, PinnedOrderStatistics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_TRUE(std::isnan(stats::exact_quantile({}, 0.5)));
  EXPECT_DOUBLE_EQ(stats::exact_quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::exact_quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(stats::exact_quantile(v, 1.0), 5.0);
  // Type-7 interpolation: h = 0.25 * 4 = 1 exactly.
  EXPECT_DOUBLE_EQ(stats::exact_quantile(v, 0.25), 2.0);
  // h = 0.1 * 4 = 0.4 between the first two order statistics.
  EXPECT_NEAR(stats::exact_quantile(v, 0.1), 1.4, 1e-12);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(stats::exact_quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::exact_quantile(v, 2.0), 5.0);
}

TEST(ExactQuantile, DropsNaNsBeforeSorting) {
  EXPECT_DOUBLE_EQ(stats::exact_quantile({kNan, 2.0, 1.0, kNan, 3.0}, 0.5),
                   2.0);
}

// ------------------------------------------------------------- describe

TEST(Moments, MatchesClosedFormsOnKnownData) {
  stats::Moments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(v);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  // Population skewness of this classic set is 0.656...; pin loosely
  // against the direct two-pass computation.
  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    const double d = v - 5.0;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  m2 /= 8.0;
  m3 /= 8.0;
  m4 /= 8.0;
  EXPECT_NEAR(m.skewness(), m3 / std::pow(m2, 1.5), 1e-12);
  EXPECT_NEAR(m.kurtosis_excess(), m4 / (m2 * m2) - 3.0, 1e-12);
}

TEST(Moments, RejectsNaNAndMerges) {
  stats::Moments a;
  EXPECT_FALSE(a.add(kNan));
  EXPECT_EQ(a.count(), 0u);
  stats::Moments b;
  stats::Moments whole;
  const auto samples = uniform_draws(2000, 0x5eed0005);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i < 700 ? a : b).add(samples[i]);
    whole.add(samples[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_NEAR(a.skewness(), whole.skewness(), 1e-9);
  EXPECT_NEAR(a.kurtosis_excess(), whole.kurtosis_excess(), 1e-9);
}

TEST(TailSummary, ExactSummaryIsOrderInvariant) {
  auto samples = exponential_draws(5000, 2.0, 0x5eed0006);
  const stats::TailSummary forward = stats::summarize_tails(samples);
  std::reverse(samples.begin(), samples.end());
  const stats::TailSummary backward = stats::summarize_tails(samples);
  EXPECT_DOUBLE_EQ(forward.mean, backward.mean);
  EXPECT_DOUBLE_EQ(forward.stddev, backward.stddev);
  EXPECT_DOUBLE_EQ(forward.p99, backward.p99);
  EXPECT_DOUBLE_EQ(forward.p999, backward.p999);
  EXPECT_DOUBLE_EQ(forward.ci95, backward.ci95);
}

// ------------------------------------------------------------- inference

TEST(SpecialFunctions, PinnedReferenceValues) {
  // Chi-square survival at textbook critical points.
  EXPECT_NEAR(stats::chi_square_sf(3.841, 1.0), 0.05, 5e-4);
  EXPECT_NEAR(stats::chi_square_sf(5.991, 2.0), 0.05, 5e-4);
  EXPECT_NEAR(stats::chi_square_sf(18.307, 10.0), 0.05, 5e-4);
  EXPECT_DOUBLE_EQ(stats::chi_square_sf(0.0, 5.0), 1.0);
  // Incomplete beta / gamma basics.
  EXPECT_NEAR(stats::incomplete_beta(2.0, 2.0, 0.5), 0.5, 1e-10);
  EXPECT_NEAR(stats::gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(stats::gamma_q(0.5, 2.0), 0.0455, 5e-4);  // = erfc(sqrt(2))
}

TEST(StudentT, CdfAndCriticalValues) {
  EXPECT_DOUBLE_EQ(stats::student_t_cdf(0.0, 7.0), 0.5);
  // t = 1, df = 1 is the Cauchy distribution: CDF = 3/4.
  EXPECT_NEAR(stats::student_t_cdf(1.0, 1.0), 0.75, 1e-10);
  // Textbook two-sided 95% critical values.
  EXPECT_NEAR(stats::t_critical(1.0), 12.706, 5e-3);
  EXPECT_NEAR(stats::t_critical(10.0), 2.228, 5e-3);
  EXPECT_NEAR(stats::t_critical(30.0), 2.042, 5e-3);
  EXPECT_NEAR(stats::t_critical(1e6), 1.960, 5e-3);  // -> normal quantile
  // 99% widens the interval.
  EXPECT_NEAR(stats::t_critical(10.0, 0.99), 3.169, 5e-3);
  EXPECT_THROW(stats::t_critical(0.5), ContractViolation);
  EXPECT_THROW(stats::t_critical(10.0, 1.0), ContractViolation);
}

TEST(MeanCi, StudentTWidthShrinksWithN) {
  // Half-width = t* s / sqrt(n); pinned for s = 1.
  EXPECT_NEAR(stats::mean_ci95_halfwidth(2, 1.0), 12.706 / std::sqrt(2.0),
              5e-3);
  EXPECT_NEAR(stats::mean_ci95_halfwidth(101, 1.0),
              1.984 / std::sqrt(101.0), 1e-3);
  EXPECT_DOUBLE_EQ(stats::mean_ci95_halfwidth(1, 1.0), 0.0);
  EXPECT_GT(stats::mean_ci95_halfwidth(10, 1.0),
            stats::mean_ci95_halfwidth(1000, 1.0));
}

TEST(JarqueBera, AcceptsNormalRejectsExponential) {
  // Exact normal draws via Box-Muller (Irwin-Hall's excess kurtosis of
  // -0.1 is detectable at this sample size — JB is that sensitive).
  Rng rng(0x5eed0007);
  stats::Moments normal;
  for (int i = 0; i < 2000; ++i) {
    const double r = std::sqrt(-2.0 * std::log(1.0 - rng.next_double()));
    const double theta = 2.0 * 3.14159265358979323846 * rng.next_double();
    normal.add(r * std::cos(theta));
    normal.add(r * std::sin(theta));
  }
  const stats::TestResult accept = stats::jarque_bera(normal);
  EXPECT_GT(accept.p_value, 0.01);

  stats::Moments expo;
  for (double v : exponential_draws(4000, 1.0, 0x5eed0008)) expo.add(v);
  const stats::TestResult reject = stats::jarque_bera(expo);
  EXPECT_LT(reject.p_value, 1e-6);
  EXPECT_GT(reject.statistic, accept.statistic);

  // Too few samples: degenerates to "never reject".
  stats::Moments tiny;
  for (double v : {1.0, 2.0, 9.0}) tiny.add(v);
  EXPECT_DOUBLE_EQ(stats::jarque_bera(tiny).p_value, 1.0);
}

TEST(ChiSquareGof, AcceptsMatchingRejectsSkewedCounts) {
  // A fair six-sided sample, drawn from the uniform weights themselves.
  Rng rng(0x5eed0009);
  std::vector<long> counts(6, 0);
  for (int i = 0; i < 6000; ++i) ++counts[rng.next_below(6)];
  const std::vector<double> fair(6, 1.0);
  const stats::TestResult accept = stats::chi_square_gof(counts, fair);
  EXPECT_DOUBLE_EQ(accept.df, 5.0);
  EXPECT_GT(accept.p_value, 0.01);

  // The same counts against a loaded die must reject hard.
  const std::vector<double> loaded = {5.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const stats::TestResult reject = stats::chi_square_gof(counts, loaded);
  EXPECT_LT(reject.p_value, 1e-10);

  EXPECT_THROW(stats::chi_square_gof({1}, {1.0}), ContractViolation);
  EXPECT_THROW(stats::chi_square_gof({1, 2}, {1.0}), ContractViolation);
  EXPECT_THROW(stats::chi_square_gof({1, 2}, {1.0, -1.0}), ContractViolation);
}

TEST(ChiSquareGof, PoolsSparseTailBins) {
  // Heavy head, long sparse tail: expected counts in the tail fall below 5,
  // so the test must pool bins (df shrinks) instead of exploding.
  std::vector<double> weights;
  std::vector<long> observed;
  weights.push_back(1000.0);
  observed.push_back(1000);
  for (int i = 0; i < 20; ++i) {
    weights.push_back(0.1);
    observed.push_back(i % 2);
  }
  const stats::TestResult r = stats::chi_square_gof(observed, weights);
  EXPECT_LT(r.df, 20.0);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(DispersionTest, PoissonCountsPassRegularAndBurstyFail) {
  // Poisson window counts synthesized by thinning exponential gaps: count
  // arrivals of a rate-100 process in unit windows.
  Rng rng(0x5eed000a);
  std::vector<long> counts(200, 0);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / 100.0;
    const auto w = static_cast<std::size_t>(t);
    if (w >= counts.size()) break;
    ++counts[w];
  }
  EXPECT_NEAR(stats::dispersion_index(counts), 1.0, 0.25);
  EXPECT_GT(stats::dispersion_test(counts).p_value, 0.01);

  // Deterministic (underdispersed) counts: variance 0, must reject.
  const std::vector<long> regular(100, 7);
  EXPECT_LT(stats::dispersion_test(regular).p_value, 1e-10);

  // Bursty (overdispersed) counts: alternating famine and feast.
  std::vector<long> bursty(100);
  for (std::size_t i = 0; i < bursty.size(); ++i) {
    bursty[i] = (i % 2 == 0) ? 0 : 14;
  }
  EXPECT_LT(stats::dispersion_test(bursty).p_value, 1e-10);
}

// ------------------------------------------------------------ regression

TEST(LinearFit, RecoversExactLine) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  ys.reserve(xs.size());
  for (double x : xs) ys.push_back(2.5 * x - 1.0);
  const stats::LinearFit fit = stats::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(fit.residual_stddev, 0.0, 1e-9);
  EXPECT_NEAR(fit.at(10.0), 24.0, 1e-9);
}

TEST(LinearFit, CiCoversTrueSlopeOnNoisyData) {
  Rng rng(0x5eed000b);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    xs.push_back(x);
    ys.push_back(0.75 * x + 3.0 + rng.next_range(-0.5, 0.5));
  }
  const stats::LinearFit fit = stats::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.75, 0.05);
  EXPECT_GT(fit.slope_ci95, 0.0);
  EXPECT_LE(std::fabs(fit.slope - 0.75), 3.0 * fit.slope_ci95);
  EXPECT_GT(fit.r2, 0.95);
}

TEST(LinearFit, SkipsNaNPairsAndRejectsDegenerateInputs) {
  const stats::LinearFit fit = stats::fit_linear(
      {0.0, kNan, 1.0, 2.0, 3.0}, {1.0, 99.0, 2.0, kNan, 4.0});
  EXPECT_EQ(fit.count, 3u);  // (0,1), (1,2), (3,4)
  EXPECT_NEAR(fit.slope, 1.0, 1e-12);
  EXPECT_THROW(stats::fit_linear({1.0}, {1.0}), ContractViolation);
  EXPECT_THROW(stats::fit_linear({1.0, 2.0}, {1.0}), ContractViolation);
  EXPECT_THROW(stats::fit_linear({2.0, 2.0}, {1.0, 5.0}), ContractViolation);
}

// Regression fits the paper's §5 shapes end-to-end: redundancy ratio vs
// alpha is increasing, and session time vs duty cycle is increasing — both
// with slopes distinguishable from zero at 95%.
TEST(LinearFit, DetectsMonotoneTrendInSweepShapedData) {
  Rng rng(0x5eed000c);
  std::vector<double> duty;
  std::vector<double> time_s;
  for (int rep = 0; rep < 10; ++rep) {
    for (double d : {0.0, 0.1, 0.2, 0.3, 0.4}) {
      duty.push_back(d);
      time_s.push_back(20.0 + 45.0 * d + rng.next_range(-2.0, 2.0));
    }
  }
  const stats::LinearFit fit = stats::fit_linear(duty, time_s);
  EXPECT_GT(fit.slope - fit.slope_ci95, 0.0)
      << "slope CI must exclude zero for a real trend";
  EXPECT_NEAR(fit.slope, 45.0, 10.0);
}

// ---- SLO burn engine (evaluate_slo_series) --------------------------------
//
// The gate's contract, pinned as unit shapes: a flat-but-noisy series must
// PASS, a genuine mid-run regression must FAIL, a drift in the *good*
// direction or on an informational series must never breach, and too few
// buckets must never be "significant". The wobble is deterministic
// (sinusoid), so nothing here can flake.

namespace {

std::vector<double> flat_series(std::size_t n, double level) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = level + 0.002 * std::sin(1.7 * static_cast<double>(i));
  }
  return out;
}

// Flat first half, linear burn to +ramp over the second half — the
// cache-cliff shape an end-of-run mean averages away.
std::vector<double> mid_run_regression(std::size_t n, double level,
                                       double ramp) {
  std::vector<double> out = flat_series(n, level);
  for (std::size_t i = n / 2; i < n; ++i) {
    out[i] += ramp * static_cast<double>(i - n / 2) /
              static_cast<double>(n - n / 2);
  }
  return out;
}

}  // namespace

TEST(SloSeries, FlatSeriesPasses) {
  const stats::SloSeries v = stats::evaluate_slo_series(
      "link_loss_fraction", flat_series(40, 0.3), -1, 0.5);
  EXPECT_EQ(v.name, "link_loss_fraction");
  EXPECT_EQ(v.buckets, 40u);
  EXPECT_EQ(v.window, 40u);
  EXPECT_FALSE(v.breach);
  EXPECT_NEAR(v.summary.mean, 0.3, 0.01);
}

TEST(SloSeries, MidRunRegressionBreaches) {
  const stats::SloSeries v = stats::evaluate_slo_series(
      "link_loss_fraction", mid_run_regression(40, 0.2, 0.4), -1, 0.5);
  EXPECT_TRUE(v.significant);
  EXPECT_GT(v.drift, v.tolerance);
  EXPECT_TRUE(v.breach);
}

TEST(SloSeries, DriftInTheGoodDirectionNeverBreaches) {
  // The same upward burn is an improvement for a higher-is-better series.
  const stats::SloSeries v = stats::evaluate_slo_series(
      "origin_up_fraction", mid_run_regression(40, 0.2, 0.4), +1, 0.5);
  EXPECT_TRUE(v.significant);
  EXPECT_FALSE(v.breach);
  // And a higher-is-better series *falling* breaches.
  std::vector<double> falling = mid_run_regression(40, 0.2, 0.4);
  std::reverse(falling.begin(), falling.end());
  EXPECT_TRUE(
      stats::evaluate_slo_series("origin_up_fraction", falling, +1, 0.5)
          .breach);
}

TEST(SloSeries, InformationalDirectionNeverBreaches) {
  const stats::SloSeries v = stats::evaluate_slo_series(
      "frames_per_s", mid_run_regression(40, 0.2, 0.8), 0, 0.1);
  EXPECT_EQ(v.direction, 0);
  EXPECT_FALSE(v.breach);
}

TEST(SloSeries, TooFewBucketsNeverBreach) {
  // A steep perfect ramp, but below kSloMinBuckets defined points: the slope
  // CI from so few buckets is meaningless, so the verdict must stay PASS.
  std::vector<double> steep;
  for (std::size_t i = 0; i + 1 < stats::kSloMinBuckets; ++i) {
    steep.push_back(0.1 * static_cast<double>(i));
  }
  const stats::SloSeries v =
      stats::evaluate_slo_series("ramp", steep, -1, 0.1);
  EXPECT_LT(v.buckets, stats::kSloMinBuckets);
  EXPECT_FALSE(v.significant);
  EXPECT_FALSE(v.breach);
}

TEST(SloSeries, NanBucketsAreSkippedNotCounted) {
  std::vector<double> holes = flat_series(40, 0.3);
  holes[3] = kNan;
  holes[17] = kNan;
  holes[31] = kNan;
  const stats::SloSeries v =
      stats::evaluate_slo_series("holes", holes, -1, 0.5);
  EXPECT_EQ(v.window, 40u);
  EXPECT_EQ(v.buckets, 37u);
  EXPECT_FALSE(v.breach);
  EXPECT_TRUE(std::isfinite(v.summary.mean));
  EXPECT_TRUE(std::isfinite(v.drift));
}

TEST(SloSeries, JsonIsByteStableAndCountsBreaches) {
  std::vector<stats::SloSeries> verdicts;
  verdicts.push_back(stats::evaluate_slo_series(
      "flat", flat_series(40, 0.3), -1, 0.5));
  verdicts.push_back(stats::evaluate_slo_series(
      "burn", mid_run_regression(40, 0.2, 0.4), -1, 0.5));
  const std::string json = stats::slo_json(verdicts, 0.5);
  EXPECT_EQ(json, stats::slo_json(verdicts, 0.5));
  EXPECT_NE(json.find("\"breaches\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"flat\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"burn\""), std::string::npos);
}
