#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mobiweb::stats {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

double exact_quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return kNan;
  q = std::clamp(q, 0.0, 1.0);
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double exact_quantile(std::vector<double> samples, double q) {
  samples.erase(std::remove_if(samples.begin(), samples.end(),
                               [](double v) { return std::isnan(v); }),
                samples.end());
  std::sort(samples.begin(), samples.end());
  return exact_quantile_sorted(samples, q);
}

}  // namespace mobiweb::stats
