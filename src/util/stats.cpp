#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace corral {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return sum(values) / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double accum = 0.0;
  for (double v : values) accum += (v - m) * (v - m);
  return std::sqrt(accum / static_cast<double>(values.size()));
}

double coefficient_of_variation(std::span<const double> values) {
  const double m = mean(values);
  if (m == 0.0) return 0.0;
  return stddev(values) / m;
}

double percentile(std::span<const double> values, double p) {
  require(!values.empty(), "percentile: empty input");
  require(p >= 0.0 && p <= 100.0, "percentile: p must be in [0, 100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double sum(std::span<const double> values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  require(!sorted_.empty(), "Cdf: empty sample set");
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::at(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Cdf::quantile: q must be in [0, 1]");
  return percentile(sorted_, q * 100.0);
}

std::vector<std::pair<double, double>> Cdf::sample_points(int points) const {
  require(points >= 2, "Cdf::sample_points: need at least 2 points");
  std::vector<std::pair<double, double>> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / (points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

}  // namespace corral
