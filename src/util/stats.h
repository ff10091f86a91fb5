// Descriptive statistics used by the evaluation harness: percentiles,
// coefficient of variation (data balance, §6.2 of the paper), and empirical
// CDFs (most figures in §6 are CDFs of job completion times).
#ifndef CORRAL_UTIL_STATS_H_
#define CORRAL_UTIL_STATS_H_

#include <span>
#include <vector>

namespace corral {

// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> values);

// Population standard deviation; 0 for fewer than two values.
double stddev(std::span<const double> values);

// stddev / mean; 0 when the mean is 0.
double coefficient_of_variation(std::span<const double> values);

// Linear-interpolated percentile, p in [0, 100]. Throws
// std::invalid_argument on empty input or p outside [0, 100]; a
// single-element input returns that element for every p.
double percentile(std::span<const double> values, double p);

double sum(std::span<const double> values);

// An empirical CDF: sorted sample values with evaluation helpers.
// Construction throws std::invalid_argument on an empty sample set, so
// every instance can evaluate quantiles.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  // Fraction of samples <= x.
  double at(double x) const;

  // Inverse CDF (quantile), q in [0, 1]; q=0 is the minimum sample and q=1
  // the maximum. Throws std::invalid_argument outside that range.
  double quantile(double q) const;

  double median() const { return quantile(0.5); }
  std::size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted() const { return sorted_; }

  // Evaluation points for printing a CDF as `points` (value, fraction) rows.
  std::vector<std::pair<double, double>> sample_points(int points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace corral

#endif  // CORRAL_UTIL_STATS_H_
