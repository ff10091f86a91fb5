#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace corral {
namespace {

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "bad argument"), std::invalid_argument);
}

TEST(Check, EnsureThrowsLogicError) {
  EXPECT_NO_THROW(ensure(true, "fine"));
  EXPECT_THROW(ensure(false, "broken invariant"), std::logic_error);
}

TEST(Units, ConversionsMatchDefinitions) {
  EXPECT_DOUBLE_EQ(kGB, 1e9);
  EXPECT_DOUBLE_EQ(kGbps, 1e9 / 8.0);
  EXPECT_DOUBLE_EQ(kHour, 3600.0);
  // 10 Gbps NIC moves 1 GB in 0.8 seconds.
  EXPECT_NEAR(1 * kGB / (10 * kGbps), 0.8, 1e-12);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_DOUBLE_EQ(stddev(values), 2.0);
  EXPECT_DOUBLE_EQ(coefficient_of_variation(values), 0.4);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> values = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 25);
}

TEST(Stats, PercentileIgnoresInputOrder) {
  const std::vector<double> values = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(values, 50), 25);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile(std::vector<double>{}, 50), std::invalid_argument);
  const std::vector<double> one = {1.0};
  EXPECT_THROW(percentile(one, -1), std::invalid_argument);
  EXPECT_THROW(percentile(one, 101), std::invalid_argument);
}

TEST(Stats, PercentileSingleElementIsConstant) {
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 100), 42.0);
}

TEST(Stats, CovOfConstantIsZero) {
  const std::vector<double> values = {3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(values), 0.0);
}

TEST(Cdf, EvaluatesFractions) {
  Cdf cdf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10), 1.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 2.5);
}

TEST(Cdf, RejectsEmptySampleSet) {
  EXPECT_THROW(Cdf(std::vector<double>{}), std::invalid_argument);
}

TEST(Cdf, QuantileEndpointsAndRange) {
  Cdf cdf({5, 1, 9, 2});
  EXPECT_DOUBLE_EQ(cdf.quantile(0), 1.0);   // minimum sample
  EXPECT_DOUBLE_EQ(cdf.quantile(1), 9.0);   // maximum sample
  EXPECT_THROW(cdf.quantile(-0.01), std::invalid_argument);
  EXPECT_THROW(cdf.quantile(1.01), std::invalid_argument);
}

TEST(Cdf, SingleSampleQuantileIsConstant) {
  Cdf cdf({7.5});
  EXPECT_DOUBLE_EQ(cdf.quantile(0), 7.5);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(cdf.quantile(1), 7.5);
}

TEST(Cdf, SamplePointsAreMonotone) {
  Cdf cdf({5, 1, 9, 2, 7, 3});
  const auto points = cdf.sample_points(5);
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(points.front().second, 0.0);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const int n = rng.uniform_int(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(5);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / n, 4.0, 0.15);
}

TEST(Rng, NormalWithZeroStddevReturnsMeanAndAdvancesTheEngine) {
  Rng zero(13), unit(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zero.normal(2.5, 0.0), 2.5);
    unit.normal(0.0, 1.0);
  }
  EXPECT_EQ(zero.uniform_int(0, 1 << 30), unit.uniform_int(0, 1 << 30));
  EXPECT_THROW(zero.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng forked = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(9);
  b.fork();
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  (void)forked;
}

TEST(TextTable, RendersAlignedRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "2.5"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, FormatsNumbers) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.335, 1), "33.5%");
}

}  // namespace
}  // namespace corral
