#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace sgxo {
namespace {

TEST(OnlineStats, EmptyDefaults) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, Ci95ShrinksWithSamples) {
  OnlineStats small;
  OnlineStats large;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : 2.0);
  for (int i = 0; i < 1000; ++i) large.add(i % 2 == 0 ? 1.0 : 2.0);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(PopulationStddev, KnownValues) {
  EXPECT_DOUBLE_EQ(population_stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(population_stddev({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(population_stddev({1.0, 1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(population_stddev({2.0, 4.0}), 1.0);
}

TEST(EmpiricalCdf, RejectsEmpty) {
  EXPECT_THROW(EmpiricalCdf{std::vector<double>{}}, ContractViolation);
}

TEST(EmpiricalCdf, StepFunction) {
  const EmpiricalCdf cdf{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(EmpiricalCdf, Quantiles) {
  const EmpiricalCdf cdf{{10.0, 20.0, 30.0, 40.0}};
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 40.0);
}

TEST(EmpiricalCdf, UnsortedInputHandled) {
  const EmpiricalCdf cdf{{3.0, 1.0, 2.0}};
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  const EmpiricalCdf cdf{{1.0, 5.0, 5.0, 7.0, 12.0}};
  const auto curve = cdf.curve(20);
  ASSERT_EQ(curve.size(), 20u);
  EXPECT_DOUBLE_EQ(curve.front().x, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().x, 12.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].cdf_percent, curve[i].cdf_percent);
  }
  EXPECT_DOUBLE_EQ(curve.back().cdf_percent, 100.0);
}

}  // namespace
}  // namespace sgxo
