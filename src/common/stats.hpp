// Summary statistics used by the figure benches and examples: online
// mean/variance, 95 % confidence intervals (Fig. 6 and Fig. 9 error bars)
// and empirical CDFs (Figs. 3, 4, 8, 11), plus the population standard
// deviation the spread placement policy minimises.
#pragma once

#include <cstddef>
#include <vector>

namespace sgxo {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Half-width of the 95 % confidence interval of the mean
  /// (normal approximation; the paper reports 95 % CIs over 60 runs).
  [[nodiscard]] double ci95_half_width() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Population standard deviation of a vector — the `spread` placement policy
/// minimises the std-dev of per-node load.
[[nodiscard]] double population_stddev(const std::vector<double>& xs);

/// An empirical CDF over collected samples.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  /// Fraction of samples <= x, in [0, 1].
  [[nodiscard]] double at(double x) const;
  /// Value at quantile q in [0, 1] (nearest-rank).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Evenly spaced (x, cdf%) points suitable for plotting a paper-style CDF.
  struct Point {
    double x;
    double cdf_percent;
  };
  [[nodiscard]] std::vector<Point> curve(std::size_t points) const;

 private:
  std::vector<double> samples_;  // sorted
};

}  // namespace sgxo
