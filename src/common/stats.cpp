#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace sgxo {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double OnlineStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return min_; }
double OnlineStats::max() const { return max_; }

double OnlineStats::ci95_half_width() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double population_stddev(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double sq = 0.0;
  for (double x : xs) sq += (x - mean) * (x - mean);
  return std::sqrt(sq / static_cast<double>(xs.size()));
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : samples_(std::move(samples)) {
  SGXO_CHECK_MSG(!samples_.empty(), "CDF over empty sample set");
  std::sort(samples_.begin(), samples_.end());
}

double EmpiricalCdf::at(double x) const {
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  return samples_[std::min(rank == 0 ? 0 : rank - 1, samples_.size() - 1)];
}

double EmpiricalCdf::min() const { return samples_.front(); }
double EmpiricalCdf::max() const { return samples_.back(); }

std::vector<EmpiricalCdf::Point> EmpiricalCdf::curve(std::size_t points) const {
  SGXO_CHECK(points >= 2);
  std::vector<Point> out;
  out.reserve(points);
  const double lo = samples_.front();
  const double hi = samples_.back();
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back(Point{x, 100.0 * at(x)});
  }
  return out;
}

}  // namespace sgxo
