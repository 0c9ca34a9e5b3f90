// Oracle-based property test of the InfluxQL engine: for randomly
// generated workloads (parameterised by seed), the engine's answer to the
// paper's Listing-1 query, and to SUM and MAX over a window, must equal a
// brute-force recomputation from the raw points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "support/result_set.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/executor.hpp"

namespace sgxo::tsdb {
namespace {

constexpr const char* kListing1 =
    "SELECT SUM(epc) AS epc FROM "
    "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename) "
    "GROUP BY nodename";

struct RawPoint {
  std::string pod;
  std::string node;
  TimePoint time;
  double value;
};

class Listing1Oracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Listing1Oracle, EngineMatchesBruteForce) {
  Rng rng{GetParam()};
  Database db;
  std::vector<RawPoint> raw;

  const int pods = static_cast<int>(rng.uniform_int(1, 12));
  const int nodes = static_cast<int>(rng.uniform_int(1, 4));
  const int samples = static_cast<int>(rng.uniform_int(5, 60));
  for (int p = 0; p < pods; ++p) {
    const std::string pod = "pod-" + std::to_string(p);
    const std::string node =
        "node-" + std::to_string(rng.uniform_int(0, nodes - 1));
    for (int s = 0; s < samples; ++s) {
      RawPoint point;
      point.pod = pod;
      point.node = node;
      point.time = TimePoint::from_micros(rng.uniform_int(0, 120'000'000));
      // ~15 % zero samples to exercise the value <> 0 filter.
      point.value = rng.bernoulli(0.15)
                        ? 0.0
                        : static_cast<double>(rng.uniform_int(1, 1'000'000));
      raw.push_back(point);
      db.write("sgx/epc", {{"pod_name", point.pod}, {"nodename", point.node}},
               point.time, point.value);
    }
  }

  const TimePoint now = TimePoint::from_micros(120'000'000);
  const TimePoint window_start = now - Duration::seconds(25);

  // Brute force: max per (pod, node) inside the window over non-zero
  // samples, then sum per node.
  std::map<std::pair<std::string, std::string>, double> max_per_pod;
  for (const RawPoint& point : raw) {
    if (point.value == 0.0) continue;
    if (point.time < window_start) continue;
    auto key = std::make_pair(point.pod, point.node);
    const auto it = max_per_pod.find(key);
    if (it == max_per_pod.end() || point.value > it->second) {
      max_per_pod[key] = point.value;
    }
  }
  std::map<std::string, double> expected;
  for (const auto& [key, value] : max_per_pod) {
    expected[key.second] += value;
  }

  const ql::ResultSet result = ql::query(kListing1, db, now);
  ASSERT_EQ(result.rows.size(), expected.size()) << "seed " << GetParam();
  for (const auto& [node, sum] : expected) {
    EXPECT_DOUBLE_EQ(value_for(result, "nodename", node, "epc"), sum)
        << "node " << node << ", seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, Listing1Oracle,
                         ::testing::Range<std::uint64_t>(1, 26));

class WindowOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowOracle, MeanCountSumAgreeWithBruteForce) {
  // SUM and MAX over a random window of fractional samples. The grammar
  // has no COUNT or MEAN: a count is the SUM of a unit sample written
  // beside each value, and the mean is the ratio of the two sums.
  Rng rng{GetParam() * 7919};
  Database db;
  std::vector<std::pair<std::int64_t, double>> samples;  // (time, value)
  const int n = static_cast<int>(rng.uniform_int(1, 200));
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-100.0, 100.0);
    const std::int64_t t = rng.uniform_int(0, 1'000'000);
    samples.emplace_back(t, v);
    db.write("m", {{"k", "v"}}, TimePoint::from_micros(t), v);
    db.write("ones", {{"k", "v"}}, TimePoint::from_micros(t), 1.0);
  }
  const std::int64_t window_us = rng.uniform_int(0, 1'000'000);
  const TimePoint now = TimePoint::from_micros(1'000'000);
  const std::string where =
      " WHERE time >= now() - " + std::to_string(window_us) + "us";
  const ql::ResultSet sum = ql::query("SELECT SUM(value) AS s FROM m" + where,
                                      db, now);
  const ql::ResultSet max =
      ql::query("SELECT MAX(value) AS hi FROM m" + where, db, now);
  const ql::ResultSet count =
      ql::query("SELECT SUM(value) AS n FROM ones" + where, db, now);

  double want_sum = 0.0;
  double want_max = 0.0;
  int want_count = 0;
  for (const auto& [t, v] : samples) {
    if (t < 1'000'000 - window_us) continue;
    want_max = want_count == 0 ? v : std::max(want_max, v);
    want_sum += v;
    ++want_count;
  }
  if (want_count == 0) {
    EXPECT_TRUE(sum.rows.empty());
    EXPECT_TRUE(max.rows.empty());
    EXPECT_TRUE(count.rows.empty());
    return;
  }
  ASSERT_EQ(sum.rows.size(), 1u);
  ASSERT_EQ(max.rows.size(), 1u);
  ASSERT_EQ(count.rows.size(), 1u);
  const double got_sum = sum.rows[0].field("s");
  const double got_count = count.rows[0].field("n");
  EXPECT_NEAR(got_sum, want_sum, 1e-9);
  EXPECT_DOUBLE_EQ(got_count, static_cast<double>(want_count));
  EXPECT_NEAR(got_sum / got_count, want_sum / want_count, 1e-9);
  EXPECT_DOUBLE_EQ(max.rows[0].field("hi"), want_max);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, WindowOracle,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace sgxo::tsdb
