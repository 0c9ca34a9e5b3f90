#include "core/metrics_view.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "orch/heapster.hpp"
#include "orch/sgx_probe.hpp"
#include "support/result_set.hpp"
#include "tsdb/ql/executor.hpp"

namespace sgxo::core {
namespace {

using namespace sgxo::literals;

/// Listing 1's sliding window.
constexpr Duration kWindow = Duration::seconds(25);

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

void write_epc(tsdb::Database& db, const std::string& pod,
               const std::string& node, TimePoint t, Bytes value) {
  db.write(orch::SgxProbe::kEpcMeasurement,
           {{"pod_name", pod}, {"nodename", node}}, t,
           static_cast<double>(value.count()));
}

void write_mem(tsdb::Database& db, const std::string& pod,
               const std::string& node, TimePoint t, Bytes value) {
  db.write(orch::Heapster::kMemoryMeasurement,
           {{"pod_name", pod}, {"nodename", node}, {"type", "pod"}}, t,
           static_cast<double>(value.count()));
}

TEST(ClusterMetrics, WindowValidation) {
  tsdb::Database db;
  EXPECT_THROW(ClusterMetrics(db, Duration::millis(500)), ContractViolation);
  // The window is written into the statements as whole seconds.
  EXPECT_THROW(ClusterMetrics(db, Duration::millis(1500)), ContractViolation);
  EXPECT_NO_THROW(ClusterMetrics(db, Duration::seconds(1)));
}

TEST(ClusterMetrics, EpcPerPodUsesMaxWithinWindow) {
  tsdb::Database db;
  write_epc(db, "p1", "sgx-1", at(40), 8_MiB);
  write_epc(db, "p1", "sgx-1", at(50), 16_MiB);
  write_epc(db, "p1", "sgx-1", at(10), 64_MiB);  // outside 25 s window
  const ClusterMetrics metrics{db, kWindow};
  const auto usages = metrics.epc_per_pod(at(60));
  ASSERT_EQ(usages.size(), 1u);
  EXPECT_EQ(usages[0].pod, "p1");
  EXPECT_EQ(usages[0].node, "sgx-1");
  EXPECT_EQ(usages[0].usage, 16_MiB);
}

TEST(ClusterMetrics, EpcPerNodeSumsPods) {
  tsdb::Database db;
  write_epc(db, "p1", "sgx-1", at(50), 8_MiB);
  write_epc(db, "p2", "sgx-1", at(50), 4_MiB);
  write_epc(db, "p3", "sgx-2", at(50), 2_MiB);
  const ClusterMetrics metrics{db, kWindow};
  const auto per_node = metrics.epc_per_node(at(60));
  ASSERT_EQ(per_node.size(), 2u);
  EXPECT_EQ(per_node.at("sgx-1"), 12_MiB);
  EXPECT_EQ(per_node.at("sgx-2"), 2_MiB);
}

TEST(ClusterMetrics, ZeroSamplesFilteredLikeListing1) {
  tsdb::Database db;
  write_epc(db, "idle", "sgx-1", at(50), 0_B);
  const ClusterMetrics metrics{db, kWindow};
  EXPECT_TRUE(metrics.epc_per_pod(at(60)).empty());
  EXPECT_TRUE(metrics.epc_per_node(at(60)).empty());
}

TEST(ClusterMetrics, MemoryQueriesMirrorEpcQueries) {
  tsdb::Database db;
  write_mem(db, "web", "node-1", at(55), 4_GiB);
  write_mem(db, "db", "node-1", at(55), 8_GiB);
  const ClusterMetrics metrics{db, kWindow};
  const auto per_pod = metrics.memory_per_pod(at(60));
  EXPECT_EQ(per_pod.size(), 2u);
  const auto per_node = metrics.memory_per_node(at(60));
  EXPECT_EQ(per_node.at("node-1"), 12_GiB);
}

TEST(ClusterMetrics, DeadPodSamplesCountUntilWindowExpires) {
  tsdb::Database db;
  write_epc(db, "dead", "sgx-1", at(50), 8_MiB);
  const ClusterMetrics metrics{db, kWindow};
  EXPECT_EQ(metrics.epc_per_node(at(60)).at("sgx-1"), 8_MiB);
  // 30 s later the sample has aged out of the 25 s window.
  EXPECT_TRUE(metrics.epc_per_node(at(80)).empty());
}

TEST(ClusterMetrics, EmptyDatabaseGivesEmptyResults) {
  tsdb::Database db;
  const ClusterMetrics metrics{db, kWindow};
  EXPECT_TRUE(metrics.epc_per_pod(at(60)).empty());
  EXPECT_TRUE(metrics.memory_per_node(at(60)).empty());
}

TEST(ClusterMetrics, Listing1TextMatchesPaper) {
  tsdb::Database db;
  const ClusterMetrics metrics{db, kWindow};
  EXPECT_EQ(metrics.listing1_query(),
            "SELECT SUM(epc) AS epc FROM (SELECT MAX(value) AS epc FROM "
            "\"sgx/epc\" WHERE value <> 0 AND time >= now() - 25s GROUP BY "
            "pod_name, nodename) GROUP BY nodename");
}

TEST(ClusterMetrics, Listing1TextIsExecutable) {
  tsdb::Database db;
  write_epc(db, "p1", "sgx-1", at(50), 8_MiB);
  const ClusterMetrics metrics{db, kWindow};
  const tsdb::ql::ResultSet result =
      tsdb::ql::query(metrics.listing1_query(), db, at(60));
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(value_for(result, "nodename", "sgx-1", "epc"),
                   static_cast<double>((8_MiB).count()));
}

TEST(ClusterMetrics, CustomWindowRespected) {
  tsdb::Database db;
  write_epc(db, "p1", "sgx-1", at(10), 8_MiB);
  const ClusterMetrics wide{db, Duration::minutes(2)};
  EXPECT_NE(wide.listing1_query().find("time >= now() - 120s GROUP BY"),
            std::string::npos);
  EXPECT_EQ(wide.epc_per_node(at(60)).at("sgx-1"), 8_MiB);
  const ClusterMetrics narrow{db, kWindow};
  EXPECT_TRUE(narrow.epc_per_node(at(60)).empty());
}

TEST(ClusterMetrics, QueryWorkTracksWindowNotPodsEverRun) {
  // Pods churn for 30 simulated minutes: a new pod every 10 s, each living
  // 60 s and sampled every 5 s, with Heapster's 15-minute retention run on
  // every tick. The Listing-1 query must read only the series with a
  // sample in its 25 s window, however many pods have come and gone.
  tsdb::Database db{4};
  const ClusterMetrics metrics{db, kWindow};
  constexpr std::int64_t kLifetime = 60;
  constexpr std::int64_t kStartEvery = 10;
  constexpr std::int64_t kEnd = 30 * 60;
  std::size_t most_scanned = 0;
  for (std::int64_t now = 0; now <= kEnd; now += 5) {
    std::size_t live_in_window = 0;
    for (std::int64_t start = 0; start <= now; start += kStartEvery) {
      const std::string pod = "p" + std::to_string(start);
      const std::int64_t last = start + kLifetime;
      if (now <= last) {
        write_epc(db, pod, "sgx-" + std::to_string(start % 3), at(now),
                  Bytes{1 + static_cast<std::uint64_t>(start)});
      }
      // Samples at start, start+5, ..., last: any of them in the window?
      const std::int64_t newest = std::min(now, last);
      if (newest >= now - metrics.window().micros_count() / 1'000'000) {
        ++live_in_window;
      }
    }
    db.enforce_retention(at(now), Duration::minutes(15));
    ASSERT_FALSE(metrics.epc_per_node(at(now)).empty()) << "t=" << now;
    const std::size_t scanned = metrics.last_query_stats().series_scanned;
    EXPECT_LE(scanned, live_in_window) << "t=" << now;
    most_scanned = std::max(most_scanned, scanned);
  }
  // At most ceil((60 + 25) / 10) + 1 of the 181 pods share one window.
  EXPECT_LE(most_scanned, 10u);
  // Retention erased the series of every pod whose last sample fell out
  // of the 15-minute horizon.
  EXPECT_LE(db.series_count(orch::SgxProbe::kEpcMeasurement),
            static_cast<std::size_t>((15 * 60 + 2 * kLifetime) / kStartEvery));
}

}  // namespace
}  // namespace sgxo::core
