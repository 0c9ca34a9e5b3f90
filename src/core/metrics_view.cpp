#include "core/metrics_view.hpp"

#include "common/error.hpp"

namespace sgxo::core {

namespace {

std::string window_literal(Duration window) {
  return std::to_string(window.micros_count() / 1'000'000) + "s";
}

// The Listing-1 statements with the window as a $window parameter, so one
// prepared AST serves any window bound at execute time.
std::string inner_text(const std::string& measurement) {
  return "SELECT MAX(value) AS usage FROM \"" + measurement +
         "\" WHERE value <> 0 AND time >= now() - $window"
         " GROUP BY pod_name, nodename";
}

std::string outer_text(const std::string& measurement) {
  return "SELECT SUM(usage) AS usage FROM (" + inner_text(measurement) +
         ") GROUP BY nodename";
}

}  // namespace

ClusterMetrics::ClusterMetrics(const tsdb::Database& db, Duration window)
    : db_(&db),
      window_(window),
      window_binding_({{"window", window}}),
      epc_inner_(tsdb::ql::PreparedQuery::prepare(inner_text("sgx/epc"))),
      epc_outer_(tsdb::ql::PreparedQuery::prepare(outer_text("sgx/epc"))),
      memory_inner_(
          tsdb::ql::PreparedQuery::prepare(inner_text("memory/usage"))),
      memory_outer_(
          tsdb::ql::PreparedQuery::prepare(outer_text("memory/usage"))) {
  SGXO_CHECK_MSG(window_ >= Duration::seconds(1),
                 "metrics window below 1 s would render as 0s in InfluxQL");
}

std::string ClusterMetrics::listing1_query() const {
  return "SELECT SUM(epc) AS epc FROM (SELECT MAX(value) AS epc FROM "
         "\"sgx/epc\" WHERE value <> 0 AND time >= now() - " +
         window_literal(window_) +
         " GROUP BY pod_name, nodename) GROUP BY nodename";
}

tsdb::ql::ResultSet ClusterMetrics::run(const tsdb::ql::PreparedQuery& query,
                                        TimePoint now) const {
  tsdb::ql::ExecStats stats;
  tsdb::ql::ExecOptions options;
  options.stats = &stats;
  tsdb::ql::ResultSet result =
      query.execute(*db_, now, window_binding_, options);
  last_stats_ = QueryDiagnostics{};
  for (const tsdb::ql::ShardScanStats& shard : stats.shards) {
    if (shard.series == 0 && shard.points == 0) continue;
    ++last_stats_.shards_scanned;
    last_stats_.series_scanned += shard.series;
    last_stats_.points_scanned += shard.points;
  }
  return result;
}

std::vector<ClusterMetrics::PodUsage> ClusterMetrics::per_pod(
    const tsdb::ql::PreparedQuery& query, TimePoint now) const {
  tsdb::ql::ResultSet result = run(query, now);
  std::vector<PodUsage> usages;
  usages.reserve(result.rows.size());
  for (tsdb::ql::Row& row : result.rows) {
    // The rows are this call's own: move the names out of them.
    PodUsage usage;
    const auto pod_it = row.tags.find("pod_name");
    const auto node_it = row.tags.find("nodename");
    if (pod_it != row.tags.end()) usage.pod = std::move(pod_it->second);
    if (node_it != row.tags.end()) usage.node = std::move(node_it->second);
    usage.usage =
        Bytes{static_cast<std::uint64_t>(row.field("usage"))};
    usages.push_back(std::move(usage));
  }
  return usages;
}

std::map<cluster::NodeName, Bytes> ClusterMetrics::per_node(
    const tsdb::ql::PreparedQuery& query, TimePoint now) const {
  const tsdb::ql::ResultSet result = run(query, now);
  std::map<cluster::NodeName, Bytes> usage;
  for (const tsdb::ql::Row& row : result.rows) {
    const auto node_it = row.tags.find("nodename");
    const std::string node =
        node_it == row.tags.end() ? "" : node_it->second;
    usage[node] = Bytes{static_cast<std::uint64_t>(row.field("usage"))};
  }
  return usage;
}

std::optional<Duration> ClusterMetrics::staleness(TimePoint now) const {
  std::optional<TimePoint> newest;
  for (const char* measurement : {"sgx/epc", "memory/usage"}) {
    const std::optional<TimePoint> t = db_->newest_time(measurement);
    if (t.has_value() && (!newest.has_value() || *t > *newest)) newest = t;
  }
  if (!newest.has_value()) return std::nullopt;
  return *newest >= now ? Duration{} : now - *newest;
}

std::vector<ClusterMetrics::PodUsage> ClusterMetrics::epc_per_pod(
    TimePoint now) const {
  return per_pod(epc_inner_, now);
}

std::map<cluster::NodeName, Bytes> ClusterMetrics::epc_per_node(
    TimePoint now) const {
  return per_node(epc_outer_, now);
}

std::vector<ClusterMetrics::PodUsage> ClusterMetrics::memory_per_pod(
    TimePoint now) const {
  return per_pod(memory_inner_, now);
}

std::map<cluster::NodeName, Bytes> ClusterMetrics::memory_per_node(
    TimePoint now) const {
  return per_node(memory_outer_, now);
}

}  // namespace sgxo::core
