#include "core/metrics_view.hpp"

#include "common/error.hpp"

namespace sgxo::core {

namespace {

/// The window as an InfluxQL duration literal. Only whole seconds render
/// exactly, and a window below 1 s would render as 0s.
std::string window_literal(Duration window) {
  SGXO_CHECK_MSG(window >= Duration::seconds(1) &&
                     window.micros_count() % 1'000'000 == 0,
                 "metrics window must be a whole number of seconds, at "
                 "least 1 s, to render exactly in InfluxQL");
  return std::to_string(window.micros_count() / 1'000'000) + "s";
}

/// Listing 1's inner statement over `measurement`: each pod's MAX over the
/// window, as column `column`.
std::string inner_text(const std::string& measurement,
                       const std::string& column, Duration window) {
  return "SELECT MAX(value) AS " + column + " FROM \"" + measurement +
         "\" WHERE value <> 0 AND time >= now() - " + window_literal(window) +
         " GROUP BY pod_name, nodename";
}

/// Listing 1: the inner statement's per-pod values summed per node.
std::string outer_text(const std::string& measurement,
                       const std::string& column, Duration window) {
  return "SELECT SUM(" + column + ") AS " + column + " FROM (" +
         inner_text(measurement, column, window) + ") GROUP BY nodename";
}

/// The column a Listing-1 statement projects.
const std::string& column_of(const tsdb::ql::PreparedQuery& query) {
  return query.stmt().projection.alias;
}

/// The value of tag `name` in `tags`, "" when missing.
std::string tag_value(const tsdb::Tags& tags, const std::string& name) {
  const auto it = tags.find(name);
  return it == tags.end() ? std::string{} : it->second;
}

const std::string kPodNameTag = "pod_name";
const std::string kNodeNameTag = "nodename";

}  // namespace

ClusterMetrics::ClusterMetrics(const tsdb::Database& db, Duration window)
    : db_(&db),
      window_(window),
      epc_inner_(tsdb::ql::PreparedQuery::prepare(
          inner_text("sgx/epc", "epc", window))),
      epc_outer_(tsdb::ql::PreparedQuery::prepare(
          outer_text("sgx/epc", "epc", window))),
      memory_inner_(tsdb::ql::PreparedQuery::prepare(
          inner_text("memory/usage", "usage", window))),
      memory_outer_(tsdb::ql::PreparedQuery::prepare(
          outer_text("memory/usage", "usage", window))) {}

tsdb::ql::ResultSet ClusterMetrics::run(const tsdb::ql::PreparedQuery& query,
                                        TimePoint now) const {
  tsdb::ql::ExecStats stats;
  tsdb::ql::ResultSet result = query.execute(*db_, now, &stats);
  last_stats_ = QueryDiagnostics{stats.series, stats.points};
  return result;
}

std::vector<ClusterMetrics::PodUsage> ClusterMetrics::per_pod(
    const tsdb::ql::PreparedQuery& query, TimePoint now) const {
  std::vector<PodUsage> usages;
  tsdb::ql::ExecStats stats;
  query.for_each_group(
      *db_, now,
      [&usages](const tsdb::Tags& tags, TimePoint, double value) {
        usages.push_back(PodUsage{tag_value(tags, kPodNameTag),
                                  tag_value(tags, kNodeNameTag),
                                  Bytes{static_cast<std::uint64_t>(value)}});
      },
      &stats);
  last_stats_ = QueryDiagnostics{stats.series, stats.points};
  return usages;
}

std::map<cluster::NodeName, Bytes> ClusterMetrics::per_node(
    const tsdb::ql::PreparedQuery& query, TimePoint now) const {
  const tsdb::ql::ResultSet result = run(query, now);
  const std::string& column = column_of(query);
  std::map<cluster::NodeName, Bytes> usage;
  for (const tsdb::ql::Row& row : result.rows) {
    const auto node_it = row.tags.find("nodename");
    const std::string node =
        node_it == row.tags.end() ? "" : node_it->second;
    usage[node] = Bytes{static_cast<std::uint64_t>(row.field(column))};
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
