// The scheduler's sliding-window view of cluster metrics (paper §V-C).
//
// All reads go through the InfluxQL engine, exactly as the real system
// queries InfluxDB — including the paper's Listing 1 verbatim for per-node
// EPC usage. The window (25 s in Listing 1) is the caller's; the cluster
// configuration holds its default (exp::ClusterConfig::metrics_window).
//
// The Listing-1 inner/outer statements are built and *prepared once* per
// measurement at construction, with the window written into their text,
// and re-executed every scheduling cycle with only now() bound — no
// string building, lexing or parsing on the scheduler hot path. The
// per-pod reads go further: they take the inner statement's groups
// through the fold-order read-out (PreparedQuery::for_each_group) and
// copy each group's pod and node names into a PodUsage, so no group key
// is rendered, sorted or turned into a row.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/pod.hpp"
#include "cluster/resources.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::core {

class ClusterMetrics {
 public:
  /// `window` must be a whole number of seconds, at least 1 s, so that
  /// the statements' `now() - <n>s` renders it exactly.
  explicit ClusterMetrics(const tsdb::Database& db, Duration window);

  [[nodiscard]] Duration window() const { return window_; }

  struct PodUsage {
    cluster::PodName pod;
    cluster::NodeName node;
    Bytes usage{};
  };

  /// Per-pod EPC usage over the window: the inner query of Listing 1
  /// (MAX(value) per pod_name, nodename with value <> 0), one entry per
  /// row of that statement, in the order its fold created the groups (not
  /// the rows' key order); a missing tag reads as "".
  [[nodiscard]] std::vector<PodUsage> epc_per_pod(TimePoint now) const;

  /// Per-node EPC usage over the window — the paper's Listing 1, run
  /// verbatim through the query engine:
  ///   SELECT SUM(epc) AS epc FROM
  ///     (SELECT MAX(value) AS epc FROM "sgx/epc"
  ///      WHERE value <> 0 AND time >= now() - <window>
  ///      GROUP BY pod_name, nodename)
  ///   GROUP BY nodename
  [[nodiscard]] std::map<cluster::NodeName, Bytes> epc_per_node(
      TimePoint now) const;

  /// The equivalent queries over Heapster's standard-memory measurement.
  [[nodiscard]] std::vector<PodUsage> memory_per_pod(TimePoint now) const;
  [[nodiscard]] std::map<cluster::NodeName, Bytes> memory_per_node(
      TimePoint now) const;

  /// The exact Listing-1 text executed by epc_per_node (for inspection).
  [[nodiscard]] const std::string& listing1_query() const {
    return epc_outer_.text();
  }

  /// Age of the newest visible sample across both monitored measurements
  /// (EPC + standard memory); nullopt while the pipeline has produced no
  /// sample at all. The scheduler compares this against its staleness
  /// threshold to decide when to stop trusting measurements.
  [[nodiscard]] std::optional<Duration> staleness(TimePoint now) const;

  /// Telemetry of the most recent query this view executed: how many
  /// series it read and how many points it folded. `series_scanned`
  /// counts series read, not series visited: a series whose newest sample
  /// predates the window is skipped unread and not counted, so the count
  /// tracks the series live in the window.
  struct QueryDiagnostics {
    std::size_t series_scanned = 0;
    std::size_t points_scanned = 0;
    /// Always 0: the store keeps no rollups. perfbench/e2e_replay.cpp
    /// still reads it for its `tsdb.rollup_queries` count.
    std::int64_t rollup_level_us = 0;
  };
  [[nodiscard]] const QueryDiagnostics& last_query_stats() const {
    return last_stats_;
  }

 private:
  [[nodiscard]] std::vector<PodUsage> per_pod(
      const tsdb::ql::PreparedQuery& query, TimePoint now) const;
  [[nodiscard]] std::map<cluster::NodeName, Bytes> per_node(
      const tsdb::ql::PreparedQuery& query, TimePoint now) const;

  [[nodiscard]] tsdb::ql::ResultSet run(const tsdb::ql::PreparedQuery& query,
                                        TimePoint now) const;

  const tsdb::Database* db_;
  Duration window_;
  tsdb::ql::PreparedQuery epc_inner_;
  tsdb::ql::PreparedQuery epc_outer_;
  tsdb::ql::PreparedQuery memory_inner_;
  tsdb::ql::PreparedQuery memory_outer_;
  mutable QueryDiagnostics last_stats_;
};

}  // namespace sgxo::core
