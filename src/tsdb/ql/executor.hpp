// Executor for parsed InfluxQL-subset statements against a Database.
//
// Rows are the uniform exchange format between query stages: reading a
// measurement produces one row per point (fields = {"value": v}, tags from
// the series); executing a subquery produces one row per group with the
// projected fields. A WHERE clause filters rows; GROUP BY + projections
// aggregate them.
//
// Measurement scans fan out across the database's shards: each shard is
// folded into partial aggregates under its own lock (optionally on its own
// thread), and the partials are merged in shard order. Every aggregate is
// order-independent (count/sum additive, min/max lattice joins, first/last
// with lexicographic (time, value) tie-breaks, quantiles over a mergeable
// sketch), so the merged result is bit-identical to a 1-shard scan. Wide
// windows read precomputed rollup buckets instead of raw points when the
// statement qualifies (see DESIGN.md §12).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/ast.hpp"

namespace sgxo::tsdb::ql {

struct Row {
  Tags tags;
  TimePoint time;
  std::map<std::string, double> fields;

  [[nodiscard]] bool has_field(const std::string& name) const {
    return fields.find(name) != fields.end();
  }
  [[nodiscard]] double field(const std::string& name) const;
};

struct ResultSet {
  std::vector<Row> rows;

  /// Sum of the given field across rows (0 for empty/missing).
  [[nodiscard]] double sum(const std::string& field) const;
  /// Value of `field` in the row whose tags contain {tag = value};
  /// `fallback` when absent.
  [[nodiscard]] double value_for(const std::string& tag,
                                 const std::string& value,
                                 const std::string& field,
                                 double fallback = 0.0) const;
};

/// Named duration bindings for `$param` placeholders (`now() - $window`),
/// bound at execute time by prepared queries.
using QueryParams = std::map<std::string, Duration>;

/// Per-shard scan telemetry for one execute() call.
struct ShardScanStats {
  std::size_t series = 0;   // series read on this shard (cold ones skipped)
  std::size_t points = 0;   // raw points (or rollup buckets) folded
  double scan_us = 0.0;     // wall time of this shard's fold
  bool used_rollup = false;
};

/// Filled when ExecOptions::stats is set. `shards` is indexed by shard id
/// and accumulates over every measurement scan the statement performs
/// (subqueries included). The parallel-makespan model of a fan-out is
/// max(shards[i].scan_us) + merge_us; the serial cost is their sum.
struct ExecStats {
  std::vector<ShardScanStats> shards;
  double merge_us = 0.0;
  /// Rollup level used by the outermost qualifying scan (0 = raw).
  std::int64_t rollup_level_us = 0;
};

enum class ScanMode {
  kAuto,      // threads when hardware and data size justify them
  kSerial,    // one shard after another on the calling thread
  kParallel,  // force one task per shard (tests exercise the thread path)
};

struct QueryAnalysis;  // opaque; produced by analyze(), owned by callers

struct ExecOptions {
  ScanMode mode = ScanMode::kAuto;
  ExecStats* stats = nullptr;
  /// Statement analysis cached at prepare time (rollup eligibility per
  /// node). nullptr = analyze on the fly.
  const QueryAnalysis* analysis = nullptr;
};

/// Precomputes the per-node static plan (rollup eligibility, source kind)
/// for a statement tree. PreparedQuery caches this so per-execute planning
/// does no AST walking beyond parameter resolution.
[[nodiscard]] std::shared_ptr<const QueryAnalysis> analyze(
    const SelectStmt& stmt);

/// Runs `stmt` against `db`, with `now` supplying the now() anchor for
/// relative time predicates (the scheduler passes the virtual clock) and
/// `params` binding any named duration parameters the statement uses.
[[nodiscard]] ResultSet execute(const SelectStmt& stmt, const Database& db,
                                TimePoint now, const QueryParams& params = {});
[[nodiscard]] ResultSet execute(const SelectStmt& stmt, const Database& db,
                                TimePoint now, const QueryParams& params,
                                const ExecOptions& options);

/// Convenience: parse + execute — a thin wrapper over
/// PreparedQuery::prepare(text).execute(db, now). Callers on a hot path
/// should prepare once and execute per cycle instead.
[[nodiscard]] ResultSet query(const std::string& text, const Database& db,
                              TimePoint now);

}  // namespace sgxo::tsdb::ql
