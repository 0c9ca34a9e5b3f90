// Executor for parsed InfluxQL-subset statements against a Database.
//
// Rows are the uniform exchange format between query stages: reading a
// measurement produces one row per point (fields = {"value": v}, tags from
// the series); executing a subquery produces one row per group with the
// projected field. A WHERE clause filters rows; GROUP BY and the
// projection's MAX or SUM aggregate them.
//
// A statement folds into one group table: a measurement scan folds the
// database's shards one after another straight into it, and a subquery's
// rows fold into one of their own. A group is its rendered key (tags_key
// of its GROUP BY tags), looked up by hash; tags and rows are built only
// at render, in key order. Neither aggregate depends on the order its
// values arrive in (max is a lattice join, sum exact on the
// integer-valued samples the system writes), so the result is
// bit-identical to a 1-shard scan (see DESIGN.md §12).
#pragma once

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

/// Scan telemetry, filled when execute() is given one. It accumulates
/// over every shard and every measurement scan the statement performs
/// (subqueries included).
struct ExecStats {
  std::size_t series = 0;  // series read (cold ones skipped)
  std::size_t points = 0;  // points folded
};

struct QueryAnalysis;  // opaque; produced by analyze(), owned by callers

/// Precomputes the per-node static plan (scan-field legality, excluded
/// values, GROUP BY tag order) for a statement tree. PreparedQuery caches
/// this so per-execute planning does no AST walking beyond resolving the
/// window start.
[[nodiscard]] std::shared_ptr<const QueryAnalysis> analyze(
    const SelectStmt& stmt);

/// Runs `stmt`, whose plan `analysis` is analyze(stmt), against `db`, with
/// `now` supplying the now() anchor for time predicates (the scheduler
/// passes the virtual clock). `stats`, when not null, counts
/// the series and points scanned. PreparedQuery is the caller.
[[nodiscard]] ResultSet execute(const SelectStmt& stmt,
                                const QueryAnalysis& analysis,
                                const Database& db, TimePoint now,
                                ExecStats* stats);

/// Convenience: parse + execute — a thin wrapper over
/// PreparedQuery::prepare(text).execute(db, now). Callers on a hot path
/// should prepare once and execute per cycle instead.
[[nodiscard]] ResultSet query(const std::string& text, const Database& db,
                              TimePoint now);

}  // namespace sgxo::tsdb::ql
