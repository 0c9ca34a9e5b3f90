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
// rows fold into one of their own. A group is the tuple of its GROUP BY
// tag values, hashed straight from the tags of the series or row and
// compared on a hash hit; the fold renders no key. Two reads share that
// fold: for_each_group visits the groups in the order the fold created
// them, and execute() renders each group's key once to sort them and
// builds the rows, in key order. Neither aggregate depends on the order
// its values arrive in (max is a lattice join, sum exact on the
// integer-valued samples the system writes), so the result is
// bit-identical to a 1-shard scan (see DESIGN.md §12).
#pragma once

#include <functional>
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

  [[nodiscard]] double field(const std::string& name) const;
};

struct ResultSet {
  std::vector<Row> rows;
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
/// the series and points scanned. One row per group, in the order of the
/// groups' keys (tags_key of their GROUP BY tags). PreparedQuery is the
/// caller.
[[nodiscard]] ResultSet execute(const SelectStmt& stmt,
                                const QueryAnalysis& analysis,
                                const Database& db, TimePoint now,
                                ExecStats* stats);

/// One group of the fold-order read-out: the tag set of the series or
/// subquery row that created the group, the group's time (its oldest point
/// or row) and its aggregate value. The tag set is valid for the duration
/// of the call.
using GroupVisitor =
    std::function<void(const Tags& tags, TimePoint time, double value)>;

/// Runs the fold execute() runs and calls `visit` once per group, in the
/// order the fold created the groups, without rendering a key or building
/// a row. Grouping and values are execute()'s; only the order differs.
/// `stats` counts as for execute(). PreparedQuery is the caller.
void for_each_group(const SelectStmt& stmt, const QueryAnalysis& analysis,
                    const Database& db, TimePoint now,
                    const GroupVisitor& visit, ExecStats* stats);

/// Convenience: parse + execute — a thin wrapper over
/// PreparedQuery::prepare(text).execute(db, now). Callers on a hot path
/// should prepare once and execute per cycle instead.
[[nodiscard]] ResultSet query(const std::string& text, const Database& db,
                              TimePoint now);

}  // namespace sgxo::tsdb::ql
