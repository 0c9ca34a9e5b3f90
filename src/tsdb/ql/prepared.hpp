// Prepared queries: parse once, execute many times.
//
// The scheduler runs the paper's Listing-1 sliding-window query every
// cycle; re-lexing and re-parsing the InfluxQL text each time puts string
// processing on the placement hot path. A PreparedQuery front-loads the
// parse into an AST held for the lifetime of the caller; execution binds
// only the now() anchor. Everything else, the window included, is written
// into the statement text.
//
// Prepare also front-loads the statement's static analysis (scan-field
// legality, excluded values and GROUP BY tag order per node) so execute
// does zero parse or plan work — it resolves the window start from now()
// and scans.
//
// Two reads share one fold. execute() returns the rows in key order; the
// fold-order read-out, for_each_group, visits the same groups in the
// order the fold created them, giving each group's creating tag set, time
// and value, and renders no key and builds no row. The scheduler's
// per-pod measurement (core::ClusterMetrics) reads the inner Listing-1
// statement that way.
//
// The one-shot ql::query(text, db, now) convenience is a thin wrapper
// over prepare + execute, so both paths share one executor and produce
// identical results by construction.
#pragma once

#include <memory>
#include <string>

#include "common/time.hpp"
#include "tsdb/ql/ast.hpp"
#include "tsdb/ql/executor.hpp"

namespace sgxo::tsdb::ql {

class PreparedQuery {
 public:
  /// Parses `text` once. Throws QueryError on malformed input.
  [[nodiscard]] static PreparedQuery prepare(std::string text);

  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  /// Runs the prepared statement. `now` anchors the time predicates.
  /// `stats`, when not null, counts the series and points scanned.
  [[nodiscard]] ResultSet execute(const Database& db, TimePoint now,
                                  ExecStats* stats = nullptr) const;

  /// Runs the prepared statement's fold and calls `visit` once per group,
  /// in fold order, with the tag set of the series (or subquery row) that
  /// created the group, the group's time and its value; the tag set is
  /// valid for the duration of the call. The groups and their values are
  /// execute()'s rows; only the order differs. `stats` as for execute().
  void for_each_group(const Database& db, TimePoint now,
                      const GroupVisitor& visit,
                      ExecStats* stats = nullptr) const;

  [[nodiscard]] const SelectStmt& stmt() const { return stmt_; }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  PreparedQuery(std::string text, SelectStmt stmt);

  std::string text_;
  SelectStmt stmt_;
  std::shared_ptr<const QueryAnalysis> analysis_;
};

}  // namespace sgxo::tsdb::ql
