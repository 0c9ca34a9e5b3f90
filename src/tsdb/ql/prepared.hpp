// Prepared queries: parse once, execute many times.
//
// The scheduler runs the paper's Listing-1 sliding-window query every
// cycle; re-lexing and re-parsing the InfluxQL text each time puts string
// processing on the placement hot path. A PreparedQuery front-loads the
// parse into an AST held for the lifetime of the caller; execution only
// binds the now() anchor and any named duration parameters ($window).
//
// Prepare also front-loads the statement's static analysis (scan-field
// legality and GROUP BY tag order per node) so execute does zero parse or
// plan work — it binds parameters, resolves window bounds, and scans.
//
// The one-shot ql::query(text, db, now) convenience is a thin wrapper
// over prepare + execute, so both paths share one executor and produce
// identical results by construction.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

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

  /// Runs the prepared statement. `now` anchors relative time predicates;
  /// `params` must bind every `$param` the statement names (a missing
  /// binding is a QueryError, surfaced before any rows are read).
  [[nodiscard]] ResultSet execute(const Database& db, TimePoint now,
                                  const QueryParams& params = {}) const;
  /// As above, with executor options (scan stats). The cached analysis
  /// always rides along; `options.analysis` is ignored.
  [[nodiscard]] ResultSet execute(const Database& db, TimePoint now,
                                  const QueryParams& params,
                                  const ExecOptions& options) const;

  [[nodiscard]] const SelectStmt& stmt() const { return stmt_; }
  [[nodiscard]] const std::string& text() const { return text_; }
  /// Parameter names the statement references, in first-use order.
  [[nodiscard]] const std::vector<std::string>& parameters() const {
    return params_;
  }

 private:
  PreparedQuery(std::string text, SelectStmt stmt);

  std::string text_;
  SelectStmt stmt_;
  std::vector<std::string> params_;
  std::shared_ptr<const QueryAnalysis> analysis_;
};

}  // namespace sgxo::tsdb::ql
