#include "tsdb/ql/prepared.hpp"

#include "tsdb/ql/parser.hpp"

namespace sgxo::tsdb::ql {

PreparedQuery::PreparedQuery(std::string text, SelectStmt stmt)
    : text_(std::move(text)),
      stmt_(std::move(stmt)),
      analysis_(analyze(stmt_)) {}

PreparedQuery PreparedQuery::prepare(std::string text) {
  SelectStmt stmt = parse(text);
  return PreparedQuery{std::move(text), std::move(stmt)};
}

ResultSet PreparedQuery::execute(const Database& db, TimePoint now,
                                 ExecStats* stats) const {
  return ql::execute(stmt_, *analysis_, db, now, stats);
}

void PreparedQuery::for_each_group(const Database& db, TimePoint now,
                                   const GroupVisitor& visit,
                                   ExecStats* stats) const {
  ql::for_each_group(stmt_, *analysis_, db, now, visit, stats);
}

}  // namespace sgxo::tsdb::ql
