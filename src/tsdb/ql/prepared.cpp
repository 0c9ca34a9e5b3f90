#include "tsdb/ql/prepared.hpp"

#include <algorithm>

#include "tsdb/ql/parser.hpp"

namespace sgxo::tsdb::ql {

namespace {

void collect_params(const SelectStmt& stmt, std::vector<std::string>& out) {
  for (const Predicate& predicate : stmt.where) {
    const auto* tp = std::get_if<TimePredicate>(&predicate);
    if (tp == nullptr || tp->param.empty()) continue;
    if (std::find(out.begin(), out.end(), tp->param) == out.end()) {
      out.push_back(tp->param);
    }
  }
  if (const auto* sub =
          std::get_if<std::unique_ptr<SelectStmt>>(&stmt.source)) {
    collect_params(**sub, out);
  }
}

}  // namespace

PreparedQuery::PreparedQuery(std::string text, SelectStmt stmt)
    : text_(std::move(text)), stmt_(std::move(stmt)) {
  collect_params(stmt_, params_);
  analysis_ = analyze(stmt_);
}

PreparedQuery PreparedQuery::prepare(std::string text) {
  SelectStmt stmt = parse(text);
  return PreparedQuery{std::move(text), std::move(stmt)};
}

ResultSet PreparedQuery::execute(const Database& db, TimePoint now,
                                 const QueryParams& params,
                                 ExecStats* stats) const {
  for (const std::string& name : params_) {
    if (params.find(name) == params.end()) {
      throw QueryError{"unbound query parameter '$" + name + "'"};
    }
  }
  return ql::execute(stmt_, *analysis_, db, now, params, stats);
}

}  // namespace sgxo::tsdb::ql
