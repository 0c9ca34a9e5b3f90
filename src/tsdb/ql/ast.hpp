// AST for the InfluxQL subset. One statement form:
//
//   SELECT <agg>(<field>) [AS alias] [, ...]
//   FROM <"measurement"> | ( <select> )
//   [WHERE <predicate> [AND <predicate>]...]
//   [GROUP BY <tag> [, <tag>]...]
//
// Predicates: `<field> <op> <number>` and `time <op> now() [- duration]`
// (or an absolute microsecond literal).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/time.hpp"

namespace sgxo::tsdb::ql {

enum class Aggregate {
  kMax,
  kMin,
  kSum,
  kMean,
  kCount,
  kLast,
  kFirst,
  // Quantiles over a deterministic mergeable log-bucket sketch.
  kP50,
  kP95,
  kP99,
};

/// True for the quantile aggregates (kP50/kP95/kP99).
[[nodiscard]] bool is_quantile(Aggregate agg);
/// The quantile rank (0.5/0.95/0.99); 0 for non-quantile aggregates.
[[nodiscard]] double quantile_rank(Aggregate agg);

[[nodiscard]] const char* to_string(Aggregate agg);
/// Case-insensitive lookup; nullopt for unknown names.
[[nodiscard]] std::optional<Aggregate> aggregate_from(const std::string& name);

enum class CompareOp { kEq, kNeq, kLt, kLte, kGt, kGte };

[[nodiscard]] const char* to_string(CompareOp op);
[[nodiscard]] bool compare(double lhs, CompareOp op, double rhs);

/// One projected column: agg(field) AS alias.
struct Projection {
  Aggregate agg = Aggregate::kMax;
  std::string field;   // field name in the source rows ("value", "epc", ...)
  std::string alias;   // output field name (defaults to agg name lowercased)
};

/// `field <op> number` — e.g. `value <> 0`.
struct FieldPredicate {
  std::string field;
  CompareOp op = CompareOp::kEq;
  double literal = 0.0;
};

/// `time <op> now() [+/- duration]` or `time <op> <micros>`. The duration
/// may also be a named parameter (`now() - $window`) bound at execute
/// time — the prepared-query path the scheduler hot loop uses.
struct TimePredicate {
  CompareOp op = CompareOp::kGte;
  bool relative_to_now = false;
  std::int64_t offset_us = 0;  // added to now() when relative, else absolute
  /// Non-empty = the offset is `sign * params[param]` instead of
  /// offset_us; executing without a binding is a QueryError.
  std::string param;
  int param_sign = 1;
};

using Predicate = std::variant<FieldPredicate, TimePredicate>;

struct SelectStmt;

/// FROM target: a measurement by name or a parenthesised subquery.
using Source = std::variant<std::string, std::unique_ptr<SelectStmt>>;

struct SelectStmt {
  std::vector<Projection> projections;
  Source source;
  std::vector<Predicate> where;   // conjunction
  std::vector<std::string> group_by;
  /// GROUP BY time(<interval>): non-zero buckets rows into fixed windows
  /// aligned to the epoch, one output row per (tag group, window). The
  /// row's time is the window start.
  Duration group_by_time{};
  /// LIMIT n (0 = unlimited) and OFFSET m over the output rows, applied
  /// after grouping in the deterministic (tags, time) result order.
  std::size_t limit = 0;
  std::size_t offset = 0;
};

}  // namespace sgxo::tsdb::ql
