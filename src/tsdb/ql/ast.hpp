// AST for the InfluxQL subset: the grammar of the paper's Listing 1 and
// what the store's oracle tests read. One statement form:
//
//   SELECT <agg>(<field> | *) [AS alias] [, ...]
//   FROM <"measurement"> | ( <select> )
//   [WHERE <predicate> [AND <predicate>]...]
//   [GROUP BY <tag> [, <tag>]...]
//
// Aggregates: MAX, MIN, SUM, MEAN, COUNT, FIRST, LAST. Predicates:
// `<field> <op> <number>` and `time <op> now() [+/- duration]` (or an
// absolute microsecond literal), with op one of = <> < <= > >=.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace sgxo::tsdb::ql {

enum class Aggregate {
  kMax,
  kMin,
  kSum,
  kMean,
  kCount,
  kLast,
  kFirst,
};

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

/// `time <op> now() [+/- duration]` or `time <op> <micros>`.
struct TimePredicate {
  CompareOp op = CompareOp::kGte;
  bool relative_to_now = false;
  std::int64_t offset_us = 0;  // added to now() when relative, else absolute
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
};

}  // namespace sgxo::tsdb::ql
