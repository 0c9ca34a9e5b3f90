// AST for the InfluxQL subset: exactly the grammar of the paper's
// Listing 1. One statement form:
//
//   SELECT MAX|SUM(<field>) [AS alias]
//   FROM <"measurement"> | ( <select> )
//   [WHERE <predicate> [AND <predicate>]...]
//   [GROUP BY <tag> [, <tag>]...]
//
// Predicates: `<field> <> <number>` and `time >= now() [- duration]`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace sgxo::tsdb::ql {

enum class Aggregate { kMax, kSum };

[[nodiscard]] const char* to_string(Aggregate agg);
/// Case-insensitive lookup; nullopt for unknown names.
[[nodiscard]] std::optional<Aggregate> aggregate_from(const std::string& name);

/// The projected column: agg(field) AS alias.
struct Projection {
  Aggregate agg = Aggregate::kMax;
  std::string field;   // field name in the source rows ("value", "epc", ...)
  std::string alias;   // output field name (defaults to agg name lowercased)
};

/// `field <> literal`, e.g. `value <> 0`.
struct FieldPredicate {
  std::string field;
  double literal = 0.0;
};

/// `time >= now() + offset_us`, with offset_us <= 0.
struct TimePredicate {
  std::int64_t offset_us = 0;
};

using Predicate = std::variant<FieldPredicate, TimePredicate>;

struct SelectStmt;

/// FROM target: a measurement by name or a parenthesised subquery.
using Source = std::variant<std::string, std::unique_ptr<SelectStmt>>;

struct SelectStmt {
  Projection projection;
  Source source;
  std::vector<Predicate> where;   // conjunction
  std::vector<std::string> group_by;
};

}  // namespace sgxo::tsdb::ql
