#include "tsdb/ql/ast.hpp"

#include <algorithm>
#include <cctype>

namespace sgxo::tsdb::ql {

const char* to_string(Aggregate agg) {
  switch (agg) {
    case Aggregate::kMax: return "max";
    case Aggregate::kMin: return "min";
    case Aggregate::kSum: return "sum";
    case Aggregate::kMean: return "mean";
    case Aggregate::kCount: return "count";
    case Aggregate::kLast: return "last";
    case Aggregate::kFirst: return "first";
  }
  return "?";
}

std::optional<Aggregate> aggregate_from(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  std::transform(name.begin(), name.end(), std::back_inserter(lower),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "max") return Aggregate::kMax;
  if (lower == "min") return Aggregate::kMin;
  if (lower == "sum") return Aggregate::kSum;
  if (lower == "mean") return Aggregate::kMean;
  if (lower == "count") return Aggregate::kCount;
  if (lower == "last") return Aggregate::kLast;
  if (lower == "first") return Aggregate::kFirst;
  return std::nullopt;
}

const char* to_string(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNeq: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLte: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGte: return ">=";
  }
  return "?";
}

bool compare(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNeq: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLte: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGte: return lhs >= rhs;
  }
  return false;
}

}  // namespace sgxo::tsdb::ql
