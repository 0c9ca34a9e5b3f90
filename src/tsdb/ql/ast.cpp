#include "tsdb/ql/ast.hpp"

#include <algorithm>
#include <cctype>

namespace sgxo::tsdb::ql {

const char* to_string(Aggregate agg) {
  switch (agg) {
    case Aggregate::kMax: return "max";
    case Aggregate::kSum: return "sum";
  }
  return "?";
}

std::optional<Aggregate> aggregate_from(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  std::transform(name.begin(), name.end(), std::back_inserter(lower),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "max") return Aggregate::kMax;
  if (lower == "sum") return Aggregate::kSum;
  return std::nullopt;
}

}  // namespace sgxo::tsdb::ql
