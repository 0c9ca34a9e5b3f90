// Test-only readers of query results: the sum of a field over a result
// set, the field of the row with a given tag value, and whether a row
// carries a field. Only tests read results this way; the system reads
// rows by field (Row::field) or takes groups from the fold-order read-out.
#pragma once

#include <string>

#include "tsdb/ql/executor.hpp"

namespace sgxo::tsdb::ql {

/// Sum of `field` across the rows (0 for empty/missing).
inline double sum(const ResultSet& result, const std::string& field) {
  double total = 0.0;
  for (const Row& row : result.rows) {
    const auto it = row.fields.find(field);
    if (it != row.fields.end()) total += it->second;
  }
  return total;
}

/// Value of `field` in the row whose tags contain {tag = value};
/// `fallback` when absent.
inline double value_for(const ResultSet& result, const std::string& tag,
                        const std::string& value, const std::string& field,
                        double fallback = 0.0) {
  for (const Row& row : result.rows) {
    const auto tag_it = row.tags.find(tag);
    if (tag_it == row.tags.end() || tag_it->second != value) continue;
    const auto field_it = row.fields.find(field);
    if (field_it != row.fields.end()) return field_it->second;
  }
  return fallback;
}

inline bool has_field(const Row& row, const std::string& name) {
  return row.fields.find(name) != row.fields.end();
}

}  // namespace sgxo::tsdb::ql
