#include "tsdb/ql/executor.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string_view>

#include "common/error.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb::ql {

double Row::field(const std::string& name) const {
  const auto it = fields.find(name);
  SGXO_CHECK_MSG(it != fields.end(), "missing field '" + name + "'");
  return it->second;
}

/// Per-statement static plan: everything about a node that does not depend
/// on now() or the database. Computed once by analyze() and cached by
/// PreparedQuery.
struct QueryAnalysis {
  /// The projection and every field predicate read "value", the one field
  /// measurement rows carry; otherwise a measurement scan of this node
  /// yields nothing.
  bool scan_fields_ok = true;
  /// The literals of the field predicates: a point whose value equals one
  /// is excluded.
  std::vector<double> excluded;
  /// The GROUP BY tags in group-key order: sorted, duplicates dropped, as
  /// tags_key renders a Tags map.
  std::vector<std::string> group_tags;
  std::unique_ptr<QueryAnalysis> sub;  // analysis of a subquery source
};

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();

/// The value of GROUP BY tag `name` in `tags`, "" when missing. `tag`
/// walks `tags` forward across calls for the GROUP BY tags in order, which
/// is sorted, like `tags`.
std::string_view next_value(const Tags& tags, Tags::const_iterator& tag,
                            const std::string& name) {
  while (tag != tags.end() && tag->first < name) ++tag;
  const bool present = tag != tags.end() && tag->first == name;
  return present ? std::string_view{tag->second} : std::string_view{};
}

/// The GROUP BY state of one statement: every group its fold creates.
///
/// A group is the tuple of its GROUP BY tag values, in `group_tags` order
/// (sorted and deduplicated, as tags_key renders them), read straight from
/// the tag set of the series or row that folds into it; a missing tag
/// reads as "", as tags_key renders it. A lookup hashes the values (open
/// addressing over group indices) and on a hash hit compares them with
/// those of the tag set that created the group, so two distinct tuples
/// never share a group and the fold renders no key. Groups stay in the
/// order the fold created them: for_each visits them so, and render()
/// renders each group's key once, to order its rows as a map keyed by
/// that key would. A group refers to the tag set that created it, which
/// must outlive the table.
class GroupTable {
 public:
  GroupTable(const Projection& projection,
             const std::vector<std::string>& group_tags)
      : agg_(projection.agg),
        alias_(&projection.alias),
        group_tags_(&group_tags) {}

  /// The group of the series or row with tag set `tags`, created on first
  /// sight with `tags` as the tag set it reports to for_each. Every caller
  /// folds a value into the group it gets.
  std::size_t find_or_insert(const Tags& tags) {
    std::size_t hash = 0;
    auto tag = tags.begin();
    for (const std::string& name : *group_tags_) {
      // boost::hash_combine's mix.
      hash ^= std::hash<std::string_view>{}(next_value(tags, tag, name)) +
              0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    }
    if (2 * (groups_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        slots_[i] = groups_.size() + 1;
        groups_.push_back(
            Group{hash, &tags, TimePoint::from_micros(kInt64Max)});
        return groups_.size() - 1;
      }
      const std::size_t group = slots_[i] - 1;
      if (groups_[group].hash == hash && same_values(tags, group)) {
        return group;
      }
    }
  }

  /// Folds value `v` at time `t` into `group`. The group's time is its
  /// oldest point or row. SUM adds from 0.0; MAX takes the first value,
  /// then std::max. Neither depends on the order values arrive in while
  /// the values and their partial sums are integers below 2^53, as every
  /// sample the system writes is.
  void add(std::size_t group, TimePoint t, double v) {
    Group& g = groups_[group];
    g.time = std::min(g.time, t);
    if (agg_ == Aggregate::kSum) {
      g.value += v;
    } else {
      g.value = g.seen ? std::max(g.value, v) : v;
    }
    g.seen = true;
  }

  /// Visits every group in creation order.
  void for_each(const GroupVisitor& visit) const {
    for (const Group& group : groups_) {
      visit(*group.tags, group.time, group.value);
    }
  }

  /// One row per group, in key order: each group's key (tags_key of its
  /// GROUP BY tags) is rendered once, here, and only to sort.
  [[nodiscard]] ResultSet render() const {
    std::vector<std::string> keys(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const Tags& tags = *groups_[g].tags;
      auto tag = tags.begin();
      for (const std::string& name : *group_tags_) {
        append_tag(keys[g], name, next_value(tags, tag, name));
      }
    }
    std::vector<std::size_t> order(groups_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return keys[a] < keys[b];
    });
    ResultSet result;
    result.rows.reserve(groups_.size());
    for (const std::size_t g : order) {
      const Group& group = groups_[g];
      Row row;
      row.fields.emplace(*alias_, group.value);
      auto tag = group.tags->begin();
      for (const std::string& name : *group_tags_) {
        row.tags.emplace_hint(row.tags.end(), name,
                              next_value(*group.tags, tag, name));
      }
      row.time = group.time;
      result.rows.push_back(std::move(row));
    }
    return result;
  }

 private:
  struct Group {
    std::size_t hash = 0;
    const Tags* tags = nullptr;  // of the series or row that created it
    TimePoint time;
    bool seen = false;  // a value was folded (MAX's first value)
    double value = 0.0;
  };

  /// True if `tags` has `group`'s GROUP BY tag values.
  [[nodiscard]] bool same_values(const Tags& tags, std::size_t group) const {
    const Tags& other = *groups_[group].tags;
    auto tag = tags.begin();
    auto other_tag = other.begin();
    for (const std::string& name : *group_tags_) {
      if (next_value(tags, tag, name) != next_value(other, other_tag, name)) {
        return false;
      }
    }
    return true;
  }

  /// Doubles the slots (16 at first) and re-places every group by its
  /// stored hash.
  void grow() {
    std::vector<std::size_t> slots(
        std::max<std::size_t>(16, 2 * slots_.size()));
    const std::size_t mask = slots.size() - 1;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      std::size_t i = groups_[g].hash & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = g + 1;
    }
    slots_ = std::move(slots);
  }

  Aggregate agg_;
  const std::string* alias_;
  const std::vector<std::string>* group_tags_;
  std::vector<Group> groups_;
  std::vector<std::size_t> slots_;  // group index + 1; 0 = empty
};

/// The start of the statement's window: the latest now() + offset among
/// its time predicates, INT64_MIN without one. now() plus an offset past
/// the start of the int64 clock saturates there.
std::int64_t window_start(const SelectStmt& stmt, TimePoint now) {
  std::int64_t lo = kInt64Min;
  for (const Predicate& predicate : stmt.where) {
    const auto* tp = std::get_if<TimePredicate>(&predicate);
    if (tp == nullptr) continue;
    std::int64_t bound = 0;
    if (__builtin_add_overflow(now.micros_since_epoch(), tp->offset_us,
                               &bound)) {
      bound = kInt64Min;  // offsets are <= 0
    }
    lo = std::max(lo, bound);
  }
  return lo;
}

/// Everything a measurement scan needs, resolved once before the first
/// shard is read.
struct ScanSpec {
  const std::string* measurement = nullptr;
  std::int64_t lo = kInt64Min;
  const QueryAnalysis* analysis = nullptr;
};

std::unique_ptr<QueryAnalysis> analyze_node(const SelectStmt& stmt) {
  auto analysis = std::make_unique<QueryAnalysis>();
  analysis->scan_fields_ok = stmt.projection.field == "value";
  for (const Predicate& predicate : stmt.where) {
    const auto* fp = std::get_if<FieldPredicate>(&predicate);
    if (fp == nullptr) continue;
    if (fp->field != "value") analysis->scan_fields_ok = false;
    analysis->excluded.push_back(fp->literal);
  }
  analysis->group_tags = stmt.group_by;
  std::sort(analysis->group_tags.begin(), analysis->group_tags.end());
  analysis->group_tags.erase(
      std::unique(analysis->group_tags.begin(), analysis->group_tags.end()),
      analysis->group_tags.end());
  if (const auto* sub =
          std::get_if<std::unique_ptr<SelectStmt>>(&stmt.source)) {
    analysis->sub = analyze_node(**sub);
  }
  return analysis;
}

/// Folds one shard of a measurement into `table`.
void scan_shard(const Database& db, const ScanSpec& spec, std::size_t shard,
                GroupTable& table, ExecStats* stats) {
  // A shard under a stale-read horizon shows no point newer than it.
  std::int64_t hi = kInt64Max;
  const std::optional<TimePoint> horizon = db.shard_read_horizon(shard);
  if (horizon.has_value()) hi = horizon->micros_since_epoch();
  if (spec.lo > hi) return;

  const Measurement* measurement =
      db.find_measurement(*spec.measurement, shard);
  if (measurement == nullptr) return;

  const QueryAnalysis& analysis = *spec.analysis;
  // The scan folds only points at or after lo, and no series holds a point
  // newer than its newest append: only the series appended to since lo
  // have anything to give.
  measurement->for_each_series_since(
      spec.lo, [&](const Series& series) {
        if (stats != nullptr) ++stats->series;
        // The group is a pure function of the series tags: look it up
        // once per series, at its first point that passes.
        std::size_t group = kNoGroup;

        series.for_each_in_window(spec.lo, hi, [&](const Point& p) {
          for (const double excluded : analysis.excluded) {
            if (p.value == excluded) return;
          }
          if (stats != nullptr) ++stats->points;
          if (group == kNoGroup) group = table.find_or_insert(series.tags());
          table.add(group, p.time, p.value);
        });
      });
}

/// Folds `stmt` into one group table and hands the table to `read` while
/// the tag sets its groups refer to still live: a measurement's series,
/// or the rows of a subquery source, which only this call holds.
template <typename Read>
void fold(const SelectStmt& stmt, const QueryAnalysis& analysis,
          const Database& db, TimePoint now, ExecStats* stats, Read&& read) {
  GroupTable table{stmt.projection, analysis.group_tags};
  if (const auto* measurement = std::get_if<std::string>(&stmt.source)) {
    // Every shard folds straight into one table, in shard order. A group's
    // aggregate does not depend on the order its points arrive in (see
    // GroupTable::add), so this is the 1-shard fold bit for bit.
    if (analysis.scan_fields_ok) {
      const ScanSpec spec{measurement, window_start(stmt, now), &analysis};
      for (std::size_t s = 0; s < db.shard_count(); ++s) {
        scan_shard(db, spec, s, table, stats);
      }
    }
    read(table);
    return;
  }

  // A subquery source: execute the inner statement, then filter and group
  // its output rows (few, one per inner group, so folding them centrally
  // costs nothing).
  const auto& sub = std::get<std::unique_ptr<SelectStmt>>(stmt.source);
  SGXO_CHECK(analysis.sub != nullptr);
  const std::vector<Row> rows =
      execute(*sub, *analysis.sub, db, now, stats).rows;
  const std::int64_t lo = window_start(stmt, now);
  const auto passes = [&](const Row& row) {
    if (row.time.micros_since_epoch() < lo) return false;
    for (const Predicate& predicate : stmt.where) {
      const auto* fp = std::get_if<FieldPredicate>(&predicate);
      if (fp == nullptr) continue;
      const auto it = row.fields.find(fp->field);
      if (it == row.fields.end() || it->second == fp->literal) return false;
    }
    return true;
  };
  for (const Row& row : rows) {
    const auto field = row.fields.find(stmt.projection.field);
    if (field == row.fields.end() || !passes(row)) continue;
    table.add(table.find_or_insert(row.tags), row.time, field->second);
  }
  read(table);
}

}  // namespace

std::shared_ptr<const QueryAnalysis> analyze(const SelectStmt& stmt) {
  return std::shared_ptr<const QueryAnalysis>{analyze_node(stmt).release()};
}

ResultSet execute(const SelectStmt& stmt, const QueryAnalysis& analysis,
                  const Database& db, TimePoint now, ExecStats* stats) {
  ResultSet result;
  fold(stmt, analysis, db, now, stats,
       [&result](const GroupTable& table) { result = table.render(); });
  return result;
}

void for_each_group(const SelectStmt& stmt, const QueryAnalysis& analysis,
                    const Database& db, TimePoint now,
                    const GroupVisitor& visit, ExecStats* stats) {
  fold(stmt, analysis, db, now, stats,
       [&visit](const GroupTable& table) { table.for_each(visit); });
}

ResultSet query(const std::string& text, const Database& db, TimePoint now) {
  return PreparedQuery::prepare(text).execute(db, now);
}

}  // namespace sgxo::tsdb::ql
