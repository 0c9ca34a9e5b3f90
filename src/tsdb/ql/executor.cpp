#include "tsdb/ql/executor.hpp"

#include <algorithm>
#include <functional>
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

double ResultSet::sum(const std::string& field) const {
  double total = 0.0;
  for (const Row& row : rows) {
    const auto it = row.fields.find(field);
    if (it != row.fields.end()) total += it->second;
  }
  return total;
}

double ResultSet::value_for(const std::string& tag, const std::string& value,
                            const std::string& field, double fallback) const {
  for (const Row& row : rows) {
    const auto tag_it = row.tags.find(tag);
    if (tag_it == row.tags.end() || tag_it->second != value) continue;
    const auto field_it = row.fields.find(field);
    if (field_it != row.fields.end()) return field_it->second;
  }
  return fallback;
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

/// Renders the group key of a series or row with tag set `tags` into
/// `key`: tags_key of its GROUP BY tags, `group_tags` being sorted and
/// deduplicated as tags_key renders them, a missing tag reading as "".
/// Reuses the key's capacity.
void render_group_key(const Tags& tags,
                      const std::vector<std::string>& group_tags,
                      std::string& key) {
  key.clear();
  auto tag = tags.begin();
  for (const std::string& name : group_tags) {
    while (tag != tags.end() && tag->first < name) ++tag;
    const bool present = tag != tags.end() && tag->first == name;
    append_tag(key, name, present ? std::string_view{tag->second} : "");
  }
}

/// The GROUP BY state of one statement: every group its fold creates.
///
/// A group is identified by its key, the tags_key of its GROUP BY tags.
/// tags_key escapes its separators, so two distinct tag tuples never share
/// a group; render() orders rows by key.
/// A caller renders each key into a buffer of its own and looks it up by
/// hash (open addressing over group indices). Key bytes live in one arena
/// that a group refers to by offset, so growing it moves no group. A
/// group's tags are built at render from the tag set of the series or row
/// that created it, which must outlive the table.
class GroupTable {
 public:
  GroupTable(const Projection& projection,
             const std::vector<std::string>& group_tags)
      : agg_(projection.agg),
        alias_(&projection.alias),
        group_tags_(&group_tags) {}

  /// The group with key `key`, created on first sight with `tags` as the
  /// tag set its row reports. Every caller folds a value into the group
  /// it gets.
  std::size_t find_or_insert(std::string_view key, const Tags& tags) {
    const std::size_t hash = std::hash<std::string_view>{}(key);
    if (2 * (groups_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        slots_[i] = groups_.size() + 1;
        groups_.push_back(Group{hash, arena_.size(), key.size(), &tags,
                                TimePoint::from_micros(kInt64Max)});
        arena_.append(key);
        return groups_.size() - 1;
      }
      const std::size_t group = slots_[i] - 1;
      if (groups_[group].hash == hash && key_of(group) == key) return group;
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

  /// One row per group, in key order.
  [[nodiscard]] ResultSet render() const {
    std::vector<std::size_t> order(groups_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return key_of(a) < key_of(b);
    });
    ResultSet result;
    result.rows.reserve(groups_.size());
    for (const std::size_t g : order) {
      const Group& group = groups_[g];
      Row row;
      row.fields.emplace(*alias_, group.value);
      for (const std::string& name : *group_tags_) {
        const auto tag = group.tags->find(name);
        row.tags.emplace_hint(row.tags.end(), name,
                              tag == group.tags->end() ? "" : tag->second);
      }
      row.time = group.time;
      result.rows.push_back(std::move(row));
    }
    return result;
  }

 private:
  struct Group {
    std::size_t hash = 0;
    std::size_t key_offset = 0;  // into arena_
    std::size_t key_size = 0;
    const Tags* tags = nullptr;
    TimePoint time;
    bool seen = false;  // a value was folded (MAX's first value)
    double value = 0.0;
  };

  [[nodiscard]] std::string_view key_of(std::size_t group) const {
    return std::string_view{arena_}.substr(groups_[group].key_offset,
                                           groups_[group].key_size);
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
  std::string arena_;               // every group's key, back to back
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

/// Folds one shard of a measurement into `table`, rendering each group
/// key into `key`, a buffer reused across series and shards.
void scan_shard(const Database& db, const ScanSpec& spec, std::size_t shard,
                GroupTable& table, std::string& key, ExecStats* stats) {
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
        // The group key is a pure function of the series tags: render it
        // once per series.
        const Tags& tags = series.tags();
        render_group_key(tags, analysis.group_tags, key);
        std::size_t group = kNoGroup;

        series.for_each_in_window(spec.lo, hi, [&](const Point& p) {
          for (const double excluded : analysis.excluded) {
            if (p.value == excluded) return;
          }
          if (stats != nullptr) ++stats->points;
          if (group == kNoGroup) group = table.find_or_insert(key, tags);
          table.add(group, p.time, p.value);
        });
      });
}

/// Scan path for `FROM "measurement"`.
ResultSet exec_scan(const SelectStmt& stmt, const std::string& measurement,
                    const Database& db, TimePoint now, ExecStats* stats,
                    const QueryAnalysis& analysis) {
  const ScanSpec spec{&measurement, window_start(stmt, now), &analysis};

  // Every shard folds straight into one table, in shard order. A group's
  // aggregate does not depend on the order its points arrive in (see
  // GroupTable::add), so this is the 1-shard fold bit for bit.
  GroupTable table{stmt.projection, analysis.group_tags};
  if (analysis.scan_fields_ok) {
    std::string key;
    for (std::size_t s = 0; s < db.shard_count(); ++s) {
      scan_shard(db, spec, s, table, key, stats);
    }
  }
  return table.render();
}

/// Row-at-a-time path for subquery sources: execute the inner statement,
/// then filter and group its output rows into the same kind of table
/// (inner rows are few, one per group, so scanning them centrally costs
/// nothing).
ResultSet exec_rows(const SelectStmt& stmt, const Database& db, TimePoint now,
                    ExecStats* stats, const QueryAnalysis& analysis) {
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

  // The table reads a group's tags from the row that created it, so it
  // must not outlive `rows`.
  GroupTable table{stmt.projection, analysis.group_tags};
  std::string key;
  for (const Row& row : rows) {
    const auto field = row.fields.find(stmt.projection.field);
    if (field == row.fields.end() || !passes(row)) continue;
    render_group_key(row.tags, analysis.group_tags, key);
    table.add(table.find_or_insert(key, row.tags), row.time, field->second);
  }
  return table.render();
}

}  // namespace

std::shared_ptr<const QueryAnalysis> analyze(const SelectStmt& stmt) {
  return std::shared_ptr<const QueryAnalysis>{analyze_node(stmt).release()};
}

ResultSet execute(const SelectStmt& stmt, const QueryAnalysis& analysis,
                  const Database& db, TimePoint now, ExecStats* stats) {
  if (const auto* name = std::get_if<std::string>(&stmt.source)) {
    return exec_scan(stmt, *name, db, now, stats, analysis);
  }
  return exec_rows(stmt, db, now, stats, analysis);
}

ResultSet query(const std::string& text, const Database& db, TimePoint now) {
  return PreparedQuery::prepare(text).execute(db, now);
}

}  // namespace sgxo::tsdb::ql
