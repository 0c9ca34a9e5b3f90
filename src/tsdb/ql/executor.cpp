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
  /// A field predicate names a field measurement rows never carry, so a
  /// measurement scan of this node yields nothing.
  bool scan_fields_ok = true;
  /// The GROUP BY tags in group-key order: sorted, duplicates dropped, as
  /// tags_key renders a Tags map.
  std::vector<std::string> group_tags;
  /// The projections a measurement scan feeds: those over "value", the
  /// one field measurement rows carry.
  std::vector<std::size_t> value_projections;
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

/// Aggregation state for one (group, projection) cell. count, min, max,
/// first and last do not depend on the order values arrive in; sum and
/// mean are exact, and so order-independent, while the values and their
/// partial sums are integers below 2^53, as every sample the system
/// writes is.
class Accumulator {
 public:
  explicit Accumulator(Aggregate agg) : agg_(agg) {}

  void add(double v, TimePoint t) {
    ++count_;
    sum_ += v;
    if (count_ == 1) {
      min_ = max_ = v;
      first_ = last_ = v;
      first_time_ = last_time_ = t;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
      // Lexicographic (time, value) tie-breaks keep first/last independent
      // of arrival and fold order.
      if (t < first_time_ || (t == first_time_ && v < first_)) {
        first_time_ = t;
        first_ = v;
      }
      if (t > last_time_ || (t == last_time_ && v > last_)) {
        last_time_ = t;
        last_ = v;
      }
    }
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] double result() const {
    switch (agg_) {
      case Aggregate::kMax: return max_;
      case Aggregate::kMin: return min_;
      case Aggregate::kSum: return sum_;
      case Aggregate::kMean:
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
      case Aggregate::kCount: return static_cast<double>(count_);
      case Aggregate::kLast: return last_;
      case Aggregate::kFirst: return first_;
    }
    return 0.0;
  }

 private:
  Aggregate agg_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double first_ = 0.0;
  double last_ = 0.0;
  TimePoint first_time_;
  TimePoint last_time_;
};

/// The GROUP BY state of one statement: every group its fold creates.
///
/// A group is identified by its key, the tags_key of its GROUP BY tags.
/// tags_key escapes its separators, so two distinct tag tuples never share
/// a group; render() orders rows by key.
/// A caller renders each key into a buffer of its own and looks it up by
/// hash (open addressing over group indices). Key bytes live in one arena
/// and cells, one Accumulator per projection, in one flat vector; a group
/// refers to both by offset, so neither growing moves a group. A group's
/// tags are built at render from the tag set of the series or row that
/// created it, which must outlive the table.
class GroupTable {
 public:
  GroupTable(const SelectStmt& stmt,
             const std::vector<std::string>& group_tags)
      : stmt_(&stmt), group_tags_(&group_tags) {}

  /// The group with key `key`, created on first sight with `tags` as the
  /// tag set its row reports.
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
        for (const Projection& proj : stmt_->projections) {
          cells_.emplace_back(proj.agg);
        }
        return groups_.size() - 1;
      }
      const std::size_t group = slots_[i] - 1;
      if (groups_[group].hash == hash && key_of(group) == key) return group;
    }
  }

  /// The group's time: its oldest point or row.
  TimePoint& time(std::size_t group) { return groups_[group].time; }

  Accumulator& cell(std::size_t group, std::size_t projection) {
    return cells_[group * stmt_->projections.size() + projection];
  }

  /// One row per group with a non-empty cell, in key order.
  [[nodiscard]] ResultSet render() const {
    std::vector<std::size_t> order(groups_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return key_of(a) < key_of(b);
    });
    const std::vector<Projection>& projections = stmt_->projections;
    ResultSet result;
    result.rows.reserve(groups_.size());
    for (const std::size_t g : order) {
      Row row;
      for (std::size_t c = 0; c < projections.size(); ++c) {
        const Accumulator& cell = cells_[g * projections.size() + c];
        if (!cell.empty()) {
          row.fields.emplace(projections[c].alias, cell.result());
        }
      }
      if (row.fields.empty()) continue;  // no projection saw a value
      const Group& group = groups_[g];
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

  const SelectStmt* stmt_;
  const std::vector<std::string>* group_tags_;
  std::vector<Group> groups_;
  std::vector<std::size_t> slots_;  // group index + 1; 0 = empty
  std::string arena_;               // every group's key, back to back
  std::vector<Accumulator> cells_;  // projections.size() per group
};

/// The instant a time predicate compares against. now() plus an offset
/// past either end of the int64 clock saturates at that end.
std::int64_t time_bound_us(const TimePredicate& tp, TimePoint now) {
  if (!tp.relative_to_now) return tp.offset_us;
  std::int64_t bound = 0;
  if (__builtin_add_overflow(now.micros_since_epoch(), tp.offset_us, &bound)) {
    return tp.offset_us > 0 ? kInt64Max : kInt64Min;
  }
  return bound;
}

bool row_matches(const Row& row, const Predicate& predicate, TimePoint now) {
  if (const auto* fp = std::get_if<FieldPredicate>(&predicate)) {
    const auto it = row.fields.find(fp->field);
    if (it == row.fields.end()) return false;
    return compare(it->second, fp->op, fp->literal);
  }
  const auto& tp = std::get<TimePredicate>(predicate);
  return compare(static_cast<double>(row.time.micros_since_epoch()), tp.op,
                 static_cast<double>(time_bound_us(tp, now)));
}

/// Everything a measurement scan needs, resolved once before the first
/// shard is read: integer window bounds from the time predicates and the
/// residual per-point predicates.
struct ScanSpec {
  const std::string* measurement = nullptr;
  std::int64_t lo = kInt64Min;
  std::int64_t hi = kInt64Max;
  std::vector<double> neq_times;          // time <> X, compared as doubles
  std::vector<const FieldPredicate*> value_preds;
  const QueryAnalysis* analysis = nullptr;
};

bool scan_fields_ok(const SelectStmt& stmt) {
  for (const Predicate& predicate : stmt.where) {
    const auto* fp = std::get_if<FieldPredicate>(&predicate);
    if (fp != nullptr && fp->field != "value") return false;
  }
  return true;
}

std::unique_ptr<QueryAnalysis> analyze_node(const SelectStmt& stmt) {
  auto analysis = std::make_unique<QueryAnalysis>();
  analysis->scan_fields_ok = scan_fields_ok(stmt);
  analysis->group_tags = stmt.group_by;
  std::sort(analysis->group_tags.begin(), analysis->group_tags.end());
  analysis->group_tags.erase(
      std::unique(analysis->group_tags.begin(), analysis->group_tags.end()),
      analysis->group_tags.end());
  for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
    if (stmt.projections[c].field == "value") {
      analysis->value_projections.push_back(c);
    }
  }
  if (const auto* sub =
          std::get_if<std::unique_ptr<SelectStmt>>(&stmt.source)) {
    analysis->sub = analyze_node(**sub);
  }
  return analysis;
}

ScanSpec resolve_scan(const SelectStmt& stmt, const std::string& measurement,
                      TimePoint now, const QueryAnalysis& analysis) {
  ScanSpec spec;
  spec.measurement = &measurement;
  spec.analysis = &analysis;

  for (const Predicate& predicate : stmt.where) {
    if (const auto* fp = std::get_if<FieldPredicate>(&predicate)) {
      if (fp->field == "value") spec.value_preds.push_back(fp);
      continue;  // non-"value" fields already folded into scan_fields_ok
    }
    const auto& tp = std::get<TimePredicate>(predicate);
    const std::int64_t bound = time_bound_us(tp, now);
    switch (tp.op) {
      case CompareOp::kGte: spec.lo = std::max(spec.lo, bound); break;
      case CompareOp::kGt:
        spec.lo = std::max(spec.lo,
                           bound == kInt64Max ? bound : bound + 1);
        break;
      case CompareOp::kLte: spec.hi = std::min(spec.hi, bound); break;
      case CompareOp::kLt:
        spec.hi = std::min(spec.hi,
                           bound == kInt64Min ? bound : bound - 1);
        break;
      case CompareOp::kEq:
        spec.lo = std::max(spec.lo, bound);
        spec.hi = std::min(spec.hi, bound);
        break;
      case CompareOp::kNeq:
        spec.neq_times.push_back(static_cast<double>(bound));
        break;
    }
  }
  return spec;
}

/// Folds one shard of a measurement into `table`, rendering each group
/// key into `key`, a buffer reused across series and shards.
void scan_shard(const Database& db, const ScanSpec& spec, std::size_t shard,
                GroupTable& table, std::string& key, ExecStats* stats) {
  // A shard under a stale-read horizon shows no point newer than it.
  std::int64_t hi = spec.hi;
  const std::optional<TimePoint> horizon = db.effective_read_horizon(shard);
  if (horizon.has_value()) hi = std::min(hi, horizon->micros_since_epoch());
  if (spec.lo > hi) return;

  const Measurement* measurement =
      db.find_measurement(*spec.measurement, shard);
  if (measurement == nullptr) return;

  const QueryAnalysis& analysis = *spec.analysis;
  // The scan folds only points at or after lo, and no series holds a point
  // newer than its newest append: only the series appended to since lo
  // have anything to give. They come in tags_key order, as a walk of every
  // series would visit them.
  measurement->for_each_series_since(
      spec.lo, [&](const Series& series) {
        if (stats != nullptr) ++stats->series;
        // The group key is a pure function of the series tags: render it
        // once per series.
        const Tags& tags = series.tags();
        render_group_key(tags, analysis.group_tags, key);
        std::size_t group = kNoGroup;

        series.for_each_in_window(spec.lo, hi, [&](const Point& p) {
          const auto t = static_cast<double>(p.time.micros_since_epoch());
          for (const double bound : spec.neq_times) {
            if (t == bound) return;
          }
          for (const FieldPredicate* fp : spec.value_preds) {
            if (!compare(p.value, fp->op, fp->literal)) return;
          }
          if (stats != nullptr) ++stats->points;
          if (group == kNoGroup) group = table.find_or_insert(key, tags);
          table.time(group) = std::min(table.time(group), p.time);
          for (const std::size_t c : analysis.value_projections) {
            table.cell(group, c).add(p.value, p.time);
          }
        });
      });
}

/// Scan path for `FROM "measurement"`.
ResultSet exec_scan(const SelectStmt& stmt, const std::string& measurement,
                    const Database& db, TimePoint now, ExecStats* stats,
                    const QueryAnalysis& analysis) {
  const ScanSpec spec = resolve_scan(stmt, measurement, now, analysis);

  // Every shard folds straight into one table, in shard order. A group's
  // aggregates do not depend on the order its points arrive in (see
  // Accumulator), so this is the 1-shard fold bit for bit.
  GroupTable table{stmt, analysis.group_tags};
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
  std::vector<Row> rows = execute(*sub, *analysis.sub, db, now, stats).rows;

  if (!stmt.where.empty()) {
    std::erase_if(rows, [&](const Row& row) {
      return !std::all_of(stmt.where.begin(), stmt.where.end(),
                          [&](const Predicate& p) {
                            return row_matches(row, p, now);
                          });
    });
  }

  // The table reads a group's tags from the row that created it, so it
  // must not outlive `rows`.
  GroupTable table{stmt, analysis.group_tags};
  std::string key;
  for (const Row& row : rows) {
    render_group_key(row.tags, analysis.group_tags, key);
    const std::size_t group = table.find_or_insert(key, row.tags);
    table.time(group) = std::min(table.time(group), row.time);
    for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
      const auto field_it = row.fields.find(stmt.projections[c].field);
      if (field_it != row.fields.end()) {
        table.cell(group, c).add(field_it->second, row.time);
      }
    }
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
