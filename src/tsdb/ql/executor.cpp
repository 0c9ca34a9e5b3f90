#include "tsdb/ql/executor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "tsdb/ql/lexer.hpp"
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
/// on now(), parameter bindings, or the database. Computed once by
/// analyze() and cached by PreparedQuery.
struct QueryAnalysis {
  /// A field predicate names a field measurement rows never carry, so a
  /// measurement scan of this node yields nothing.
  bool scan_fields_ok = true;
  /// The GROUP BY tags in group-key order: sorted, duplicates dropped, as
  /// tags_key renders a Tags map.
  std::vector<std::string> group_tags;
  std::unique_ptr<QueryAnalysis> sub;  // analysis of a subquery source
};

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::string bucket_suffix(std::int64_t bucket) {
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "|t%020lld",
                static_cast<long long>(bucket));
  return suffix;
}

/// Deterministic mergeable quantile sketch: a fixed log-bucket histogram
/// (sign/zero bucket + 4 sub-buckets per power of two). Merging adds
/// counts, so the result is independent of shard layout and fold order;
/// the reported quantile is the lower edge of the bucket holding the
/// target rank (a ≤ 19 % relative overestimate bound per bucket edge).
class QuantileSketch {
 public:
  static constexpr std::size_t kSubBuckets = 4;
  static constexpr int kMinExp = -64;
  static constexpr int kMaxExp = 64;
  static constexpr std::size_t kBuckets =
      1 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void add(double v) {
    ++counts_[bucket_of(v)];
    ++total_;
  }

  void merge(const QuantileSketch& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return lower_edge(i);
    }
    return lower_edge(kBuckets - 1);
  }

 private:
  static std::size_t bucket_of(double v) {
    if (!(v > 0.0)) return 0;  // zero, negatives, NaN → the floor bucket
    int exp = 0;
    const double mantissa = std::frexp(v, &exp);  // v = m * 2^exp, m ∈ [.5,1)
    exp = std::clamp(exp, kMinExp, kMaxExp - 1);
    auto sub = static_cast<std::size_t>((mantissa - 0.5) * 2.0 *
                                        static_cast<double>(kSubBuckets));
    sub = std::min(sub, kSubBuckets - 1);
    return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
  }

  static double lower_edge(std::size_t bucket) {
    if (bucket == 0) return 0.0;
    const std::size_t idx = bucket - 1;
    const int exp = kMinExp + static_cast<int>(idx / kSubBuckets);
    const auto sub = static_cast<double>(idx % kSubBuckets);
    return std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exp);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Aggregation state for one (group, projection) cell. Every operation is
/// order-independent and mergeable, so per-shard partials combine into the
/// same values a single sequential fold would produce.
class Accumulator {
 public:
  explicit Accumulator(Aggregate agg) : agg_(agg) {
    if (is_quantile(agg_)) sketch_ = std::make_unique<QuantileSketch>();
  }

  void add(double v, TimePoint t) {
    if (sketch_) sketch_->add(v);
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

  void merge(const Accumulator& other) {
    if (other.count_ == 0) return;
    if (sketch_ && other.sketch_) sketch_->merge(*other.sketch_);
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
      first_ = other.first_;
      first_time_ = other.first_time_;
      last_ = other.last_;
      last_time_ = other.last_time_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
      if (other.first_time_ < first_time_ ||
          (other.first_time_ == first_time_ && other.first_ < first_)) {
        first_time_ = other.first_time_;
        first_ = other.first_;
      }
      if (other.last_time_ > last_time_ ||
          (other.last_time_ == last_time_ && other.last_ > last_)) {
        last_time_ = other.last_time_;
        last_ = other.last_;
      }
    }
    count_ += other.count_;
    sum_ += other.sum_;
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
      case Aggregate::kP50:
      case Aggregate::kP95:
      case Aggregate::kP99:
        return sketch_->quantile(quantile_rank(agg_));
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
  std::unique_ptr<QuantileSketch> sketch_;
};

struct Group {
  Tags tags;
  TimePoint min_time{TimePoint::from_micros(kInt64Max)};
  std::vector<Accumulator> cells;
};
using GroupMap = std::map<std::string, Group>;

/// The effective offset of a time predicate: its literal, or its bound
/// parameter for prepared statements.
std::int64_t time_offset_us(const TimePredicate& tp,
                            const QueryParams& params) {
  if (tp.param.empty()) return tp.offset_us;
  const auto it = params.find(tp.param);
  if (it == params.end()) {
    throw QueryError{"unbound query parameter '$" + tp.param + "'"};
  }
  return tp.param_sign * it->second.micros_count();
}

bool row_matches(const Row& row, const Predicate& predicate, TimePoint now,
                 const QueryParams& params) {
  if (const auto* fp = std::get_if<FieldPredicate>(&predicate)) {
    const auto it = row.fields.find(fp->field);
    if (it == row.fields.end()) return false;
    return compare(it->second, fp->op, fp->literal);
  }
  const auto& tp = std::get<TimePredicate>(predicate);
  const std::int64_t offset_us = time_offset_us(tp, params);
  const std::int64_t bound_us =
      tp.relative_to_now ? now.micros_since_epoch() + offset_us : offset_us;
  return compare(static_cast<double>(row.time.micros_since_epoch()), tp.op,
                 static_cast<double>(bound_us));
}

/// Everything a measurement scan needs, resolved once before the first
/// shard is read: integer window bounds from the time predicates and the
/// residual per-point predicates.
struct ScanSpec {
  const SelectStmt* stmt = nullptr;
  const std::string* measurement = nullptr;
  std::int64_t lo = kInt64Min;
  std::int64_t hi = kInt64Max;
  std::vector<double> neq_times;          // time <> X, compared as doubles
  std::vector<const FieldPredicate*> value_preds;
  bool fields_ok = true;   // false: a field predicate can never match
  const std::vector<std::string>* group_tags = nullptr;
  std::int64_t interval_us = 0;           // GROUP BY time(...)
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
  if (const auto* sub =
          std::get_if<std::unique_ptr<SelectStmt>>(&stmt.source)) {
    analysis->sub = analyze_node(**sub);
  }
  return analysis;
}

ScanSpec resolve_scan(const SelectStmt& stmt, const std::string& measurement,
                      TimePoint now, const QueryParams& params,
                      const QueryAnalysis& analysis) {
  ScanSpec spec;
  spec.stmt = &stmt;
  spec.measurement = &measurement;
  spec.interval_us = stmt.group_by_time.micros_count();
  spec.fields_ok = analysis.scan_fields_ok;
  spec.group_tags = &analysis.group_tags;

  for (const Predicate& predicate : stmt.where) {
    if (const auto* fp = std::get_if<FieldPredicate>(&predicate)) {
      if (fp->field == "value") spec.value_preds.push_back(fp);
      continue;  // non-"value" fields already folded into fields_ok
    }
    const auto& tp = std::get<TimePredicate>(predicate);
    const std::int64_t offset = time_offset_us(tp, params);
    const std::int64_t bound =
        tp.relative_to_now ? now.micros_since_epoch() + offset : offset;
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

/// Folds one shard of a measurement into per-group partial aggregates.
GroupMap scan_shard(const Database& db, const ScanSpec& spec,
                    std::size_t shard, ShardScanStats* stats) {
  GroupMap groups;
  if (!spec.fields_ok) return groups;
  const SelectStmt& stmt = *spec.stmt;

  // A shard under a stale-read horizon shows no point newer than it.
  std::int64_t hi = spec.hi;
  const std::optional<TimePoint> horizon = db.effective_read_horizon(shard);
  if (horizon.has_value()) hi = std::min(hi, horizon->micros_since_epoch());
  if (spec.lo > hi) return groups;

  const Measurement* measurement =
      db.find_measurement(*spec.measurement, shard);
  if (measurement == nullptr) return groups;

  const std::vector<std::string>& group_tags = *spec.group_tags;
  std::string base_key;  // reused across series: no allocation per series
  // The scan folds only points at or after lo, and no series holds a point
  // newer than its newest append: only the series appended to since lo
  // have anything to give. They come in tags_key order, as a walk of every
  // series would visit them, so each group folds its points in the same
  // sequence whatever the summary's order.
  measurement->for_each_series_since(
      spec.lo, [&](const Series& series) {
        if (stats != nullptr) ++stats->series;
        // The group key is a pure function of the series tags — render it
        // once per series, straight from the tags, exactly as tags_key
        // renders the group's tag set (a missing tag reads as "").
        const Tags& tags = series.tags();
        base_key.clear();
        for (auto tag = tags.begin(); const std::string& name : group_tags) {
          while (tag != tags.end() && tag->first < name) ++tag;
          if (!base_key.empty()) base_key += ',';
          base_key += name;
          base_key += '=';
          if (tag != tags.end() && tag->first == name) base_key += tag->second;
        }

        Group* current = nullptr;
        std::int64_t current_bucket = kInt64Min;
        const auto group_for = [&](std::int64_t bucket,
                                   bool bucketed) -> Group& {
          if (current != nullptr && (!bucketed || bucket == current_bucket)) {
            return *current;
          }
          std::string bucket_key;
          if (bucketed) bucket_key = base_key + bucket_suffix(bucket);
          const std::string& key = bucketed ? bucket_key : base_key;
          auto it = groups.find(key);
          if (it == groups.end()) {
            // A new group: only now build its tag set.
            Group group;
            for (const std::string& name : group_tags) {
              const auto tag = tags.find(name);
              group.tags.emplace_hint(group.tags.end(), name,
                                      tag == tags.end() ? "" : tag->second);
            }
            group.cells.reserve(stmt.projections.size());
            for (const Projection& proj : stmt.projections) {
              group.cells.emplace_back(proj.agg);
            }
            it = groups.emplace(key, std::move(group)).first;
          }
          current = &it->second;
          current_bucket = bucket;
          return *current;
        };

        const auto fold_point = [&](const Point& p) {
          const auto t = static_cast<double>(p.time.micros_since_epoch());
          for (const double bound : spec.neq_times) {
            if (t == bound) return;
          }
          for (const FieldPredicate* fp : spec.value_preds) {
            if (!compare(p.value, fp->op, fp->literal)) return;
          }
          if (stats != nullptr) ++stats->points;
          Group* group;
          if (spec.interval_us != 0) {
            const std::int64_t window =
                floor_div(p.time.micros_since_epoch(), spec.interval_us);
            group = &group_for(window, true);
            group->min_time =
                TimePoint::from_micros(window * spec.interval_us);
          } else {
            group = &group_for(0, false);
            group->min_time = std::min(group->min_time, p.time);
          }
          for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
            if (stmt.projections[c].field == "value") {
              group->cells[c].add(p.value, p.time);
            }
          }
        };

        series.for_each_in_window(spec.lo, hi, fold_point);
      });
  return groups;
}

ResultSet render(const SelectStmt& stmt, GroupMap& groups) {
  ResultSet result;
  result.rows.reserve(groups.size());
  for (auto& [key, group] : groups) {
    Row out;
    out.tags = std::move(group.tags);
    out.time = group.min_time;
    bool any = false;
    for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
      if (!group.cells[c].empty()) {
        out.fields.emplace(stmt.projections[c].alias, group.cells[c].result());
        any = true;
      }
    }
    if (any) {
      result.rows.push_back(std::move(out));
    }
  }
  // OFFSET/LIMIT over the deterministic (tags, time) order produced by
  // the group map.
  if (stmt.offset > 0) {
    if (stmt.offset >= result.rows.size()) {
      result.rows.clear();
    } else {
      result.rows.erase(result.rows.begin(),
                        result.rows.begin() +
                            static_cast<std::ptrdiff_t>(stmt.offset));
    }
  }
  if (stmt.limit > 0 && result.rows.size() > stmt.limit) {
    result.rows.resize(stmt.limit);
  }
  return result;
}

/// Scan path for `FROM "measurement"`.
ResultSet exec_scan(const SelectStmt& stmt, const std::string& measurement,
                    const Database& db, TimePoint now,
                    const QueryParams& params, ExecStats* stats,
                    const QueryAnalysis& analysis) {
  const ScanSpec spec = resolve_scan(stmt, measurement, now, params, analysis);
  const std::size_t shard_count = db.shard_count();
  if (stats != nullptr && stats->shards.size() < shard_count) {
    stats->shards.resize(shard_count);
  }

  // Fold shard by shard and merge each partial in shard order.
  // Aggregates are order-independent, so this produces the 1-shard fold
  // bit for bit. Groups new to `merged` move over as map nodes; only the
  // keys both maps hold are left behind in the partial, and those are
  // folded in.
  GroupMap merged;
  for (std::size_t s = 0; s < shard_count; ++s) {
    ShardScanStats* shard_stats =
        stats != nullptr ? &stats->shards[s] : nullptr;
    GroupMap partial = scan_shard(db, spec, s, shard_stats);
    merged.merge(partial);
    for (const auto& [key, group] : partial) {
      Group& into = merged.find(key)->second;
      into.min_time = std::min(into.min_time, group.min_time);
      for (std::size_t c = 0; c < into.cells.size(); ++c) {
        into.cells[c].merge(group.cells[c]);
      }
    }
  }
  return render(stmt, merged);
}

/// Row-at-a-time path for subquery sources: execute the inner statement,
/// then filter/group its output rows exactly as the pre-shard executor
/// did (inner rows are few — one per group — so scanning them centrally
/// costs nothing).
ResultSet exec_rows(const SelectStmt& stmt, const Database& db, TimePoint now,
                    const QueryParams& params, ExecStats* stats,
                    const QueryAnalysis& analysis) {
  const auto& sub = std::get<std::unique_ptr<SelectStmt>>(stmt.source);
  SGXO_CHECK(analysis.sub != nullptr);
  std::vector<Row> rows =
      execute(*sub, *analysis.sub, db, now, params, stats).rows;

  if (!stmt.where.empty()) {
    std::erase_if(rows, [&](const Row& row) {
      return !std::all_of(stmt.where.begin(), stmt.where.end(),
                          [&](const Predicate& p) {
                            return row_matches(row, p, now, params);
                          });
    });
  }

  GroupMap groups;
  const bool time_buckets = stmt.group_by_time > Duration{};
  const std::int64_t interval_us = stmt.group_by_time.micros_count();

  for (const Row& row : rows) {
    Tags key;
    for (const std::string& tag : stmt.group_by) {
      const auto it = row.tags.find(tag);
      key.emplace(tag, it == row.tags.end() ? "" : it->second);
    }
    std::string key_str = tags_key(key);
    TimePoint window_start = row.time;
    if (time_buckets) {
      const std::int64_t bucket =
          floor_div(row.time.micros_since_epoch(), interval_us);
      window_start = TimePoint::from_micros(bucket * interval_us);
      key_str += bucket_suffix(bucket);
    }
    auto it = groups.find(key_str);
    if (it == groups.end()) {
      Group group;
      group.tags = std::move(key);
      group.cells.reserve(stmt.projections.size());
      for (const Projection& proj : stmt.projections) {
        group.cells.emplace_back(proj.agg);
      }
      it = groups.emplace(std::move(key_str), std::move(group)).first;
    }
    Group& group = it->second;
    group.min_time =
        time_buckets ? window_start : std::min(group.min_time, row.time);
    for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
      const auto field_it = row.fields.find(stmt.projections[c].field);
      if (field_it != row.fields.end()) {
        group.cells[c].add(field_it->second, row.time);
      }
    }
  }
  return render(stmt, groups);
}

}  // namespace

std::shared_ptr<const QueryAnalysis> analyze(const SelectStmt& stmt) {
  return std::shared_ptr<const QueryAnalysis>{analyze_node(stmt).release()};
}

ResultSet execute(const SelectStmt& stmt, const QueryAnalysis& analysis,
                  const Database& db, TimePoint now, const QueryParams& params,
                  ExecStats* stats) {
  if (const auto* name = std::get_if<std::string>(&stmt.source)) {
    return exec_scan(stmt, *name, db, now, params, stats, analysis);
  }
  return exec_rows(stmt, db, now, params, stats, analysis);
}

ResultSet query(const std::string& text, const Database& db, TimePoint now) {
  return PreparedQuery::prepare(text).execute(db, now);
}

}  // namespace sgxo::tsdb::ql
