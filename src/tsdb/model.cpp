#include "tsdb/model.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace sgxo::tsdb {
namespace {

// Compaction policy: adjacent sealed chunks are merged while the result
// stays small enough that straddling queries never scan far past their
// window.
constexpr std::size_t kCompactTargetPoints = 4096;
constexpr std::int64_t kCompactMaxSpanWidths = 8;

// Floor division that rounds toward negative infinity, so pre-epoch
// timestamps land in the right chunk/bucket.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

std::string tags_key(const Tags& tags) {
  std::string key;
  for (const auto& [k, v] : tags) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

// ---- Series ----------------------------------------------------------------

std::vector<Point> Series::points() const {
  std::vector<Point> out;
  out.reserve(size_);
  for (const Chunk& chunk : chunks_) {
    out.insert(out.end(), chunk.points.begin(), chunk.points.end());
  }
  return out;
}

void Series::update_rollups(const Point& p) {
  if (!options_.rollups) return;
  const std::int64_t t = p.time.micros_since_epoch();
  const double v = p.value;
  for (std::size_t level = 0; level < kRollupLevelCount; ++level) {
    const std::int64_t width = kRollupLevelsUs[level];
    const std::int64_t start = floor_div(t, width) * width;
    std::vector<RollupBucket>& buckets = rollups_[level];
    // Fast path: in-order ingest lands in (or after) the last bucket.
    RollupBucket* bucket = nullptr;
    if (!buckets.empty() && buckets.back().start_us == start) {
      bucket = &buckets.back();
    } else if (buckets.empty() || buckets.back().start_us < start) {
      buckets.push_back(RollupBucket{});
      bucket = &buckets.back();
      bucket->start_us = start;
    } else {
      auto it = std::lower_bound(buckets.begin(), buckets.end(), start,
                                 [](const RollupBucket& b, std::int64_t s) {
                                   return b.start_us < s;
                                 });
      if (it == buckets.end() || it->start_us != start) {
        it = buckets.insert(it, RollupBucket{});
        it->start_us = start;
      }
      bucket = &*it;
    }
    if (bucket->count == 0) {
      bucket->sum = v;
      bucket->min = v;
      bucket->max = v;
      bucket->first = v;
      bucket->first_time_us = t;
      bucket->last = v;
      bucket->last_time_us = t;
    } else {
      bucket->sum += v;
      bucket->min = std::min(bucket->min, v);
      bucket->max = std::max(bucket->max, v);
      // Lexicographic (time, value) ties keep the summary order-free.
      if (t < bucket->first_time_us ||
          (t == bucket->first_time_us && v < bucket->first)) {
        bucket->first_time_us = t;
        bucket->first = v;
      }
      if (t > bucket->last_time_us ||
          (t == bucket->last_time_us && v > bucket->last)) {
        bucket->last_time_us = t;
        bucket->last = v;
      }
    }
    ++bucket->count;
  }
}

bool Series::empty() const {
  return size_ == 0 &&
         std::all_of(std::begin(rollups_), std::end(rollups_),
                     [](const std::vector<RollupBucket>& level) {
                       return level.empty();
                     });
}

void Series::append(Point p) {
  const std::int64_t t = p.time.micros_since_epoch();
  ++size_;
  newest_append_us_ = std::max(newest_append_us_, t);
  update_rollups(p);

  const auto insert_sorted = [&](Chunk& chunk) {
    if (chunk.points.empty() || chunk.points.back().time <= p.time) {
      chunk.points.push_back(p);
      return;
    }
    const auto pos = std::upper_bound(
        chunk.points.begin(), chunk.points.end(), p,
        [](const Point& a, const Point& b) { return a.time < b.time; });
    chunk.points.insert(pos, p);
  };

  // Fast path: the newest chunk covers t (in-order ingest).
  if (!chunks_.empty() && t >= chunks_.back().start_us &&
      t < chunks_.back().end_us) {
    insert_sorted(chunks_.back());
    return;
  }
  // General path: the chunk whose [start, end) contains t, if any.
  auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), t,
      [](std::int64_t time, const Chunk& c) { return time < c.end_us; });
  if (it != chunks_.end() && t >= it->start_us) {
    insert_sorted(*it);
    return;
  }
  // New aligned chunk in sorted position (`it` is the first chunk that
  // starts after t).
  const std::int64_t width = options_.chunk_width_us;
  Chunk chunk;
  chunk.start_us = floor_div(t, width) * width;
  chunk.end_us = chunk.start_us + width;
  chunk.points.push_back(p);
  chunks_.insert(it, std::move(chunk));
}

std::vector<Point> Series::in_window(TimePoint lo, TimePoint hi) const {
  std::vector<Point> out;
  for_each_in_window(lo.micros_since_epoch(), hi.micros_since_epoch(),
                     [&](const Point& p) { out.push_back(p); });
  return out;
}

std::optional<TimePoint> Series::newest(
    std::optional<TimePoint> horizon) const {
  for (auto chunk = chunks_.rbegin(); chunk != chunks_.rend(); ++chunk) {
    const std::vector<Point>& pts = chunk->points;
    if (pts.empty()) continue;
    if (!horizon.has_value()) return pts.back().time;
    // Last point with time <= horizon within this chunk, else keep looking
    // in earlier chunks.
    const auto it = std::upper_bound(
        pts.begin(), pts.end(), *horizon,
        [](TimePoint t, const Point& p) { return t < p.time; });
    if (it != pts.begin()) return std::prev(it)->time;
  }
  return std::nullopt;
}

std::size_t Series::drop_before(TimePoint horizon) {
  const std::int64_t h = horizon.micros_since_epoch();
  std::size_t dropped = 0;
  // Whole chunks first: end <= h means every point is < h.
  auto it = chunks_.begin();
  while (it != chunks_.end() && it->end_us <= h) {
    dropped += it->points.size();
    ++it;
  }
  chunks_.erase(chunks_.begin(), it);
  // Partial trim of a straddling chunk: points strictly older than h.
  if (!chunks_.empty() && chunks_.front().start_us < h) {
    std::vector<Point>& pts = chunks_.front().points;
    const auto first_kept = std::lower_bound(
        pts.begin(), pts.end(), h, [](const Point& p, std::int64_t t) {
          return p.time.micros_since_epoch() < t;
        });
    dropped += static_cast<std::size_t>(first_kept - pts.begin());
    pts.erase(pts.begin(), first_kept);
  }
  size_ -= dropped;
  // Rollup buckets go only once fully expired (start + level <= h), so a
  // partially-expired bucket still serves queries; the executor snaps
  // window edges to bucket starts anyway.
  for (std::size_t level = 0; level < kRollupLevelCount; ++level) {
    const std::int64_t width = kRollupLevelsUs[level];
    std::vector<RollupBucket>& buckets = rollups_[level];
    auto kept = buckets.begin();
    while (kept != buckets.end() && kept->start_us + width <= h) ++kept;
    buckets.erase(buckets.begin(), kept);
  }
  return dropped;
}

std::size_t Series::compact(std::int64_t sealed_before_us) {
  if (chunks_.size() < 2) return 0;
  const std::int64_t max_span =
      kCompactMaxSpanWidths * options_.chunk_width_us;
  const auto mergeable = [&](const Chunk& a, const Chunk& b) {
    return b.end_us <= sealed_before_us && a.end_us <= sealed_before_us &&
           a.points.size() + b.points.size() <= kCompactTargetPoints &&
           b.end_us - a.start_us <= max_span;
  };
  // The greedy pass merges nothing unless some adjacent pair of the
  // current chunks qualifies, so skip rebuilding the vector in that case.
  if (std::adjacent_find(chunks_.begin(), chunks_.end(), mergeable) ==
      chunks_.end()) {
    return 0;
  }
  std::size_t merges = 0;
  std::vector<Chunk> out;
  out.reserve(chunks_.size());
  for (Chunk& chunk : chunks_) {
    if (!out.empty() && mergeable(out.back(), chunk)) {
      Chunk& dst = out.back();
      dst.points.insert(dst.points.end(), chunk.points.begin(),
                        chunk.points.end());
      dst.end_us = chunk.end_us;
      ++merges;
      continue;
    }
    out.push_back(std::move(chunk));
  }
  chunks_ = std::move(out);
  return merges;
}

// ---- Measurement -----------------------------------------------------------

Series& Measurement::series_for(const Tags& tags) {
  return series_for(tags, tags_key(tags));
}

Series& Measurement::series_for(const Tags& tags, const std::string& key) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series{tags, options_}).first;
  }
  return it->second;
}

const Series* Measurement::find_series(const Tags& tags) const {
  const auto it = series_.find(tags_key(tags));
  return it == series_.end() ? nullptr : &it->second;
}

void Measurement::append(const Tags& tags, const std::string& key, Point p) {
  series_for(tags, key).append(p);
  ++points_;
  if (!newest_.has_value() || p.time > *newest_) newest_ = p.time;
}

std::size_t Measurement::drop_before(TimePoint horizon) {
  std::size_t dropped = 0;
  for (auto it = series_.begin(); it != series_.end();) {
    dropped += it->second.drop_before(horizon);
    // An emptied series can serve no query; keeping it would make every
    // scan visit each tag set ever written.
    it = it->second.empty() ? series_.erase(it) : std::next(it);
  }
  points_ -= dropped;
  // Exactly the points older than the horizon went, so the newest point
  // survives unless it was older too, and then no point survives.
  if (newest_.has_value() && *newest_ < horizon) newest_.reset();
  return dropped;
}

std::size_t Measurement::compact(std::int64_t sealed_before_us) {
  std::size_t merges = 0;
  for (auto& [key, s] : series_) {
    merges += s.compact(sealed_before_us);
  }
  return merges;
}

// ---- Database --------------------------------------------------------------

Database::Database(DatabaseConfig config)
    : config_(config),
      series_options_{config.chunk_width.micros_count(), config.rollups},
      shards_(std::max<std::size_t>(1, config.shards)) {
  SGXO_CHECK_MSG(config_.chunk_width > Duration{},
                 "chunk width must be positive");
  config_.shards = shards_.size();
}

std::size_t Database::route(const std::string& measurement,
                            const std::string& key) const {
  if (shards_.size() == 1) return 0;
  std::string routing;
  routing.reserve(measurement.size() + 1 + key.size());
  routing += measurement;
  routing += '\n';
  routing += key;
  return static_cast<std::size_t>(fnv1a(routing) % shards_.size());
}

std::size_t Database::shard_of(const std::string& measurement,
                               const Tags& tags) const {
  return route(measurement, tags_key(tags));
}

Measurement& Database::measurement_in(Shard& shard, const std::string& name) {
  auto it = shard.measurements.find(name);
  if (it == shard.measurements.end()) {
    it = shard.measurements.emplace(name, Measurement{name, series_options_})
             .first;
  }
  return it->second;
}

bool Database::write(const std::string& measurement, const Tags& tags,
                     TimePoint time, double value) {
  SGXO_CHECK_MSG(!measurement.empty(), "measurement name must not be empty");
  const std::string key = tags_key(tags);
  Shard& shard = shards_[route(measurement, key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (write_fault_ || shard.write_fault) {
    ++shard.failed_writes;
    return false;
  }
  measurement_in(shard, measurement).append(tags, key, Point{time, value});
  return true;
}

std::size_t Database::write_many(const std::vector<Sample>& batch) {
  // Group by shard so each lock is taken once per batch; a stable pass
  // preserves same-shard sample order (equal-timestamp writes keep their
  // sequential insertion order).
  std::vector<std::vector<std::pair<const Sample*, std::string>>> by_shard(
      shards_.size());
  for (const Sample& sample : batch) {
    SGXO_CHECK_MSG(!sample.measurement.empty(),
                   "measurement name must not be empty");
    std::string key = tags_key(sample.tags);
    const std::size_t idx = route(sample.measurement, key);
    by_shard[idx].emplace_back(&sample, std::move(key));
  }
  std::size_t accepted = 0;
  for (std::size_t idx = 0; idx < shards_.size(); ++idx) {
    if (by_shard[idx].empty()) continue;
    Shard& shard = shards_[idx];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [sample, key] : by_shard[idx]) {
      if (write_fault_ || shard.write_fault) {
        ++shard.failed_writes;
        continue;
      }
      measurement_in(shard, sample->measurement)
          .append(sample->tags, key, Point{sample->time, sample->value});
      ++accepted;
    }
  }
  return accepted;
}

bool Database::has_measurement(const std::string& name) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.measurements.count(name) != 0) return true;
  }
  return false;
}

std::vector<std::string> Database::measurement_names() const {
  std::vector<std::string> names;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, m] : shard.measurements) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::size_t Database::total_points() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, m] : shard.measurements) {
      total += m.point_count();
    }
  }
  return total;
}

std::size_t Database::series_count(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.measurements.find(measurement);
    if (it != shard.measurements.end()) total += it->second.series_count();
  }
  return total;
}

std::size_t Database::points_in(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.measurements.find(measurement);
    if (it != shard.measurements.end()) total += it->second.point_count();
  }
  return total;
}

std::size_t Database::chunk_count(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.measurements.find(measurement);
    if (it == shard.measurements.end()) continue;
    it->second.for_each_series(
        [&](const Series& s) { total += s.chunk_count(); });
  }
  return total;
}

void Database::for_each_series(
    const std::string& measurement,
    const std::function<void(const Series&)>& f) const {
  // K-way merge over the per-shard series maps: each shard's map is
  // already in tags_key order and the key space partitions across shards,
  // so merging by key reproduces the 1-shard iteration order exactly.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  struct Cursor {
    std::map<std::string, Series>::const_iterator it;
    std::map<std::string, Series>::const_iterator end;
  };
  std::vector<Cursor> cursors;
  for (const Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
    const auto m = shard.measurements.find(measurement);
    if (m == shard.measurements.end()) continue;
    // Access the private series map through the public keyed visitor is
    // not possible lazily; use iterators over an exported range instead.
    cursors.push_back(Cursor{});
    cursors.back().it = m->second.series_begin();
    cursors.back().end = m->second.series_end();
  }
  while (true) {
    Cursor* best = nullptr;
    for (Cursor& cursor : cursors) {
      if (cursor.it == cursor.end) continue;
      if (best == nullptr || cursor.it->first < best->it->first) {
        best = &cursor;
      }
    }
    if (best == nullptr) break;
    f(best->it->second);
    ++best->it;
  }
}

void Database::for_each_series_in_shard(
    const std::string& measurement, std::size_t shard_index,
    const std::function<void(const std::string&, const Series&)>& f) const {
  const Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.measurements.find(measurement);
  if (it == shard.measurements.end()) return;
  it->second.for_each_keyed_series(f);
}

std::size_t Database::enforce_retention(TimePoint now, Duration retention) {
  SGXO_CHECK(retention > Duration{});
  const TimePoint horizon = now - retention;
  std::size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [name, m] : shard.measurements) {
      dropped += m.drop_before(horizon);
    }
  }
  return dropped;
}

std::size_t Database::compact(TimePoint now) {
  const std::int64_t sealed_before =
      now.micros_since_epoch() - config_.chunk_width.micros_count();
  std::size_t merges = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::size_t shard_merges = 0;
    for (auto& [name, m] : shard.measurements) {
      shard_merges += m.compact(sealed_before);
    }
    shard.compactions += shard_merges;
    merges += shard_merges;
  }
  return merges;
}

std::size_t Database::maintain(TimePoint now, Duration retention) {
  const std::size_t dropped = enforce_retention(now, retention);
  compact(now);
  return dropped;
}

std::uint64_t Database::compactions() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.compactions;
  }
  return total;
}

std::uint64_t Database::failed_writes() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.failed_writes;
  }
  return total;
}

void Database::set_shard_write_fault(std::size_t shard, bool faulted) {
  SGXO_CHECK(shard < shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  shards_[shard].write_fault = faulted;
}

bool Database::shard_write_fault(std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  return shards_[shard].write_fault;
}

std::uint64_t Database::shard_failed_writes(std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  return shards_[shard].failed_writes;
}

void Database::set_shard_read_horizon(std::size_t shard,
                                      std::optional<TimePoint> horizon) {
  SGXO_CHECK(shard < shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  shards_[shard].read_horizon = horizon;
}

std::optional<TimePoint> Database::shard_read_horizon(
    std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  return shards_[shard].read_horizon;
}

std::optional<TimePoint> Database::effective_read_horizon(
    std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  std::optional<TimePoint> local;
  {
    std::lock_guard<std::mutex> lock(shards_[shard].mu);
    local = shards_[shard].read_horizon;
  }
  if (!read_horizon_.has_value()) return local;
  if (!local.has_value()) return read_horizon_;
  return std::min(*read_horizon_, *local);
}

std::optional<TimePoint> Database::newest_time(
    const std::string& measurement) const {
  std::optional<TimePoint> newest;
  for (std::size_t idx = 0; idx < shards_.size(); ++idx) {
    const std::optional<TimePoint> horizon = effective_read_horizon(idx);
    const Shard& shard = shards_[idx];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.measurements.find(measurement);
    if (it == shard.measurements.end()) continue;
    const auto consider = [&](std::optional<TimePoint> t) {
      if (t.has_value() && (!newest.has_value() || *t > *newest)) newest = t;
    };
    if (!horizon.has_value()) {
      consider(it->second.newest_time());
      continue;
    }
    // Only a frozen shard needs its series: the newest point at or before
    // the horizon can sit in any of them.
    it->second.for_each_series(
        [&](const Series& series) { consider(series.newest(horizon)); });
  }
  return newest;
}

}  // namespace sgxo::tsdb
