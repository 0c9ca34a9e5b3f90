#include "tsdb/model.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace sgxo::tsdb {
namespace {

// Appends `text` to `out` with a backslash before each '\\', ',' and '=',
// copying the runs between them whole. The three compares are or-ed into
// one branch per character: every write renders a key, and almost no
// text needs an escape.
void append_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if ((c == '\\') | (c == ',') | (c == '=')) {
      out.append(text.substr(run, i - run));
      out += '\\';
      run = i;
    }
  }
  out.append(text.substr(run));
}

// Renders tags_key(tags) into `key`, reusing its capacity.
void render_tags_key(const Tags& tags, std::string& key) {
  key.clear();
  for (const auto& [name, value] : tags) append_tag(key, name, value);
}

}  // namespace

void append_tag(std::string& key, std::string_view name,
                std::string_view value) {
  if (!key.empty()) key += ',';
  append_escaped(key, name);
  key += '=';
  append_escaped(key, value);
}

std::string tags_key(const Tags& tags) {
  std::string key;
  render_tags_key(tags, key);
  return key;
}

// ---- Series ----------------------------------------------------------------

void Series::append(Point p) {
  newest_append_us_ =
      std::max(newest_append_us_, p.time.micros_since_epoch());
  if (points_.empty() || points_.back().time <= p.time) {
    points_.push_back(p);
    return;
  }
  // A late sample goes after every point at or before its time.
  const auto pos = std::upper_bound(
      points_.begin(), points_.end(), p.time,
      [](TimePoint t, const Point& q) { return t < q.time; });
  points_.insert(pos, p);
}

std::optional<TimePoint> Series::newest(
    std::optional<TimePoint> horizon) const {
  auto end = points_.end();
  if (horizon.has_value()) {
    end = std::upper_bound(
        points_.begin(), end, *horizon,
        [](TimePoint t, const Point& p) { return t < p.time; });
  }
  if (end == points_.begin()) return std::nullopt;
  return std::prev(end)->time;
}

std::size_t Series::drop_before(TimePoint horizon) {
  const auto first_kept = std::lower_bound(
      points_.begin(), points_.end(), horizon,
      [](const Point& p, TimePoint t) { return p.time < t; });
  const auto dropped = static_cast<std::size_t>(first_kept - points_.begin());
  points_.erase(points_.begin(), first_kept);
  return dropped;
}

// ---- SeriesTable -----------------------------------------------------------

SeriesRef SeriesTable::add(Measurement& measurement, Series& series,
                           std::size_t shard) {
  std::uint32_t index = 0;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{});
    slots_.back().generation = 1;
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.measurement = &measurement;
  slot.series = &series;
  slot.shard = static_cast<std::uint32_t>(shard);
  return SeriesRef{index, slot.generation};
}

void SeriesTable::remove(SeriesRef ref) {
  Slot& slot = slots_[ref.slot];
  slot = Slot{nullptr, nullptr, 0, slot.generation + 1};
  free_.push_back(ref.slot);
}

// ---- Measurement -----------------------------------------------------------

const Series* Measurement::find_series(const Tags& tags) const {
  const auto it = series_.find(tags_key(tags));
  return it == series_.end() ? nullptr : &it->second;
}

Series& Measurement::series_for(const Tags& tags, const std::string& key) {
  auto it = series_.find(key);
  if (it != series_.end()) return it->second;
  it = series_.emplace(key, Series{tags}).first;
  Series& series = it->second;
  series.ref_ = table_->add(*this, series, shard_);
  // The new entry goes last. It holds no point yet, so no scan reads it
  // and retention passes it by until the first append.
  series.entry_ = summary_.size();
  summary_.push_back(SummaryEntry{std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max(),
                                  it});
  return series;
}

void Measurement::append(Series& series, Point p) {
  series.append(p);
  // An append only adds a point: the newest append can only rise and the
  // oldest point only fall.
  SummaryEntry& entry = summary_[series.entry_];
  entry.newest_append_us = series.newest_append_us();
  entry.oldest_us = std::min(entry.oldest_us, p.time.micros_since_epoch());
  ++points_;
  if (!newest_.has_value() || p.time > *newest_) newest_ = p.time;
}

std::size_t Measurement::drop_before(TimePoint horizon) {
  const std::int64_t h = horizon.micros_since_epoch();
  std::size_t dropped = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < summary_.size(); ++i) {
    SummaryEntry entry = summary_[i];
    if (entry.oldest_us < h) {
      Series& series = entry.series->second;
      dropped += series.drop_before(horizon);
      if (series.empty()) {
        // An emptied series can serve no query; keeping it would make
        // every scan consider each tag set ever written. Its refs go
        // stale, and the entries after it move up, keeping their order.
        table_->remove(series.ref_);
        series_.erase(entry.series);
        continue;
      }
      entry.oldest_us = series.oldest().micros_since_epoch();
    }
    if (kept != i) entry.series->second.entry_ = kept;
    summary_[kept++] = entry;
  }
  summary_.resize(kept);
  points_ -= dropped;
  // Exactly the points older than the horizon went, so the newest point
  // survives unless it was older too, and then no point survives.
  if (newest_.has_value() && *newest_ < horizon) newest_.reset();
  return dropped;
}

// ---- Database --------------------------------------------------------------

Database::Database(std::size_t shards)
    : shards_(std::max<std::size_t>(1, shards)) {}

std::size_t Database::route(const std::string& measurement,
                            const std::string& key) const {
  if (shards_.size() == 1) return 0;
  // fnv1a(measurement + '\n' + key), without building the string.
  const std::uint64_t hash = fnv1a(key, fnv1a("\n", fnv1a(measurement)));
  return static_cast<std::size_t>(hash % shards_.size());
}

std::size_t Database::shard_of(const std::string& measurement,
                               const Tags& tags) const {
  return route(measurement, tags_key(tags));
}

Measurement& Database::measurement_in(std::size_t shard,
                                      const std::string& name) {
  return shards_[shard]
      .measurements.try_emplace(name, name, table_, shard)
      .first->second;
}

std::optional<SeriesRef> Database::write(const std::string& measurement,
                                         const Tags& tags, TimePoint time,
                                         double value) {
  SGXO_CHECK_MSG(!measurement.empty(), "measurement name must not be empty");
  render_tags_key(tags, key_);
  const std::size_t index = route(measurement, key_);
  Shard& shard = shards_[index];
  if (shard.write_fault) {
    ++shard.failed_writes;
    return std::nullopt;
  }
  Measurement& m = measurement_in(index, measurement);
  Series& series = m.series_for(tags, key_);
  m.append(series, Point{time, value});
  return series.ref();
}

bool Database::write(SeriesRef ref, TimePoint time, double value) {
  const SeriesTable::Slot* slot = table_.find(ref);
  SGXO_CHECK_MSG(slot != nullptr, "write through a stale series ref");
  Shard& shard = shards_[slot->shard];
  if (shard.write_fault) {
    ++shard.failed_writes;
    return false;
  }
  slot->measurement->append(*slot->series, Point{time, value});
  return true;
}

bool Database::has_measurement(const std::string& name) const {
  for (const Shard& shard : shards_) {
    if (shard.measurements.count(name) != 0) return true;
  }
  return false;
}

std::vector<std::string> Database::measurement_names() const {
  std::vector<std::string> names;
  for (const Shard& shard : shards_) {
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
    for (const auto& [name, m] : shard.measurements) {
      total += m.point_count();
    }
  }
  return total;
}

std::size_t Database::series_count(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const auto it = shard.measurements.find(measurement);
    if (it != shard.measurements.end()) total += it->second.series_count();
  }
  return total;
}

std::size_t Database::points_in(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const auto it = shard.measurements.find(measurement);
    if (it != shard.measurements.end()) total += it->second.point_count();
  }
  return total;
}

const Measurement* Database::find_measurement(const std::string& measurement,
                                              std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  const auto it = shards_[shard].measurements.find(measurement);
  return it == shards_[shard].measurements.end() ? nullptr : &it->second;
}

std::size_t Database::enforce_retention(TimePoint now, Duration retention) {
  SGXO_CHECK(retention > Duration{});
  const TimePoint horizon = now - retention;
  std::size_t dropped = 0;
  for (Shard& shard : shards_) {
    for (auto& [name, m] : shard.measurements) {
      dropped += m.drop_before(horizon);
    }
  }
  return dropped;
}

std::uint64_t Database::failed_writes() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.failed_writes;
  }
  return total;
}

void Database::set_shard_write_fault(std::size_t shard, bool faulted) {
  SGXO_CHECK(shard < shards_.size());
  shards_[shard].write_fault = faulted;
}

bool Database::shard_write_fault(std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  return shards_[shard].write_fault;
}

std::uint64_t Database::shard_failed_writes(std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  return shards_[shard].failed_writes;
}

void Database::set_shard_read_horizon(std::size_t shard,
                                      std::optional<TimePoint> horizon) {
  SGXO_CHECK(shard < shards_.size());
  shards_[shard].read_horizon = horizon;
}

std::optional<TimePoint> Database::shard_read_horizon(
    std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  return shards_[shard].read_horizon;
}

std::optional<TimePoint> Database::newest_time(
    const std::string& measurement) const {
  std::optional<TimePoint> newest;
  for (const Shard& shard : shards_) {
    const std::optional<TimePoint>& horizon = shard.read_horizon;
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
