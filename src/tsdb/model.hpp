// In-memory time-series store modelled on InfluxDB's data model:
// measurement → (tag set ⇒ series) → time-ordered points.
//
// Heapster pushes per-pod regular-memory samples and the SGX probe pushes
// per-pod EPC samples into one Database; the scheduler then runs
// sliding-window queries (paper Listing 1) against it.
//
// The store is sharded: series are routed by an FNV-1a hash of
// (measurement, tag set) onto N independent lock domains, so concurrent
// ingest and query fan-out never contend on one global lock. Each series
// keeps its points in time-partitioned chunks (sealed chunks are merged by
// background compaction, retention drops whole chunks at a time) and
// maintains precomputed rollup levels (10 s / 60 s bucket summaries) that
// wide-window queries read instead of raw points.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace sgxo::tsdb {

/// Tag set. std::map keeps a canonical order, so equal tag sets compare
/// equal and can key series directly.
using Tags = std::map<std::string, std::string>;

/// Canonical "k1=v1,k2=v2" rendering (used for diagnostics and as a stable
/// grouping key).
[[nodiscard]] std::string tags_key(const Tags& tags);

struct Point {
  TimePoint time;
  double value = 0.0;
};

/// One rollup bucket: an order-independent summary of every point whose
/// timestamp falls in [start, start + level). count/sum are additive,
/// min/max are lattice joins, and first/last break timestamp ties
/// lexicographically by (time, value) so the summary is identical no
/// matter what order points arrived in.
struct RollupBucket {
  std::int64_t start_us = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double first = 0.0;
  std::int64_t first_time_us = 0;
  double last = 0.0;
  std::int64_t last_time_us = 0;
};

/// Rollup levels, coarsest last. Queries pick the coarsest level whose
/// buckets evenly tile the window (see ql::executor).
inline constexpr std::int64_t kRollupLevelsUs[] = {10'000'000, 60'000'000};
inline constexpr std::size_t kRollupLevelCount =
    sizeof(kRollupLevelsUs) / sizeof(kRollupLevelsUs[0]);

/// Per-series storage options, inherited from the owning Database.
struct SeriesOptions {
  std::int64_t chunk_width_us = 10 * 60'000'000LL;  // 10 min
  bool rollups = true;
};

/// One series: a unique tag set within a measurement plus its points,
/// stored as non-overlapping time-partitioned chunks sorted by start.
class Series {
 public:
  explicit Series(Tags tags) : tags_(std::move(tags)) {}
  Series(Tags tags, SeriesOptions options)
      : tags_(std::move(tags)), options_(options) {}

  struct Chunk {
    std::int64_t start_us = 0;  // inclusive
    std::int64_t end_us = 0;    // exclusive; every point time < end_us
    std::vector<Point> points;  // sorted by time (stable for equal times)
  };

  [[nodiscard]] const Tags& tags() const { return tags_; }
  /// Flattened copy of all points in time order (chunks are disjoint and
  /// sorted, so concatenation is globally sorted). Tests and small
  /// consumers only; the executor iterates chunks in place.
  [[nodiscard]] std::vector<Point> points() const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] const std::vector<Chunk>& chunks() const { return chunks_; }

  /// Rollup buckets for level `level` (index into kRollupLevelsUs), sorted
  /// by start. Empty when rollups are disabled.
  [[nodiscard]] const std::vector<RollupBucket>& rollup(
      std::size_t level) const {
    return rollups_[level];
  }

  /// Largest timestamp ever appended (INT64_MIN before the first append).
  /// Retention never lowers it, so it bounds every raw point and every
  /// rollup bucket the series holds: a scan whose window starts after it
  /// can skip the series without looking inside.
  [[nodiscard]] std::int64_t newest_append_us() const {
    return newest_append_us_;
  }

  /// True once retention has removed every point and every rollup bucket.
  [[nodiscard]] bool empty() const;

  /// Appends a point. Out-of-order writes are accepted (probes from
  /// different nodes are not synchronised) and kept sorted by time.
  void append(Point p);

  /// Visits every point with lo_us <= time <= hi_us, in time order.
  template <typename F>
  void for_each_in_window(std::int64_t lo_us, std::int64_t hi_us,
                          F&& f) const {
    auto chunk = std::upper_bound(
        chunks_.begin(), chunks_.end(), lo_us,
        [](std::int64_t t, const Chunk& c) { return t < c.end_us; });
    for (; chunk != chunks_.end() && chunk->start_us <= hi_us; ++chunk) {
      const std::vector<Point>& pts = chunk->points;
      auto it = std::lower_bound(pts.begin(), pts.end(), lo_us,
                                 [](const Point& p, std::int64_t t) {
                                   return p.time.micros_since_epoch() < t;
                                 });
      for (; it != pts.end() && it->time.micros_since_epoch() <= hi_us; ++it) {
        f(*it);
      }
    }
  }

  /// Points with lo <= time <= hi (materialised copy).
  [[nodiscard]] std::vector<Point> in_window(TimePoint lo, TimePoint hi) const;

  /// Newest point time that is <= horizon (no horizon: newest overall).
  [[nodiscard]] std::optional<TimePoint> newest(
      std::optional<TimePoint> horizon) const;

  /// Drops points strictly older than `horizon` (whole chunks where
  /// possible) and rollup buckets that are entirely expired. Returns how
  /// many points were dropped.
  std::size_t drop_before(TimePoint horizon);

  /// Merges adjacent chunks that are sealed (end <= sealed_before_us) and
  /// small, bounding per-series chunk count for long retention windows.
  /// Returns the number of merges performed.
  std::size_t compact(std::int64_t sealed_before_us);

 private:
  Tags tags_;
  SeriesOptions options_;
  std::vector<Chunk> chunks_;  // sorted by start_us, non-overlapping
  std::vector<RollupBucket> rollups_[kRollupLevelCount];  // sorted by start
  std::size_t size_ = 0;
  std::int64_t newest_append_us_ = std::numeric_limits<std::int64_t>::min();

  void update_rollups(const Point& p);
};

/// A named measurement (e.g. "sgx/epc", "memory/usage") holding its series.
class Measurement {
 public:
  explicit Measurement(std::string name) : name_(std::move(name)) {}
  Measurement(std::string name, SeriesOptions options)
      : name_(std::move(name)), options_(options) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::size_t point_count() const { return points_; }
  /// Newest point time across the series (nullopt when none holds a
  /// point). Like point_count, it tracks writes made through append.
  [[nodiscard]] std::optional<TimePoint> newest_time() const {
    return newest_;
  }

  Series& series_for(const Tags& tags);
  /// As series_for, with the tags_key precomputed by the caller (the write
  /// path already hashed it for shard routing).
  Series& series_for(const Tags& tags, const std::string& key);
  [[nodiscard]] const Series* find_series(const Tags& tags) const;

  /// Appends one point, keeping the measurement's point counter in sync.
  void append(const Tags& tags, const std::string& key, Point p);

  /// Visits every series (const), in tags_key order.
  template <typename F>
  void for_each_series(F&& f) const {
    for (const auto& [key, s] : series_) {
      f(s);
    }
  }
  /// Visits (tags_key, series) pairs in tags_key order.
  template <typename F>
  void for_each_keyed_series(F&& f) const {
    for (const auto& [key, s] : series_) {
      f(key, s);
    }
  }

  using SeriesMap = std::map<std::string, Series>;
  [[nodiscard]] SeriesMap::const_iterator series_begin() const {
    return series_.begin();
  }
  [[nodiscard]] SeriesMap::const_iterator series_end() const {
    return series_.end();
  }

  /// Drops points older than `horizon` from every series, then erases the
  /// series left empty (Series::empty), and forgets the newest point time
  /// if it was older too. A later write to an erased tag set starts a
  /// fresh series. Returns how many points were dropped.
  std::size_t drop_before(TimePoint horizon);
  std::size_t compact(std::int64_t sealed_before_us);

 private:
  std::string name_;
  SeriesOptions options_;
  std::map<std::string, Series> series_;  // keyed by tags_key
  std::size_t points_ = 0;
  std::optional<TimePoint> newest_;
};

struct DatabaseConfig {
  /// Independent lock domains; series are routed by FNV-1a hash.
  std::size_t shards = 1;
  /// Width of the time partitions within each series.
  Duration chunk_width = Duration::minutes(10);
  /// Maintain 10 s / 60 s downsample levels on ingest.
  bool rollups = true;
};

/// The database: measurements by name, sharded by series hash, plus an
/// optional retention horizon.
///
/// Fault-injection surface: writes can be made to fail (samples are lost,
/// as when the real InfluxDB endpoint is unreachable) and reads can be
/// frozen at a horizon (queries see no point newer than it — a stale
/// replica). Both knobs exist database-wide and per shard; the chaos
/// harness drives them.
class Database {
 public:
  Database() : Database(DatabaseConfig{}) {}
  explicit Database(DatabaseConfig config);
  explicit Database(std::size_t shards)
      : Database(DatabaseConfig{shards, Duration::minutes(10), true}) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  [[nodiscard]] const DatabaseConfig& config() const { return config_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Shard a series routes to: fnv1a(measurement \n tags_key) % shards.
  [[nodiscard]] std::size_t shard_of(const std::string& measurement,
                                     const Tags& tags) const;

  /// Inserts one sample. Returns false (and drops the sample) while a
  /// write fault — global or on the routed shard — is active.
  bool write(const std::string& measurement, const Tags& tags, TimePoint time,
             double value);

  struct Sample {
    std::string measurement;
    Tags tags;
    TimePoint time;
    double value = 0.0;
  };
  /// Batch insert: groups samples by shard and takes each shard lock once.
  /// Relative order of samples routed to the same shard is preserved.
  /// Returns how many samples were accepted.
  std::size_t write_many(const std::vector<Sample>& batch);

  [[nodiscard]] bool has_measurement(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> measurement_names() const;
  [[nodiscard]] std::size_t total_points() const;
  [[nodiscard]] std::size_t series_count(const std::string& measurement) const;
  [[nodiscard]] std::size_t points_in(const std::string& measurement) const;
  [[nodiscard]] std::size_t chunk_count(const std::string& measurement) const;

  /// Visits every series of a measurement in canonical tags_key order —
  /// identical to the 1-shard iteration order, whatever the shard count.
  /// All shard locks are held for the duration of the visit.
  void for_each_series(const std::string& measurement,
                       const std::function<void(const Series&)>& f) const;

  /// Visits the series of one shard (tags_key order within the shard),
  /// holding only that shard's lock. The executor's fan-out path.
  void for_each_series_in_shard(
      const std::string& measurement, std::size_t shard,
      const std::function<void(const std::string&, const Series&)>& f) const;

  /// Deletes all points older than now - retention across all measurements.
  /// Returns the number of points dropped. The monitoring pipeline calls
  /// this periodically so long replays do not grow without bound.
  std::size_t enforce_retention(TimePoint now, Duration retention);

  /// Merges sealed chunks (older than one chunk width). Returns merges.
  std::size_t compact(TimePoint now);

  /// Periodic background work: retention then compaction. Returns the
  /// number of points dropped by retention.
  std::size_t maintain(TimePoint now, Duration retention);

  [[nodiscard]] std::uint64_t compactions() const;

  // ---- fault injection -----------------------------------------------------
  /// While set, every write (any shard) fails and is counted.
  void set_write_fault(bool faulted) { write_fault_ = faulted; }
  [[nodiscard]] bool write_fault() const { return write_fault_; }
  /// Sum of failed writes across shards.
  [[nodiscard]] std::uint64_t failed_writes() const;

  /// Per-shard write fault: only samples routed to `shard` are dropped.
  void set_shard_write_fault(std::size_t shard, bool faulted);
  [[nodiscard]] bool shard_write_fault(std::size_t shard) const;
  [[nodiscard]] std::uint64_t shard_failed_writes(std::size_t shard) const;

  /// While set, queries (and newest_time) see no point newer than
  /// `horizon` — a stale-read window. nullopt restores live reads.
  void set_read_horizon(std::optional<TimePoint> horizon) {
    read_horizon_ = horizon;
  }
  [[nodiscard]] std::optional<TimePoint> read_horizon() const {
    return read_horizon_;
  }

  /// Per-shard stale-read window: only series on `shard` are frozen.
  void set_shard_read_horizon(std::size_t shard,
                              std::optional<TimePoint> horizon);
  [[nodiscard]] std::optional<TimePoint> shard_read_horizon(
      std::size_t shard) const;
  /// The horizon a reader of `shard` must respect: the older of the
  /// global and the shard horizon (nullopt = live).
  [[nodiscard]] std::optional<TimePoint> effective_read_horizon(
      std::size_t shard) const;

  /// Timestamp of the newest *visible* point of a measurement (respects
  /// the read horizons); nullopt when the measurement is empty or unknown.
  /// The scheduler uses this to detect a stale metrics pipeline. O(shards)
  /// from each measurement's newest point time; only a shard under a read
  /// horizon walks its series.
  [[nodiscard]] std::optional<TimePoint> newest_time(
      const std::string& measurement) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Measurement> measurements;
    bool write_fault = false;
    std::uint64_t failed_writes = 0;
    std::uint64_t compactions = 0;
    std::optional<TimePoint> read_horizon;
  };

  [[nodiscard]] std::size_t route(const std::string& measurement,
                                  const std::string& key) const;
  Measurement& measurement_in(Shard& shard, const std::string& name);

  DatabaseConfig config_;
  SeriesOptions series_options_;
  std::vector<Shard> shards_;  // sized once at construction, never resized
  bool write_fault_ = false;
  std::optional<TimePoint> read_horizon_;
};

}  // namespace sgxo::tsdb
