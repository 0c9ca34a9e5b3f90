// In-memory time-series store modelled on InfluxDB's data model:
// measurement → (tag set ⇒ series) → time-ordered points.
//
// Heapster pushes per-pod regular-memory samples and the SGX probe pushes
// per-pod EPC samples into one Database; the scheduler then runs
// sliding-window queries (paper Listing 1) against it.
//
// The store is sharded: series are routed by an FNV-1a hash of
// (measurement, tag set) onto N shards, each a data layout and a fault
// domain. A shard's write fault and read horizon are the only fault state
// the database keeps; a fault on the whole database sets every shard's.
// The simulator is single-threaded, so shards take no locks. Each series
// keeps its points in one time-sorted vector: a window scan starts at one
// binary search, and retention erases the expired prefix.
// Each measurement also keeps a dense summary of its series (newest
// append, oldest point), so a windowed scan reads only the series with a
// recent append and retention trims only the series holding an expired
// point.
//
// A successful tag write also hands out the series' SeriesRef: a slot in
// the database-wide series table plus that slot's generation. A write
// through a live ref appends straight to its series, with no key render,
// routing or map lookup; the monitoring writers keep one ref per pod.
// Retention erasing a series frees its slot and stales its refs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace sgxo::tsdb {

/// Tag set. std::map keeps a canonical order, so equal tag sets compare
/// equal and can key series directly.
using Tags = std::map<std::string, std::string>;

/// Appends one "name=value" pair of a series or group key to `key`, after
/// a ',' unless `key` is empty. '\\', ',' and '=' in the name and the value
/// are backslash-escaped, as in InfluxDB's line protocol, so distinct tag
/// sets render distinct keys.
void append_tag(std::string& key, std::string_view name,
                std::string_view value);

/// Canonical "k1=v1,k2=v2" rendering through append_tag (used for
/// diagnostics and as a stable grouping key).
[[nodiscard]] std::string tags_key(const Tags& tags);

struct Point {
  TimePoint time;
  double value = 0.0;
};

/// Names one series for writes that skip the tag work: a slot in the
/// database's series table and the generation the slot had when the
/// series took it. Retention erasing the series bumps the generation, so
/// the ref stays stale even once another series reuses the slot. A
/// default ref is stale.
struct SeriesRef {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;
};

/// One series: a unique tag set within a measurement plus its points.
class Series {
 public:
  explicit Series(Tags tags) : tags_(std::move(tags)) {}

  [[nodiscard]] const Tags& tags() const { return tags_; }
  /// The series' ref (stale for a series no database holds).
  [[nodiscard]] SeriesRef ref() const { return ref_; }
  /// Every point, sorted by time (stable for equal times).
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// Largest timestamp ever appended (INT64_MIN before the first append).
  /// Retention never lowers it, so it bounds every point the series holds:
  /// a scan whose window starts after it can skip the series without
  /// looking inside.
  [[nodiscard]] std::int64_t newest_append_us() const {
    return newest_append_us_;
  }

  /// True once retention has removed every point.
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// Time of the oldest point; the series must not be empty.
  [[nodiscard]] TimePoint oldest() const { return points_.front().time; }

  /// Appends a point. Out-of-order writes are accepted (probes from
  /// different nodes are not synchronised) and kept sorted by time.
  void append(Point p);

  /// Visits every point with lo_us <= time <= hi_us, in time order.
  template <typename F>
  void for_each_in_window(std::int64_t lo_us, std::int64_t hi_us,
                          F&& f) const {
    auto it = std::lower_bound(points_.begin(), points_.end(), lo_us,
                               [](const Point& p, std::int64_t t) {
                                 return p.time.micros_since_epoch() < t;
                               });
    for (; it != points_.end() && it->time.micros_since_epoch() <= hi_us;
         ++it) {
      f(*it);
    }
  }

  /// Newest point time that is <= horizon (no horizon: newest overall).
  [[nodiscard]] std::optional<TimePoint> newest(
      std::optional<TimePoint> horizon) const;

  /// Drops points strictly older than `horizon`. Returns how many points
  /// were dropped.
  std::size_t drop_before(TimePoint horizon);

 private:
  friend class Measurement;

  Tags tags_;
  std::vector<Point> points_;  // sorted by time
  std::int64_t newest_append_us_ = std::numeric_limits<std::int64_t>::min();
  std::size_t entry_ = 0;  // index of its entry in the owner's summary
  SeriesRef ref_;          // its slot in the series table
};

class Measurement;

/// The database-wide series table behind SeriesRef: one slot per live
/// series, naming the series, the measurement that owns it and the shard
/// it routes to. Erasing a series frees its slot: the generation is
/// bumped and the slot goes on a free list for the next new series.
class SeriesTable {
 public:
  struct Slot {
    Measurement* measurement = nullptr;
    Series* series = nullptr;
    std::uint32_t shard = 0;
    std::uint32_t generation = 0;  // 1 on first use, so a default ref is stale
  };

  /// Gives a new series a slot and returns the series' ref.
  SeriesRef add(Measurement& measurement, Series& series, std::size_t shard);
  /// Frees the slot of an erased series: every ref to it goes stale.
  void remove(SeriesRef ref);

  /// The slot `ref` names while its series lives, else nullptr.
  [[nodiscard]] const Slot* find(SeriesRef ref) const {
    if (ref.slot >= slots_.size()) return nullptr;
    const Slot& slot = slots_[ref.slot];
    return slot.generation == ref.generation ? &slot : nullptr;
  }

 private:
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // slots of erased series
};

/// A named measurement (e.g. "sgx/epc", "memory/usage") holding its series.
/// It is the only writer of its series, so it keeps their summary exact.
class Measurement {
 public:
  using SeriesMap = std::map<std::string, Series>;

  /// A measurement on `shard` whose series take their slots in `table`.
  Measurement(std::string name, SeriesTable& table, std::size_t shard)
      : name_(std::move(name)), table_(&table), shard_(shard) {}

  // The series table points at it, so it never moves.
  Measurement(const Measurement&) = delete;
  Measurement& operator=(const Measurement&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::size_t point_count() const { return points_; }
  /// Newest point time across the series (nullopt when none holds a
  /// point). Like point_count, it tracks writes made through append.
  [[nodiscard]] std::optional<TimePoint> newest_time() const {
    return newest_;
  }

  [[nodiscard]] const Series* find_series(const Tags& tags) const;

  /// The series of `tags`, created on first use with an entry in the
  /// summary and a slot in the series table. `key` must be tags_key(tags)
  /// (the write path already rendered it for shard routing).
  Series& series_for(const Tags& tags, const std::string& key);

  /// Appends one point to `series`, which must be one of this
  /// measurement's. Tag writes and ref writes both append here.
  void append(Series& series, Point p);

  /// Visits every series (const), in tags_key order.
  template <typename F>
  void for_each_series(F&& f) const {
    for (const auto& [key, s] : series_) {
      f(s);
    }
  }

  /// Visits, in creation order, every series whose newest append is at or
  /// after `lo_us`: no other series holds a point a scan from `lo_us` can
  /// read. The summary picks them out without visiting the others.
  template <typename F>
  void for_each_series_since(std::int64_t lo_us, F&& f) const {
    for (const SummaryEntry& entry : summary_) {
      if (entry.newest_append_us >= lo_us) f(entry.series->second);
    }
  }

  /// Drops points older than `horizon`, then erases the series left empty
  /// (Series::empty), freeing their slots in the series table, and forgets
  /// the newest point time if it was older too. Only series whose oldest
  /// point is older than the horizon are touched: no other has a point to
  /// drop. A later write to an erased tag set starts a fresh series.
  /// Returns how many points were dropped.
  std::size_t drop_before(TimePoint horizon);

 private:
  /// One series' entry in the summary, exact after every append and
  /// retention pass. Entries stay in the order their series were created:
  /// a new series' entry goes last, and retention's compaction keeps the
  /// order of the entries it keeps.
  struct SummaryEntry {
    std::int64_t newest_append_us = 0;  // the series' newest_append_us()
    std::int64_t oldest_us = 0;         // the series' oldest() point time
    SeriesMap::iterator series;
  };

  std::string name_;
  SeriesTable* table_;
  std::size_t shard_;
  SeriesMap series_;                   // keyed by tags_key
  std::vector<SummaryEntry> summary_;  // one per series, in creation order
  std::size_t points_ = 0;
  std::optional<TimePoint> newest_;
};

/// The database: measurements by name, sharded by series hash (FNV-1a),
/// plus an optional retention horizon.
///
/// Fault-injection surface, per shard: writes routed to a shard can be
/// made to fail (samples are lost, as when the real InfluxDB endpoint is
/// unreachable) and a shard's reads can be frozen at a horizon (queries
/// see no point on it newer than the horizon — a stale replica). The chaos
/// harness drives both.
class Database {
 public:
  /// A shard count of 0 reads as 1.
  explicit Database(std::size_t shards = 1);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Shard a series routes to: fnv1a(measurement \n tags_key) % shards.
  [[nodiscard]] std::size_t shard_of(const std::string& measurement,
                                     const Tags& tags) const;

  /// Inserts one sample into the series of `tags`, creating it on first
  /// use, and returns the series' ref. Returns nullopt, drops the sample
  /// and creates no series while the routed shard's write fault is set.
  std::optional<SeriesRef> write(const std::string& measurement,
                                 const Tags& tags, TimePoint time,
                                 double value);

  /// Inserts one sample into the series `ref` names, which must be live:
  /// no key render, routing or lookup. Returns false, and drops the sample,
  /// while the series' shard's write fault is set.
  bool write(SeriesRef ref, TimePoint time, double value);

  /// True while the series `ref` names exists. Retention erasing it stales
  /// the ref for good; a writer holding a stale ref writes through the tag
  /// set again and keeps the ref that write returns.
  [[nodiscard]] bool live(SeriesRef ref) const {
    return table_.find(ref) != nullptr;
  }

  [[nodiscard]] bool has_measurement(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> measurement_names() const;
  [[nodiscard]] std::size_t total_points() const;
  [[nodiscard]] std::size_t series_count(const std::string& measurement) const;
  [[nodiscard]] std::size_t points_in(const std::string& measurement) const;

  /// The series of `measurement` stored on one shard (nullptr when the
  /// shard holds none). The executor folds a measurement shard by shard
  /// through this.
  [[nodiscard]] const Measurement* find_measurement(
      const std::string& measurement, std::size_t shard) const;

  /// Deletes all points older than now - retention across all measurements.
  /// Returns the number of points dropped. The monitoring pipeline calls
  /// this periodically so long replays do not grow without bound.
  std::size_t enforce_retention(TimePoint now, Duration retention);

  // ---- fault injection -----------------------------------------------------
  /// While set, every sample routed to `shard` fails and is counted.
  void set_shard_write_fault(std::size_t shard, bool faulted);
  [[nodiscard]] bool shard_write_fault(std::size_t shard) const;
  [[nodiscard]] std::uint64_t shard_failed_writes(std::size_t shard) const;
  /// Sum of failed writes across shards.
  [[nodiscard]] std::uint64_t failed_writes() const;

  /// While set, queries (and newest_time) see no point on `shard` newer
  /// than `horizon` — a stale-read window. nullopt restores live reads.
  void set_shard_read_horizon(std::size_t shard,
                              std::optional<TimePoint> horizon);
  [[nodiscard]] std::optional<TimePoint> shard_read_horizon(
      std::size_t shard) const;

  /// Timestamp of the newest *visible* point of a measurement (respects
  /// the shards' read horizons); nullopt when the measurement is empty or
  /// unknown.
  /// The scheduler uses this to detect a stale metrics pipeline. O(shards)
  /// from each measurement's newest point time; only a shard under a read
  /// horizon walks its series.
  [[nodiscard]] std::optional<TimePoint> newest_time(
      const std::string& measurement) const;

 private:
  struct Shard {
    std::map<std::string, Measurement> measurements;
    bool write_fault = false;
    std::uint64_t failed_writes = 0;
    std::optional<TimePoint> read_horizon;
  };

  [[nodiscard]] std::size_t route(const std::string& measurement,
                                  const std::string& key) const;
  Measurement& measurement_in(std::size_t shard, const std::string& name);

  std::vector<Shard> shards_;  // sized once at construction, never resized
  SeriesTable table_;
  std::string key_;  // write's series key, reused so a write allocates none
};

}  // namespace sgxo::tsdb
