#include "tsdb/model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "support/result_set.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb {
namespace {

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

/// A tag write into a bare measurement, as Database::write makes it.
void put(Measurement& m, const Tags& tags, Point p) {
  m.append(m.series_for(tags, tags_key(tags)), p);
}

/// The points of `s` with lo <= time <= hi, as the executor visits them.
std::vector<Point> window(const Series& s, TimePoint lo, TimePoint hi) {
  std::vector<Point> out;
  s.for_each_in_window(lo.micros_since_epoch(), hi.micros_since_epoch(),
                       [&](const Point& p) { out.push_back(p); });
  return out;
}

TEST(Tags, CanonicalKey) {
  EXPECT_EQ(tags_key({}), "");
  EXPECT_EQ(tags_key({{"b", "2"}, {"a", "1"}}), "a=1,b=2");
  // Separators inside a name or value are escaped, as is the escape.
  EXPECT_EQ(tags_key({{"a", "1,b=2"}}), R"(a=1\,b\=2)");
  EXPECT_EQ(tags_key({{"k=\\", "v"}}), R"(k\=\\=v)");
}

TEST(Series, AppendsInOrder) {
  Series s{{{"k", "v"}}};
  s.append({at(1), 1.0});
  s.append({at(2), 2.0});
  s.append({at(3), 3.0});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.points()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(s.points()[2].value, 3.0);
}

TEST(Series, OutOfOrderAppendsSorted) {
  Series s{{}};
  s.append({at(3), 3.0});
  s.append({at(1), 1.0});   // before every point
  s.append({at(2), 2.0});   // between two points
  s.append({at(2), 2.5});   // late, after the point it ties with
  s.append({at(3), 3.5});   // in order, after the point it ties with
  std::vector<double> values;
  for (const Point& p : s.points()) values.push_back(p.value);
  EXPECT_EQ(values, (std::vector<double>{1.0, 2.0, 2.5, 3.0, 3.5}));
  EXPECT_EQ(s.oldest(), at(1));
  EXPECT_EQ(s.newest_append_us(), at(3).micros_since_epoch());
}

TEST(Series, WindowQueryInclusive) {
  Series s{{}};
  for (int i = 1; i <= 10; ++i) {
    s.append({at(i), static_cast<double>(i)});
  }
  // Both edges on sample instants: both samples are in.
  const auto inner = window(s, at(3), at(6));
  ASSERT_EQ(inner.size(), 4u);
  EXPECT_DOUBLE_EQ(inner.front().value, 3.0);
  EXPECT_DOUBLE_EQ(inner.back().value, 6.0);
  // Edges on the first and the last sample, and one-instant windows.
  EXPECT_EQ(window(s, at(0), at(1)).size(), 1u);
  EXPECT_EQ(window(s, at(10), at(20)).size(), 1u);
  EXPECT_EQ(window(s, at(7), at(7)).size(), 1u);
  EXPECT_EQ(window(s, at(1), at(10)).size(), 10u);
}

TEST(Series, EmptyWindow) {
  Series s{{}};
  s.append({at(10), 1.0});
  EXPECT_TRUE(window(s, at(1), at(5)).empty());
  EXPECT_TRUE(window(s, at(11), at(20)).empty());
  EXPECT_TRUE(window(s, at(10), at(5)).empty());  // lo after hi
}

TEST(Series, DropBeforeRemovesOldPoints) {
  Series s{{}};
  for (int i = 1; i <= 5; ++i) {
    s.append({at(i), static_cast<double>(i)});
  }
  // Strictly older points go; one at the horizon stays.
  EXPECT_EQ(s.drop_before(at(3)), 2u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.oldest(), at(3));
  EXPECT_EQ(s.drop_before(at(3)), 0u);
  // newest(horizon) after the trim: nothing left at or before 2 s.
  EXPECT_EQ(s.newest(at(2)), std::nullopt);
  EXPECT_EQ(s.newest(at(3)), at(3));
  EXPECT_EQ(s.newest(at(4)), at(4));
  EXPECT_EQ(s.newest(std::nullopt), at(5));
  // A horizon past every point empties the series.
  EXPECT_EQ(s.drop_before(at(100)), 3u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.newest(std::nullopt), std::nullopt);
  EXPECT_EQ(s.drop_before(at(200)), 0u);
}

TEST(Measurement, SeriesIdentityByTags) {
  SeriesTable table;
  Measurement m{"m", table, 0};
  put(m, {{"pod", "a"}}, {at(1), 1.0});
  const Series* a = m.find_series({{"pod", "a"}});
  put(m, {{"pod", "b"}}, {at(1), 2.0});
  put(m, {{"pod", "a"}}, {at(2), 3.0});
  EXPECT_EQ(m.find_series({{"pod", "a"}}), a);
  EXPECT_NE(m.find_series({{"pod", "b"}}), a);
  EXPECT_EQ(a->size(), 2u);
  EXPECT_EQ(m.series_count(), 2u);
}

TEST(Measurement, FindSeries) {
  SeriesTable table;
  Measurement m{"m", table, 0};
  put(m, {{"pod", "a"}}, {at(1), 1.0});
  EXPECT_NE(m.find_series({{"pod", "a"}}), nullptr);
  EXPECT_EQ(m.find_series({{"pod", "zzz"}}), nullptr);
}

TEST(Measurement, ScanVisitsOnlySeriesAppendedSinceInCreationOrder) {
  SeriesTable table;
  Measurement m{"m", table, 0};
  put(m, {{"pod", "d"}}, {at(40), 1.0});
  put(m, {{"pod", "b"}}, {at(10), 1.0});
  put(m, {{"pod", "c"}}, {at(50), 1.0});
  put(m, {{"pod", "a"}}, {at(45), 1.0});
  put(m, {{"pod", "b"}}, {at(5), 1.0});  // late: b stays at 10 s
  put(m, {{"pod", "d"}}, {at(60), 1.0});
  const auto visited = [&](std::int64_t lo_s) {
    std::vector<std::string> pods;
    m.for_each_series_since(at(lo_s).micros_since_epoch(),
                            [&](const Series& series) {
                              pods.push_back(series.tags().at("pod"));
                            });
    return pods;
  };
  EXPECT_EQ(visited(0), (std::vector<std::string>{"d", "b", "c", "a"}));
  EXPECT_EQ(visited(11), (std::vector<std::string>{"d", "c", "a"}));
  EXPECT_EQ(visited(45), (std::vector<std::string>{"d", "c", "a"}));
  EXPECT_EQ(visited(51), (std::vector<std::string>{"d"}));
  EXPECT_TRUE(visited(61).empty());
}

TEST(Measurement, SummaryStaysExactWhenRetentionErasesSeries) {
  SeriesTable table;
  Measurement m{"m", table, 0};
  put(m, {{"pod", "a"}}, {at(10), 1.0});
  put(m, {{"pod", "b"}}, {at(20), 2.0});
  put(m, {{"pod", "c"}}, {at(100), 3.0});
  put(m, {{"pod", "d"}}, {at(110), 4.0});
  // a and b empty, and the series after them move up in the summary.
  EXPECT_EQ(m.drop_before(at(50)), 2u);
  EXPECT_EQ(m.series_count(), 2u);
  // Writes to the moved series update their own entries.
  put(m, {{"pod", "d"}}, {at(200), 5.0});
  put(m, {{"pod", "c"}}, {at(60), 6.0});  // late: oldest now 60 s
  std::vector<std::string> hot;
  m.for_each_series_since(
      at(150).micros_since_epoch(),
      [&](const Series& series) { hot.push_back(series.tags().at("pod")); });
  EXPECT_EQ(hot, std::vector<std::string>{"d"});
  // Horizon 80 s: only c's late point is older.
  EXPECT_EQ(m.drop_before(at(80)), 1u);
  EXPECT_EQ(m.point_count(), 3u);
  EXPECT_EQ(m.find_series({{"pod", "c"}})->oldest(), at(100));
  // Horizon 150 s: c empties, d keeps its 200 s point.
  EXPECT_EQ(m.drop_before(at(150)), 2u);
  EXPECT_EQ(m.series_count(), 1u);
  EXPECT_EQ(m.find_series({{"pod", "d"}})->oldest(), at(200));
}

TEST(Database, WriteCreatesMeasurementsAndSeries) {
  Database db;
  db.write("sgx/epc", {{"pod_name", "p1"}, {"nodename", "n1"}}, at(1), 42.0);
  db.write("sgx/epc", {{"pod_name", "p2"}, {"nodename", "n1"}}, at(1), 7.0);
  db.write("memory/usage", {{"pod_name", "p1"}}, at(1), 1.0);
  ASSERT_TRUE(db.has_measurement("sgx/epc"));
  EXPECT_EQ(db.series_count("sgx/epc"), 2u);
  EXPECT_FALSE(db.has_measurement("nothing"));
  EXPECT_EQ(db.total_points(), 3u);
  EXPECT_EQ(db.points_in("sgx/epc"), 2u);
  EXPECT_EQ(db.measurement_names(),
            (std::vector<std::string>{"memory/usage", "sgx/epc"}));
}

TEST(Database, TagSetsThatRenderAlikeUnescapedAreTwoSeries) {
  // Without escaping, both tag sets would render the key "a=1,b=2".
  const Tags joined{{"a", "1,b=2"}};
  const Tags split{{"a", "1"}, {"b", "2"}};
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    db.write("m", joined, at(0), 1.0);
    db.write("m", split, at(0), 2.0);
    EXPECT_EQ(db.series_count("m"), 2u);
    for (const Tags& tags : {joined, split}) {
      const Measurement* m = db.find_measurement("m", db.shard_of("m", tags));
      ASSERT_NE(m, nullptr);
      const Series* series = m->find_series(tags);
      ASSERT_NE(series, nullptr);
      EXPECT_EQ(series->tags(), tags);
      EXPECT_EQ(series->size(), 1u);
    }
    const ql::ResultSet result =
        ql::query("SELECT SUM(value) AS s FROM m GROUP BY b", db, at(0));
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(value_for(result, "b", "", "s", -1.0), 1.0);
    EXPECT_EQ(value_for(result, "b", "2", "s", -1.0), 2.0);
  }
}

TEST(Database, RejectsEmptyMeasurementName) {
  Database db;
  EXPECT_THROW(db.write("", {}, at(1), 1.0), ContractViolation);
}

TEST(Database, RetentionDropsOldPoints) {
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.write("m", {{"k", "v"}}, at(i), static_cast<double>(i));
  }
  const std::size_t dropped =
      db.enforce_retention(at(100), Duration::seconds(30));
  EXPECT_EQ(dropped, 70u);
  EXPECT_EQ(db.total_points(), 30u);
}

TEST(Database, RetentionRequiresPositiveWindow) {
  Database db;
  EXPECT_THROW(db.enforce_retention(at(10), Duration{}), ContractViolation);
}

// --- Points spread over minutes -----------------------------------------
// These cases are named for the 100 s and 60 s chunks a series was once
// cut into. Their points still cross those boundaries; the one sorted
// vector must give the answers the chunks gave.

TEST(Series, OutOfOrderAcrossChunkBoundary) {
  Series s{{}};
  s.append({at(150), 150.0});
  s.append({at(50), 50.0});    // 100 s before every point
  s.append({at(120), 120.0});  // between two points
  ASSERT_EQ(s.size(), 3u);
  const auto& flat = s.points();
  EXPECT_EQ(flat[0].time, at(50));
  EXPECT_EQ(flat[1].time, at(120));
  EXPECT_EQ(flat[2].time, at(150));
  EXPECT_EQ(s.oldest(), at(50));
}

TEST(Series, WindowStraddlesChunkBoundary) {
  Series s{{}};
  for (int i = 0; i < 300; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  const auto straddling = window(s, at(90), at(210));
  ASSERT_EQ(straddling.size(), 13u);  // 90,100,...,210
  EXPECT_EQ(straddling.front().time, at(90));
  EXPECT_EQ(straddling.back().time, at(210));
}

TEST(Series, DropBeforeAcrossChunks) {
  Series s{{}};
  for (int i = 0; i < 300; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  // Horizon 150 s: 0..140 go, 150..290 stay.
  EXPECT_EQ(s.drop_before(at(150)), 15u);
  EXPECT_EQ(s.size(), 15u);
  EXPECT_EQ(s.points().front().time, at(150));
  EXPECT_EQ(s.points().back().time, at(290));
}

TEST(Series, DropBeforeErasesTheChunkItEmpties) {
  Series s{{}};
  for (int i = 0; i <= 50; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  s.append({at(70), 70.0});
  // Horizon 55 s drops every point of the first minute.
  EXPECT_EQ(s.drop_before(at(55)), 6u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.oldest(), at(70));
  EXPECT_EQ(s.newest(at(65)), std::nullopt);
  EXPECT_EQ(s.newest(std::nullopt), at(70));
}

// --- Series lifecycle ----------------------------------------------------

TEST(Series, NewestAppendBoundSurvivesRetention) {
  Series s{{}};
  EXPECT_EQ(s.newest_append_us(), std::numeric_limits<std::int64_t>::min());
  s.append({at(30), 1.0});
  s.append({at(10), 2.0});  // out of order: the bound stays at 30 s
  EXPECT_EQ(s.newest_append_us(), at(30).micros_since_epoch());
  s.drop_before(at(1000));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.newest_append_us(), at(30).micros_since_epoch());
}

TEST(Measurement, RetentionErasesSeriesWithNoPointsAndNoBuckets) {
  SeriesTable table;
  Measurement m{"m", table, 0};
  put(m, {{"pod", "gone"}}, {at(5), 1.0});
  put(m, {{"pod", "live"}}, {at(560), 2.0});
  // Horizon 540 s: every point of "gone" is expired.
  EXPECT_EQ(m.drop_before(at(540)), 1u);
  EXPECT_EQ(m.series_count(), 1u);
  EXPECT_EQ(m.find_series({{"pod", "gone"}}), nullptr);
  EXPECT_NE(m.find_series({{"pod", "live"}}), nullptr);
  EXPECT_EQ(m.point_count(), 1u);
}

TEST(Database, LateWriteRecreatesErasedSeriesFromScratch) {
  Database db;
  for (int t = 10; t <= 50; t += 10) {
    db.write("m", {{"pod", "a"}}, at(t), 100.0 + t);
  }
  db.write("m", {{"pod", "b"}}, at(200), 1.0);
  db.enforce_retention(at(200), Duration::seconds(100));  // horizon 100 s
  ASSERT_EQ(db.series_count("m"), 1u);
  // A late, out-of-order sample for "a": older than the newest write in
  // the store, newer than the horizon.
  db.write("m", {{"pod", "a"}}, at(110), 7.0);
  EXPECT_EQ(db.series_count("m"), 2u);
  const Measurement* m = db.find_measurement("m", 0);
  ASSERT_NE(m, nullptr);
  m->for_each_series([](const Series& series) {
    if (series.tags().at("pod") != "a") return;
    EXPECT_EQ(series.size(), 1u);
    EXPECT_EQ(series.newest_append_us(), at(110).micros_since_epoch());
  });
  // Over the whole history "a" sums to its late sample alone.
  const ql::ResultSet result = ql::query(
      "SELECT SUM(value) AS s FROM \"m\" WHERE time >= now() - 200s "
      "GROUP BY pod",
      db, at(200));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].tags.at("pod"), "a");
  EXPECT_EQ(result.rows[0].time, at(110));
  EXPECT_EQ(result.rows[0].field("s"), 7.0);
}

TEST(Database, NewestTimeIsNulloptOnceEveryPointExpired) {
  Database db;
  db.write("m", {{"pod", "a"}}, at(10), 1.0);
  db.write("m", {{"pod", "b"}}, at(65), 2.0);
  ASSERT_EQ(db.newest_time("m"), at(65));
  // Horizon 100 s: both series hold no sample any more, so both are
  // erased and the pipeline reads as empty.
  db.enforce_retention(at(160), Duration::seconds(60));
  EXPECT_EQ(db.series_count("m"), 0u);
  EXPECT_FALSE(db.newest_time("m").has_value());
}

// --- Sharded database --------------------------------------------------

TEST(Database, ShardRoutingIsStableAndInRange) {
  Database db{4};
  EXPECT_EQ(db.shard_count(), 4u);
  const Tags tags{{"pod_name", "p1"}};
  const std::size_t shard = db.shard_of("sgx/epc", tags);
  EXPECT_LT(shard, 4u);
  EXPECT_EQ(db.shard_of("sgx/epc", tags), shard);  // deterministic
}

TEST(Database, ShardedWritesAreVisibleAcrossAllReads) {
  Database db{4};
  for (int i = 0; i < 64; ++i) {
    db.write("m", {{"s", std::to_string(i)}}, at(i), static_cast<double>(i));
  }
  EXPECT_EQ(db.total_points(), 64u);
  EXPECT_EQ(db.series_count("m"), 64u);
  std::size_t seen = 0;
  for (std::size_t shard = 0; shard < db.shard_count(); ++shard) {
    const Measurement* m = db.find_measurement("m", shard);
    if (m == nullptr) continue;
    m->for_each_series([&](const Series& series) { seen += series.size(); });
  }
  EXPECT_EQ(seen, 64u);
}

TEST(Database, PerShardWriteFaultOnlyDropsThatShard) {
  Database db{4};
  // Find two tag sets landing on different shards.
  const Tags a{{"s", "0"}};
  Tags b;
  for (int i = 1; i < 64; ++i) {
    b = Tags{{"s", std::to_string(i)}};
    if (db.shard_of("m", b) != db.shard_of("m", a)) break;
  }
  ASSERT_NE(db.shard_of("m", a), db.shard_of("m", b));
  db.set_shard_write_fault(db.shard_of("m", a), true);
  EXPECT_FALSE(db.write("m", a, at(1), 1.0));
  EXPECT_TRUE(db.write("m", b, at(1), 1.0));
  EXPECT_EQ(db.shard_failed_writes(db.shard_of("m", a)), 1u);
  EXPECT_EQ(db.failed_writes(), 1u);
  db.set_shard_write_fault(db.shard_of("m", a), false);
  EXPECT_TRUE(db.write("m", a, at(2), 2.0));
  EXPECT_EQ(db.total_points(), 2u);
}

TEST(Database, ShardedRetentionMatchesFlat) {
  Database sharded{4};
  Database flat{1};
  for (int i = 0; i < 100; ++i) {
    const Tags tags{{"s", std::to_string(i % 7)}};
    sharded.write("m", tags, at(i), static_cast<double>(i));
    flat.write("m", tags, at(i), static_cast<double>(i));
  }
  const std::size_t a =
      sharded.enforce_retention(at(100), Duration::seconds(30));
  const std::size_t b = flat.enforce_retention(at(100), Duration::seconds(30));
  EXPECT_EQ(a, b);
  EXPECT_EQ(sharded.total_points(), flat.total_points());
}

// --- Series refs ---------------------------------------------------------

/// The series of `tags` in measurement `name`, or nullptr.
const Series* series_of(const Database& db, const Tags& tags,
                        const std::string& name = "m") {
  const Measurement* m = db.find_measurement(name, db.shard_of(name, tags));
  return m == nullptr ? nullptr : m->find_series(tags);
}

std::vector<double> values_of(const Series& series) {
  std::vector<double> values;
  for (const Point& p : series.points()) values.push_back(p.value);
  return values;
}

TEST(SeriesRef, RefAndTagWritesLandInOneSeries) {
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    const Tags tags{{"nodename", "n"}, {"pod_name", "p"}};
    const std::optional<SeriesRef> ref = db.write("m", tags, at(1), 1.0);
    ASSERT_TRUE(ref.has_value());
    EXPECT_TRUE(db.live(*ref));
    EXPECT_TRUE(db.write(*ref, at(2), 2.0));
    // The tag write finds the series the ref names and hands out its ref.
    const std::optional<SeriesRef> again = db.write("m", tags, at(3), 3.0);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->slot, ref->slot);
    EXPECT_EQ(again->generation, ref->generation);
    EXPECT_TRUE(db.write(*ref, at(0), 0.5));  // late, through the ref
    EXPECT_EQ(db.series_count("m"), 1u);
    EXPECT_EQ(db.points_in("m"), 4u);
    EXPECT_EQ(db.total_points(), 4u);
    EXPECT_EQ(db.newest_time("m"), at(3));
    const Series* series = series_of(db, tags);
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(values_of(*series), (std::vector<double>{0.5, 1.0, 2.0, 3.0}));
    // Ref-written points keep the measurement's summary exact: a windowed
    // scan finds them: the samples at 2 s and 3 s.
    const ql::ResultSet window = ql::query(
        "SELECT SUM(value) AS s FROM m WHERE time >= now() - 1s", db, at(3));
    ASSERT_EQ(window.rows.size(), 1u);
    EXPECT_EQ(window.rows[0].time, at(2));
    EXPECT_EQ(window.rows[0].field("s"), 5.0);
  }
}

TEST(SeriesRef, RetentionStalesTheRefAndTheTagWriteStartsAFreshSeries) {
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    const Tags gone{{"pod_name", "gone"}};
    const Tags kept{{"pod_name", "kept"}};
    const SeriesRef old = db.write("m", gone, at(10), 1.0).value();
    const SeriesRef trimmed = db.write("m", kept, at(10), 1.0).value();
    ASSERT_TRUE(db.write(trimmed, at(200), 2.0));
    // Horizon 100 s: "gone" is erased, "kept" only loses its first point.
    EXPECT_EQ(db.enforce_retention(at(200), Duration::seconds(100)), 2u);
    EXPECT_FALSE(db.live(old));
    EXPECT_TRUE(db.live(trimmed));
    EXPECT_THROW(db.write(old, at(150), 3.0), ContractViolation);
    EXPECT_EQ(db.total_points(), 1u);
    // The writer's fallback: the tag write makes a fresh series, whose
    // first point is the new one.
    const SeriesRef fresh = db.write("m", gone, at(150), 3.0).value();
    EXPECT_TRUE(db.live(fresh));
    EXPECT_FALSE(db.live(old));
    EXPECT_EQ(db.series_count("m"), 2u);
    const Series* series = series_of(db, gone);
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(values_of(*series), std::vector<double>{3.0});
    EXPECT_EQ(series->newest_append_us(), at(150).micros_since_epoch());
    EXPECT_TRUE(db.write(fresh, at(210), 4.0));
    EXPECT_EQ(values_of(*series), (std::vector<double>{3.0, 4.0}));
  }
}

TEST(SeriesRef, OldRefIsRejectedAfterAnotherSeriesReusesItsSlot) {
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    EXPECT_FALSE(db.live(SeriesRef{}));  // a default ref names no series
    std::vector<SeriesRef> old;
    old.push_back(db.write("m", {{"pod_name", "p0"}}, at(0), 1.0).value());
    for (int round = 1; round <= 3; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      // Retention erases the one series, and the next new series, of
      // another tag set and even another measurement, takes its slot.
      db.enforce_retention(at(100 * round), Duration::seconds(50));
      ASSERT_EQ(db.total_points(), 0u);
      const Tags tags{{"pod_name", "p" + std::to_string(round)}};
      const std::string name = round % 2 == 0 ? "m" : "other";
      const SeriesRef reused = db.write(name, tags, at(100 * round), 2.0).value();
      EXPECT_EQ(reused.slot, old.front().slot);
      for (const SeriesRef& stale : old) {
        EXPECT_NE(reused.generation, stale.generation);
        EXPECT_FALSE(db.live(stale));
        EXPECT_THROW(db.write(stale, at(100 * round), 9.0), ContractViolation);
      }
      EXPECT_TRUE(db.write(reused, at(100 * round + 1), 3.0));
      const Series* series = series_of(db, tags, name);
      ASSERT_NE(series, nullptr);
      EXPECT_EQ(values_of(*series), (std::vector<double>{2.0, 3.0}));
      EXPECT_EQ(db.total_points(), 2u);
      old.push_back(reused);
    }
  }
}

TEST(SeriesRef, RefWriteUnderAFaultCountsOnTheRoutedShardAndStoresNothing) {
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    const Tags tags{{"pod_name", "p"}};
    const std::size_t shard = db.shard_of("m", tags);
    const SeriesRef ref = db.write("m", tags, at(1), 1.0).value();
    db.set_shard_write_fault(shard, true);
    EXPECT_FALSE(db.write(ref, at(3), 3.0));
    EXPECT_EQ(db.write("m", tags, at(4), 4.0), std::nullopt);
    EXPECT_EQ(db.shard_failed_writes(shard), 2u);
    EXPECT_EQ(db.failed_writes(), 2u);
    EXPECT_EQ(db.points_in("m"), 1u);
    EXPECT_EQ(db.newest_time("m"), at(1));
    // A fault drops samples; the series and its ref stay.
    EXPECT_TRUE(db.live(ref));
    db.set_shard_write_fault(shard, false);
    EXPECT_TRUE(db.write(ref, at(5), 5.0));
    EXPECT_EQ(values_of(*series_of(db, tags)),
              (std::vector<double>{1.0, 5.0}));
  }
}

TEST(SeriesRef, FailedTagWriteCreatesNoSeries) {
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    const Tags tags{{"pod_name", "p"}};
    db.set_shard_write_fault(db.shard_of("m", tags), true);
    EXPECT_EQ(db.write("m", tags, at(1), 1.0), std::nullopt);
    EXPECT_EQ(db.series_count("m"), 0u);
    EXPECT_EQ(db.failed_writes(), 1u);
    db.set_shard_write_fault(db.shard_of("m", tags), false);
    // The first series the database makes takes the first slot.
    const SeriesRef ref = db.write("m", tags, at(2), 2.0).value();
    EXPECT_EQ(ref.slot, 0u);
    EXPECT_EQ(db.series_count("m"), 1u);
  }
}

}  // namespace
}  // namespace sgxo::tsdb
