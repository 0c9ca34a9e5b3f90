#include "tsdb/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb {
namespace {

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

TEST(Tags, CanonicalKey) {
  EXPECT_EQ(tags_key({}), "");
  EXPECT_EQ(tags_key({{"b", "2"}, {"a", "1"}}), "a=1,b=2");
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
  s.append({at(1), 1.0});
  s.append({at(2), 2.0});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.points()[0].time, at(1));
  EXPECT_EQ(s.points()[1].time, at(2));
  EXPECT_EQ(s.points()[2].time, at(3));
}

TEST(Series, WindowQueryInclusive) {
  Series s{{}};
  for (int i = 1; i <= 10; ++i) {
    s.append({at(i), static_cast<double>(i)});
  }
  const auto window = s.in_window(at(3), at(6));
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front().value, 3.0);
  EXPECT_DOUBLE_EQ(window.back().value, 6.0);
}

TEST(Series, EmptyWindow) {
  Series s{{}};
  s.append({at(10), 1.0});
  EXPECT_TRUE(s.in_window(at(1), at(5)).empty());
}

TEST(Series, DropBeforeRemovesOldPoints) {
  Series s{{}};
  for (int i = 1; i <= 5; ++i) {
    s.append({at(i), static_cast<double>(i)});
  }
  EXPECT_EQ(s.drop_before(at(3)), 2u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.points().front().time, at(3));
}

TEST(Measurement, SeriesIdentityByTags) {
  Measurement m{"m"};
  Series& a = m.series_for({{"pod", "a"}});
  Series& b = m.series_for({{"pod", "b"}});
  Series& a_again = m.series_for({{"pod", "a"}});
  EXPECT_EQ(&a, &a_again);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(m.series_count(), 2u);
}

TEST(Measurement, FindSeries) {
  Measurement m{"m"};
  m.series_for({{"pod", "a"}}).append({at(1), 1.0});
  EXPECT_NE(m.find_series({{"pod", "a"}}), nullptr);
  EXPECT_EQ(m.find_series({{"pod", "zzz"}}), nullptr);
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

// --- Time-partitioned chunks -------------------------------------------

TEST(Series, PartitionsIntoAlignedChunks) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 250; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  // Points span [0, 240] → chunks [0,100), [100,200), [200,300).
  EXPECT_EQ(s.chunk_count(), 3u);
  EXPECT_EQ(s.size(), 25u);
  const auto& chunks = s.chunks();
  EXPECT_EQ(chunks[0].start_us, 0);
  EXPECT_EQ(chunks[0].end_us, 100'000'000);
  EXPECT_EQ(chunks[1].start_us, 100'000'000);
  EXPECT_EQ(chunks[2].start_us, 200'000'000);
}

TEST(Series, OutOfOrderAcrossChunkBoundary) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  s.append({at(150), 150.0});
  s.append({at(50), 50.0});   // lands in an earlier, newly created chunk
  s.append({at(120), 120.0});  // lands mid-chunk, before 150
  ASSERT_EQ(s.size(), 3u);
  const auto flat = s.points();
  EXPECT_EQ(flat[0].time, at(50));
  EXPECT_EQ(flat[1].time, at(120));
  EXPECT_EQ(flat[2].time, at(150));
  EXPECT_EQ(s.chunk_count(), 2u);
}

TEST(Series, WindowStraddlesChunkBoundary) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 300; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  const auto window = s.in_window(at(90), at(210));
  ASSERT_EQ(window.size(), 13u);  // 90,100,...,210
  EXPECT_EQ(window.front().time, at(90));
  EXPECT_EQ(window.back().time, at(210));
}

TEST(Series, DropBeforeAcrossChunks) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 300; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  // Horizon 150 s: chunk [0,100) drops whole, [100,200) trims 100..140.
  EXPECT_EQ(s.drop_before(at(150)), 15u);
  EXPECT_EQ(s.size(), 15u);
  EXPECT_EQ(s.points().front().time, at(150));
  EXPECT_EQ(s.chunk_count(), 2u);
}

TEST(Series, CompactMergesSealedChunks) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 400; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  ASSERT_EQ(s.chunk_count(), 4u);
  // Everything before 300 s is sealed → the first three chunks merge; the
  // live chunk [300,400) is left alone.
  const std::size_t merged =
      s.compact(Duration::seconds(300).micros_count());
  EXPECT_GT(merged, 0u);
  EXPECT_EQ(s.chunk_count(), 2u);
  EXPECT_EQ(s.size(), 40u);
  const auto flat = s.points();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(flat[static_cast<std::size_t>(i)].time, at(i * 10));
  }
}

// --- Rollups -----------------------------------------------------------

TEST(Series, RollupBucketsAggregateCorrectly) {
  Series s{{}};
  // 10 s level: points at 1..9 s fall into bucket [0,10); 11..19 s into
  // [10,20).
  s.append({at(1), 4.0});
  s.append({at(5), 2.0});
  s.append({at(9), 6.0});
  s.append({at(11), 10.0});
  const auto& level0 = s.rollup(0);
  ASSERT_EQ(level0.size(), 2u);
  EXPECT_EQ(level0[0].start_us, 0);
  EXPECT_EQ(level0[0].count, 3u);
  EXPECT_DOUBLE_EQ(level0[0].sum, 12.0);
  EXPECT_DOUBLE_EQ(level0[0].min, 2.0);
  EXPECT_DOUBLE_EQ(level0[0].max, 6.0);
  EXPECT_DOUBLE_EQ(level0[0].first, 4.0);
  EXPECT_DOUBLE_EQ(level0[0].last, 6.0);
  EXPECT_EQ(level0[1].start_us, 10'000'000);
  EXPECT_EQ(level0[1].count, 1u);
}

TEST(Series, RollupHandlesOutOfOrderIngest) {
  Series s{{}};
  s.append({at(9), 9.0});
  s.append({at(1), 1.0});  // earlier point in the same bucket
  const auto& level0 = s.rollup(0);
  ASSERT_EQ(level0.size(), 1u);
  EXPECT_DOUBLE_EQ(level0[0].first, 1.0);
  EXPECT_EQ(level0[0].first_time_us, Duration::seconds(1).micros_count());
  EXPECT_DOUBLE_EQ(level0[0].last, 9.0);
}

TEST(Series, RollupsDisabledWhenConfigured) {
  SeriesOptions options;
  options.rollups = false;
  Series s{{}, options};
  s.append({at(1), 1.0});
  EXPECT_TRUE(s.rollup(0).empty());
  EXPECT_TRUE(s.rollup(1).empty());
}

TEST(Series, RetentionDropsOnlyFullyExpiredRollupBuckets) {
  Series s{{}};
  s.append({at(5), 5.0});
  s.append({at(15), 15.0});
  s.append({at(25), 25.0});
  ASSERT_EQ(s.rollup(0).size(), 3u);
  // Horizon 12 s: bucket [0,10) is fully expired; [10,20) straddles the
  // horizon and must survive (queries under the horizon fall back to raw).
  s.drop_before(at(12));
  ASSERT_EQ(s.rollup(0).size(), 2u);
  EXPECT_EQ(s.rollup(0)[0].start_us, 10'000'000);
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
  Measurement m{"m"};
  m.append({{"pod", "gone"}}, "pod=gone", {at(5), 1.0});
  m.append({{"pod", "live"}}, "pod=live", {at(560), 2.0});
  // Horizon 540 s: every point of "gone" and both of its buckets ([0,10)
  // and [0,60)) are expired.
  EXPECT_EQ(m.drop_before(at(540)), 1u);
  EXPECT_EQ(m.series_count(), 1u);
  EXPECT_EQ(m.find_series({{"pod", "gone"}}), nullptr);
  EXPECT_NE(m.find_series({{"pod", "live"}}), nullptr);
  EXPECT_EQ(m.point_count(), 1u);
}

TEST(Measurement, PartiallyExpiredRollupBucketKeepsSeries) {
  Measurement m{"m"};
  m.append({{"pod", "a"}}, "pod=a", {at(65), 3.0});
  // Horizon 100 s drops the point and the 10 s bucket [60,70), but the
  // 60 s bucket [60,120) still straddles the horizon.
  EXPECT_EQ(m.drop_before(at(100)), 1u);
  const Series* s = m.find_series({{"pod", "a"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->size(), 0u);
  EXPECT_TRUE(s->rollup(0).empty());
  ASSERT_EQ(s->rollup(1).size(), 1u);
  EXPECT_FALSE(s->empty());
  // Once the bucket's end passes the horizon the series goes too.
  m.drop_before(at(120));
  EXPECT_EQ(m.series_count(), 0u);
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
  db.for_each_series("m", [](const Series& series) {
    if (series.tags().at("pod") != "a") return;
    EXPECT_EQ(series.size(), 1u);
    EXPECT_EQ(series.newest_append_us(), at(110).micros_since_epoch());
    EXPECT_EQ(series.rollup(0).size(), 1u);
    EXPECT_EQ(series.rollup(0)[0].count, 1u);
  });
  const ql::ResultSet result = ql::query(
      "SELECT COUNT(value) AS n, SUM(value) AS s FROM \"m\" "
      "WHERE time >= 0s GROUP BY pod",
      db, at(200));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].tags.at("pod"), "a");
  EXPECT_EQ(result.rows[0].time, at(110));
  EXPECT_EQ(result.rows[0].field("n"), 1.0);
  EXPECT_EQ(result.rows[0].field("s"), 7.0);
}

TEST(Database, RollupQueryBelowRetentionHorizonIsUnchanged) {
  // A partially expired 60 s bucket still summarises points retention
  // already dropped, so a rollup-served window reaching below the horizon
  // folds them. These rows were computed before series were ever erased
  // or skipped; the lifecycle must not move them.
  Database db;
  for (std::int64_t t = 0; t <= 3600; t += 5) {
    db.write("m", {{"pod", "a"}}, at(t), static_cast<double>(t % 97 + 1));
  }
  for (std::int64_t t = 0; t <= 3600; t += 10) {
    db.write("m", {{"pod", "b"}}, at(t), static_cast<double>(2 * (t % 53)));
  }
  // "c" has no raw point left after retention; only its straddling 60 s
  // bucket [2400,2460) survives, and it must keep answering.
  for (std::int64_t t = 2400; t <= 2425; t += 5) {
    db.write("m", {{"pod", "c"}}, at(t), static_cast<double>(t - 2393));
  }
  db.enforce_retention(at(3600), Duration::seconds(1170));  // horizon 2430 s
  EXPECT_EQ(db.series_count("m"), 3u);
  EXPECT_EQ(db.total_points(), 353u);

  ql::ExecStats stats;
  ql::ExecOptions options;
  options.stats = &stats;
  const ql::ResultSet per_pod = ql::PreparedQuery::prepare(
      "SELECT SUM(value) AS s, COUNT(value) AS n, MIN(value) AS lo, "
      "MAX(value) AS hi, FIRST(value) AS f, LAST(value) AS l FROM \"m\" "
      "WHERE time >= now() - 3600s GROUP BY pod")
      .execute(db, at(3600), {}, options);
  EXPECT_EQ(stats.rollup_level_us, 60'000'000);
  struct Want {
    const char* pod;
    double s, n, lo, hi, f, l;
  };
  const Want want[] = {{"a", 11843, 241, 1, 97, 73, 12},
                       {"b", 6366, 121, 0, 104, 30, 98},
                       {"c", 117, 6, 7, 32, 7, 32}};
  ASSERT_EQ(per_pod.rows.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ql::Row& row = per_pod.rows[i];
    EXPECT_EQ(row.tags.at("pod"), want[i].pod);
    EXPECT_EQ(row.time, at(2400));
    EXPECT_EQ(row.field("s"), want[i].s) << want[i].pod;
    EXPECT_EQ(row.field("n"), want[i].n) << want[i].pod;
    EXPECT_EQ(row.field("lo"), want[i].lo) << want[i].pod;
    EXPECT_EQ(row.field("hi"), want[i].hi) << want[i].pod;
    EXPECT_EQ(row.field("f"), want[i].f) << want[i].pod;
    EXPECT_EQ(row.field("l"), want[i].l) << want[i].pod;
  }

  const ql::ResultSet per_minute = ql::query(
      "SELECT SUM(value) AS s, COUNT(value) AS n FROM \"m\" "
      "WHERE time >= now() - 1200s GROUP BY time(60s) LIMIT 3",
      db, at(3600));
  const double want_minutes[][2] = {{912, 24}, {1114, 18}, {745, 18}};
  ASSERT_EQ(per_minute.rows.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(per_minute.rows[i].time,
              at(2400 + 60 * static_cast<std::int64_t>(i)));
    EXPECT_EQ(per_minute.rows[i].field("s"), want_minutes[i][0]);
    EXPECT_EQ(per_minute.rows[i].field("n"), want_minutes[i][1]);
  }
}

TEST(Database, NewestTimeIsNulloptOnceEveryPointExpired) {
  Database db;
  db.write("m", {{"pod", "a"}}, at(10), 1.0);
  db.write("m", {{"pod", "b"}}, at(65), 2.0);
  ASSERT_EQ(db.newest_time("m"), at(65));
  // Horizon 100 s: "a" is erased; "b" survives on its straddling 60 s
  // bucket but holds no sample, so the pipeline reads as empty.
  db.enforce_retention(at(160), Duration::seconds(60));
  EXPECT_EQ(db.series_count("m"), 1u);
  EXPECT_FALSE(db.newest_time("m").has_value());
  db.enforce_retention(at(180), Duration::seconds(60));
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
  db.for_each_series("m", [&](const Series& series) { seen += series.size(); });
  EXPECT_EQ(seen, 64u);
}

TEST(Database, ForEachSeriesMergesShardsInCanonicalOrder) {
  Database sharded{4};
  Database flat{1};
  for (int i = 0; i < 32; ++i) {
    const Tags tags{{"s", std::to_string(i)}};
    sharded.write("m", tags, at(i), 1.0);
    flat.write("m", tags, at(i), 1.0);
  }
  std::vector<std::string> sharded_keys;
  sharded.for_each_series("m", [&](const Series& series) {
    sharded_keys.push_back(tags_key(series.tags()));
  });
  std::vector<std::string> flat_keys;
  flat.for_each_series("m", [&](const Series& series) {
    flat_keys.push_back(tags_key(series.tags()));
  });
  EXPECT_EQ(sharded_keys, flat_keys);
  EXPECT_TRUE(std::is_sorted(sharded_keys.begin(), sharded_keys.end()));
}

TEST(Database, WriteManyGroupsByShardAndCounts) {
  Database db{4};
  std::vector<Database::Sample> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back({"m", {{"s", std::to_string(i % 5)}}, at(i),
                     static_cast<double>(i)});
  }
  EXPECT_EQ(db.write_many(batch), 20u);
  EXPECT_EQ(db.total_points(), 20u);
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

TEST(Database, EffectiveReadHorizonIsMinOfGlobalAndShard) {
  Database db{2};
  EXPECT_FALSE(db.effective_read_horizon(0).has_value());
  db.set_shard_read_horizon(0, at(100));
  ASSERT_TRUE(db.effective_read_horizon(0).has_value());
  EXPECT_EQ(*db.effective_read_horizon(0), at(100));
  EXPECT_FALSE(db.effective_read_horizon(1).has_value());
  db.set_read_horizon(at(50));
  EXPECT_EQ(*db.effective_read_horizon(0), at(50));
  EXPECT_EQ(*db.effective_read_horizon(1), at(50));
  db.set_read_horizon(at(200));
  EXPECT_EQ(*db.effective_read_horizon(0), at(100));
  db.set_shard_read_horizon(0, std::nullopt);
  EXPECT_EQ(*db.effective_read_horizon(0), at(200));
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

TEST(Database, MaintainCompactsSealedChunks) {
  DatabaseConfig config;
  config.shards = 2;
  config.chunk_width = Duration::seconds(60);
  Database db{config};
  for (int i = 0; i < 600; i += 5) {
    db.write("m", {{"k", "v"}}, at(i), static_cast<double>(i));
  }
  const std::size_t chunks_before = db.chunk_count("m");
  EXPECT_GT(chunks_before, 4u);
  db.maintain(at(600), Duration::hours(1));
  EXPECT_LT(db.chunk_count("m"), chunks_before);
  EXPECT_GT(db.compactions(), 0u);
  EXPECT_EQ(db.total_points(), 120u);  // retention dropped nothing
}

}  // namespace
}  // namespace sgxo::tsdb
