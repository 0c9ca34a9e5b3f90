#include "tsdb/ql/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "support/result_set.hpp"
#include "tsdb/ql/parser.hpp"

namespace sgxo::tsdb::ql {
namespace {

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

class ExecutorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two pods on node n1, one pod on n2, samples every 10 s.
    for (int t = 0; t <= 60; t += 10) {
      db_.write("sgx/epc", {{"pod_name", "p1"}, {"nodename", "n1"}}, at(t),
                100.0 + t);
      db_.write("sgx/epc", {{"pod_name", "p2"}, {"nodename", "n1"}}, at(t),
                50.0);
      db_.write("sgx/epc", {{"pod_name", "p3"}, {"nodename", "n2"}}, at(t),
                10.0);
    }
    // A dead pod whose last sample is old.
    db_.write("sgx/epc", {{"pod_name", "dead"}, {"nodename", "n2"}}, at(5),
              999.0);
    // A zero sample that Listing 1 filters out.
    db_.write("sgx/epc", {{"pod_name", "idle"}, {"nodename", "n2"}}, at(60),
              0.0);
  }
  Database db_;
};

TEST_F(ExecutorFixture, MaxPerPodOverWindow) {
  const ResultSet result = query(
      "SELECT MAX(value) AS epc FROM \"sgx/epc\" WHERE value <> 0 AND "
      "time >= now() - 25s GROUP BY pod_name, nodename",
      db_, at(60));
  // Window [35, 60]: p1 max = 160, p2 = 50, p3 = 10; dead + idle excluded.
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(value_for(result, "pod_name", "p1", "epc"), 160.0);
  EXPECT_DOUBLE_EQ(value_for(result, "pod_name", "p2", "epc"), 50.0);
  EXPECT_DOUBLE_EQ(value_for(result, "pod_name", "p3", "epc"), 10.0);
}

TEST_F(ExecutorFixture, Listing1SumsPerNode) {
  const ResultSet result = query(
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 25s "
      "GROUP BY pod_name, nodename) "
      "GROUP BY nodename",
      db_, at(60));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(value_for(result, "nodename", "n1", "epc"), 210.0);
  EXPECT_DOUBLE_EQ(value_for(result, "nodename", "n2", "epc"), 10.0);
}

TEST_F(ExecutorFixture, StaleSamplesInsideWindowStillCount) {
  // With a 60 s window the dead pod's sample is included — exactly the
  // metric lag the scheduler has to live with.
  const ResultSet result = query(
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 60s "
      "GROUP BY pod_name, nodename) GROUP BY nodename",
      db_, at(60));
  EXPECT_DOUBLE_EQ(value_for(result, "nodename", "n2", "epc"), 1009.0);
}

TEST_F(ExecutorFixture, UnknownMeasurementIsEmpty) {
  const ResultSet result =
      query("SELECT MAX(value) FROM nothing", db_, at(60));
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(ExecutorFixture, NoGroupByProducesSingleRow) {
  const ResultSet result = query(
      "SELECT SUM(value) AS total FROM \"sgx/epc\" WHERE time >= now() - 25s "
      "AND value <> 0",
      db_, at(60));
  ASSERT_EQ(result.rows.size(), 1u);
  // p1: 140+150+160, p2: 3×50, p3: 3×10 → 450 + 150 + 30 = 630.
  EXPECT_DOUBLE_EQ(result.rows[0].field("total"), 630.0);
}

TEST_F(ExecutorFixture, GroupByMissingTagGroupsUnderEmpty) {
  db_.write("untagged", {}, at(60), 5.0);
  db_.write("untagged", {{"zone", "a"}}, at(60), 7.0);
  const ResultSet result =
      query("SELECT SUM(value) AS s FROM untagged GROUP BY zone", db_, at(60));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(value_for(result, "zone", "", "s"), 5.0);
  EXPECT_DOUBLE_EQ(value_for(result, "zone", "a", "s"), 7.0);
}

TEST_F(ExecutorFixture, AllRowsFilteredYieldsEmpty) {
  // Window [90, 100]: every sample is older.
  const ResultSet result = query(
      "SELECT MAX(value) FROM \"sgx/epc\" WHERE time >= now() - 10s", db_,
      at(100));
  EXPECT_TRUE(result.rows.empty());
  // A measurement whose every sample is excluded.
  db_.write("zeros", {}, at(60), 0.0);
  EXPECT_TRUE(query("SELECT SUM(value) FROM zeros WHERE value <> 0", db_,
                    at(60))
                  .rows.empty());
}

TEST(Executor, TimeBoundsAreInclusiveExclusiveByOp) {
  Database db;
  db.write("m", {}, TimePoint::from_micros(1000), 1.0);
  db.write("m", {}, TimePoint::from_micros(2000), 2.0);
  const std::string text =
      "SELECT SUM(value) AS s FROM m WHERE time >= now() - 3000us";
  // Window start on the 2000 us sample: `>=` keeps it.
  const ResultSet on_edge = query(text, db, TimePoint::from_micros(5000));
  ASSERT_EQ(on_edge.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(on_edge.rows[0].field("s"), 2.0);
  // One microsecond later the window starts past it.
  EXPECT_TRUE(query(text, db, TimePoint::from_micros(5001)).rows.empty());
}

TEST(Executor, NowOffsetsPastTheClockSaturate) {
  Database db;
  db.write("m", {}, at(10), 1.0);
  const std::string text =
      "SELECT SUM(value) AS s FROM m WHERE time >= now() - "
      "9223372036854775807us";
  // At a negative now(), now() - INT64_MAX us is before the start of the
  // clock: the window starts there, and the point is after it.
  const ResultSet saturated = query(text, db, at(-100));
  ASSERT_EQ(saturated.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(saturated.rows[0].field("s"), 1.0);
  // At a positive now() it stays on the clock; the point is after it.
  const ResultSet on_clock = query(text, db, at(100));
  ASSERT_EQ(on_clock.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(on_clock.rows[0].field("s"), 1.0);
}

TEST(Executor, SubqueryFieldMismatchDropsRows) {
  Database db;
  db.write("m", {{"k", "v"}}, TimePoint::from_micros(1), 1.0);
  // Outer aggregates a field the subquery does not produce.
  const ResultSet result = query(
      "SELECT SUM(nonexistent) AS s FROM (SELECT MAX(value) AS epc FROM m)",
      db, TimePoint::from_micros(10));
  EXPECT_TRUE(result.rows.empty());
}

TEST(Executor, ResultSetHelpers) {
  ResultSet rs;
  Row r1;
  r1.tags = {{"nodename", "n1"}};
  r1.fields = {{"epc", 10.0}};
  Row r2;
  r2.tags = {{"nodename", "n2"}};
  r2.fields = {{"epc", 32.0}};
  rs.rows = {r1, r2};
  EXPECT_DOUBLE_EQ(sum(rs, "epc"), 42.0);
  EXPECT_DOUBLE_EQ(sum(rs, "other"), 0.0);
  EXPECT_DOUBLE_EQ(value_for(rs, "nodename", "n2", "epc"), 32.0);
  EXPECT_DOUBLE_EQ(value_for(rs, "nodename", "zz", "epc", -1.0), -1.0);
}

TEST(Executor, RowFieldAccess) {
  Row row;
  row.fields = {{"a", 1.0}};
  EXPECT_TRUE(has_field(row, "a"));
  EXPECT_FALSE(has_field(row, "b"));
  EXPECT_DOUBLE_EQ(row.field("a"), 1.0);
  EXPECT_THROW((void)row.field("b"), ContractViolation);
}

// ---- the group table: growth, key order, key collisions ---------------------

constexpr std::size_t kShardCounts[] = {1, 4};

struct PodSample {
  std::string pod;
  std::string container;
  std::int64_t t = 0;  // seconds
  double value = 0.0;
};

/// 1,000 pods with two series each ("app" and "side" containers), samples
/// every 10 s over [0, 50] s with small integer values.
std::vector<PodSample> thousand_pods() {
  std::vector<PodSample> samples;
  for (int pod = 0; pod < 1000; ++pod) {
    char name[16];
    std::snprintf(name, sizeof name, "pod-%04d", pod);
    for (int c = 0; c < 2; ++c) {
      for (int t = 0; t <= 50; t += 10) {
        samples.push_back({name, c == 0 ? "app" : "side", t,
                           static_cast<double>((pod * 7 + c * 3 + t) % 97)});
      }
    }
  }
  return samples;
}

void write(Database& db, const std::vector<PodSample>& samples) {
  for (const PodSample& s : samples) {
    db.write("m", {{"pod_name", s.pod}, {"container", s.container}}, at(s.t),
             s.value);
  }
}

/// The brute-force fold of one group: both aggregates from its samples.
struct Folded {
  bool seen = false;
  double sum = 0;
  double max = 0;

  void add(double v) {
    max = seen ? std::max(max, v) : v;
    seen = true;
    sum += v;
  }
};

TEST(GroupTable, ThousandGroupsMatchABruteForceFold) {
  const std::vector<PodSample> samples = thousand_pods();
  // Window [20, 50] s: 1000 groups of 8 samples, 4 per container.
  std::map<std::string, Folded> expected;
  for (const PodSample& s : samples) {
    if (s.t < 20) continue;
    expected[s.pod].add(s.value);
  }
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    write(db, samples);
    const ResultSet sums = query(
        "SELECT SUM(value) AS s FROM m WHERE time >= now() - 30s "
        "GROUP BY pod_name",
        db, at(50));
    const ResultSet maxima = query(
        "SELECT MAX(value) AS hi FROM m WHERE time >= now() - 30s "
        "GROUP BY pod_name",
        db, at(50));
    ASSERT_EQ(sums.rows.size(), expected.size());
    ASSERT_EQ(maxima.rows.size(), expected.size());
    auto sum = sums.rows.begin();
    auto max = maxima.rows.begin();
    for (const auto& [pod, fold] : expected) {
      EXPECT_EQ(sum->tags, (Tags{{"pod_name", pod}}));
      EXPECT_EQ(max->tags, (Tags{{"pod_name", pod}}));
      EXPECT_EQ(sum->time, at(20));
      EXPECT_EQ(max->time, at(20));
      EXPECT_EQ(sum->field("s"), fold.sum);
      EXPECT_EQ(max->field("hi"), fold.max);
      ++sum;
      ++max;
    }
  }
}

TEST(GroupTable, ThousandOuterGroupsOverASubquery) {
  const std::vector<PodSample> samples = thousand_pods();
  // Listing 1's shape: the MAX per (pod, container), summed per pod.
  std::map<std::pair<std::string, std::string>, double> inner;
  for (const PodSample& s : samples) {
    if (s.t < 20) continue;
    auto [it, fresh] = inner.try_emplace({s.pod, s.container}, s.value);
    if (!fresh) it->second = std::max(it->second, s.value);
  }
  std::map<std::string, double> expected;
  for (const auto& [series, max] : inner) expected[series.first] += max;

  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    write(db, samples);
    const ResultSet result = query(
        "SELECT SUM(mx) AS s FROM (SELECT MAX(value) AS mx FROM m "
        "WHERE time >= now() - 30s GROUP BY pod_name, container) "
        "GROUP BY pod_name",
        db, at(50));
    ASSERT_EQ(result.rows.size(), expected.size());
    auto row = result.rows.begin();
    for (const auto& [pod, sum] : expected) {
      EXPECT_EQ(row->tags, (Tags{{"pod_name", pod}}));
      EXPECT_EQ(row->field("s"), sum);
      ++row;
    }
  }
}

TEST(GroupTable, RowsComeInKeyOrderNotTagValueOrder) {
  // "host=a!,pod=x" sorts before "host=a,pod=x" ('!' < ','), although the
  // value "a" sorts before "a!".
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    db.write("m", {{"host", "a"}, {"pod", "x"}}, at(0), 1.0);
    db.write("m", {{"host", "a!"}, {"pod", "x"}}, at(0), 2.0);
    db.write("m", {{"host", "a"}, {"pod", "y"}}, at(0), 3.0);
    const ResultSet result =
        query("SELECT SUM(value) AS s FROM m GROUP BY host, pod", db, at(0));
    ASSERT_EQ(result.rows.size(), 3u);
    EXPECT_EQ(result.rows[0].tags, (Tags{{"host", "a!"}, {"pod", "x"}}));
    EXPECT_EQ(result.rows[0].field("s"), 2.0);
    EXPECT_EQ(result.rows[1].tags, (Tags{{"host", "a"}, {"pod", "x"}}));
    EXPECT_EQ(result.rows[1].field("s"), 1.0);
    EXPECT_EQ(result.rows[2].tags, (Tags{{"host", "a"}, {"pod", "y"}}));
    EXPECT_EQ(result.rows[2].field("s"), 3.0);

    // The subquery path orders its groups the same way.
    const ResultSet outer = query(
        "SELECT SUM(s) AS s FROM (SELECT SUM(value) AS s FROM m "
        "GROUP BY host, pod) GROUP BY host, pod",
        db, at(0));
    ASSERT_EQ(outer.rows.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(outer.rows[i].tags, result.rows[i].tags);
      EXPECT_EQ(outer.rows[i].field("s"), result.rows[i].field("s"));
    }
  }
}

TEST(GroupTable, SeparatorsInTagValuesKeepGroupsApart) {
  // Unescaped, the first two series would both render the group key
  // "a=1,b=2,b=3" and share a group. Escaped, every tag tuple is a group
  // of its own that reports its own tags, in escaped key order:
  // "a=1,b=2" < "a=1,b=2\,b\=3" < "a=1\,b\=2,b=3" (',' < '\').
  const Tags first{{"a", "1,b=2"}, {"b", "3"}, {"c", "x"}};
  const Tags second{{"a", "1"}, {"b", "2,b=3"}, {"c", "y"}};
  const std::vector<Tags> groups{{{"a", "1"}, {"b", "2"}},
                                 {{"a", "1"}, {"b", "2,b=3"}},
                                 {{"a", "1,b=2"}, {"b", "3"}}};
  const std::vector<double> sums{6.0, 5.0, 4.0};
  for (const std::size_t shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Database db{shards};
    db.write("m", first, at(0), 4.0);
    db.write("m", second, at(10), 5.0);
    db.write("m", {{"a", "1"}, {"b", "2"}, {"c", "z"}}, at(0), 6.0);

    const ResultSet result =
        query("SELECT SUM(value) AS s FROM m GROUP BY a, b", db, at(10));
    ASSERT_EQ(result.rows.size(), groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      EXPECT_EQ(result.rows[i].tags, groups[i]);
      EXPECT_EQ(result.rows[i].field("s"), sums[i]);
    }
    EXPECT_EQ(result.rows[1].time, at(10));
    // Measurement rows carry "value" only.
    EXPECT_TRUE(query("SELECT SUM(time_unused) AS u FROM m GROUP BY a, b",
                      db, at(10))
                    .rows.empty());

    // Over a subquery the inner rows keep apart the same way.
    const ResultSet outer = query(
        "SELECT SUM(s) AS s FROM (SELECT SUM(value) AS s FROM m "
        "GROUP BY a, b, c) GROUP BY a, b",
        db, at(10));
    ASSERT_EQ(outer.rows.size(), groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      EXPECT_EQ(outer.rows[i].tags, groups[i]);
      EXPECT_EQ(outer.rows[i].field("s"), sums[i]);
    }
  }
}

}  // namespace
}  // namespace sgxo::tsdb::ql
