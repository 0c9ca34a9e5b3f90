// PreparedQuery is specified to produce the same results as the one-shot
// string path (ql::query is a wrapper over prepare + execute). The
// differential suite below re-runs every query exercised by
// executor_test.cpp through both paths and compares row-for-row; the
// remaining tests cover what only prepared statements promise: the text
// is kept, malformed text fails at prepare, and execute binds only now()
// and does no parse work.
#include "tsdb/ql/prepared.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/result_set.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/lexer.hpp"

namespace sgxo::tsdb::ql {
namespace {

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

void expect_same_results(const ResultSet& expected, const ResultSet& actual,
                         const std::string& text) {
  ASSERT_EQ(expected.rows.size(), actual.rows.size()) << text;
  for (std::size_t i = 0; i < expected.rows.size(); ++i) {
    const Row& want = expected.rows[i];
    const Row& got = actual.rows[i];
    EXPECT_EQ(want.tags, got.tags) << text << " row " << i;
    EXPECT_EQ(want.time.micros_since_epoch(), got.time.micros_since_epoch())
        << text << " row " << i;
    ASSERT_EQ(want.fields.size(), got.fields.size()) << text << " row " << i;
    for (const auto& [field, value] : want.fields) {
      ASSERT_TRUE(has_field(got, field)) << text << " row " << i;
      EXPECT_DOUBLE_EQ(value, got.field(field))
          << text << " row " << i << " field " << field;
    }
  }
}

class PreparedQueryFixture : public ::testing::Test {
 protected:
  // The executor_test.cpp dataset: two pods on n1, one on n2, 10 s
  // samples, plus a stale "dead" pod and a zero "idle" sample.
  void SetUp() override {
    for (int t = 0; t <= 60; t += 10) {
      db_.write("sgx/epc", {{"pod_name", "p1"}, {"nodename", "n1"}}, at(t),
                100.0 + t);
      db_.write("sgx/epc", {{"pod_name", "p2"}, {"nodename", "n1"}}, at(t),
                50.0);
      db_.write("sgx/epc", {{"pod_name", "p3"}, {"nodename", "n2"}}, at(t),
                10.0);
    }
    db_.write("sgx/epc", {{"pod_name", "dead"}, {"nodename", "n2"}}, at(5),
              999.0);
    db_.write("sgx/epc", {{"pod_name", "idle"}, {"nodename", "n2"}}, at(60),
              0.0);
    db_.write("untagged", {}, at(60), 5.0);
    db_.write("untagged", {{"zone", "a"}}, at(60), 7.0);
    db_.write("zeros", {}, at(60), 0.0);
    db_.write("m", {}, TimePoint::from_micros(1000), 1.0);
    db_.write("m", {}, TimePoint::from_micros(2000), 2.0);
    db_.write("sub", {{"k", "v"}}, TimePoint::from_micros(1), 1.0);
  }
  Database db_;
};

// Every query text executor_test.cpp runs through the string path.
const char* const kExecutorTestQueries[] = {
    "SELECT MAX(value) AS epc FROM \"sgx/epc\" WHERE value <> 0 AND "
    "time >= now() - 25s GROUP BY pod_name, nodename",

    "SELECT SUM(epc) AS epc FROM "
    "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
    "WHERE value <> 0 AND time >= now() - 25s "
    "GROUP BY pod_name, nodename) "
    "GROUP BY nodename",

    "SELECT SUM(epc) AS epc FROM "
    "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
    "WHERE value <> 0 AND time >= now() - 60s "
    "GROUP BY pod_name, nodename) GROUP BY nodename",

    "SELECT MAX(value) FROM nothing",

    "SELECT SUM(value) AS total FROM \"sgx/epc\" WHERE time >= now() - 25s "
    "AND value <> 0",

    "SELECT SUM(value) AS s FROM untagged GROUP BY zone",

    "SELECT MAX(value) FROM \"sgx/epc\" WHERE time >= now() - 10s",

    "SELECT SUM(value) FROM zeros WHERE value <> 0",

    "SELECT SUM(value) AS s FROM m WHERE time >= now() - 3000us",

    "SELECT SUM(value) AS s FROM m WHERE time >= now() - "
    "9223372036854775807us",

    "SELECT SUM(nonexistent) AS s FROM (SELECT MAX(value) AS epc FROM sub)",
};

TEST_F(PreparedQueryFixture, DifferentialAgainstStringPath) {
  for (const char* text : kExecutorTestQueries) {
    const ResultSet via_string = query(text, db_, at(60));
    const PreparedQuery prepared = PreparedQuery::prepare(text);
    const ResultSet via_prepared = prepared.execute(db_, at(60));
    expect_same_results(via_string, via_prepared, text);
  }
}

TEST_F(PreparedQueryFixture, DifferentialAtMultipleNowAnchors) {
  // now() binding happens at execute time: one prepared statement, many
  // anchors, each equal to a fresh string-path run.
  const PreparedQuery prepared = PreparedQuery::prepare(
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 25s "
      "GROUP BY pod_name, nodename) GROUP BY nodename");
  for (const std::int64_t second : {0, 10, 30, 60, 120}) {
    const ResultSet via_string = query(prepared.text(), db_, at(second));
    const ResultSet via_prepared = prepared.execute(db_, at(second));
    expect_same_results(via_string, via_prepared,
                        "now=" + std::to_string(second));
  }
}

TEST(PreparedQuery, MalformedTextFailsAtPrepareTime) {
  EXPECT_THROW((void)PreparedQuery::prepare("SELECT"), QueryError);
  EXPECT_THROW((void)PreparedQuery::prepare("SELECT MAX(value) FROM"),
               QueryError);
}

TEST(PreparedQuery, TextIsPreservedVerbatim) {
  const std::string text =
      "SELECT MAX(value) FROM m WHERE time >= now() - 25s";
  const PreparedQuery prepared = PreparedQuery::prepare(text);
  EXPECT_EQ(prepared.text(), text);
}

TEST_F(PreparedQueryFixture, ExecuteDoesZeroParseWork) {
  // The whole point of prepare(): lexing, parsing, and static query
  // analysis happen exactly once. The lexer/parser bump a global work
  // counter; a thousand executions of a prepared statement must not move
  // it at all.
  const PreparedQuery prepared = PreparedQuery::prepare(
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 25s "
      "GROUP BY pod_name, nodename) GROUP BY nodename");
  const std::uint64_t before = parse_work_count();
  ResultSet last;
  for (int i = 0; i < 1000; ++i) {
    last = prepared.execute(db_, at(60 + (i % 5)));
  }
  EXPECT_EQ(parse_work_count(), before);
  EXPECT_FALSE(last.rows.empty());
  // The string path, by contrast, pays the parse every time.
  (void)query("SELECT MAX(value) FROM \"sgx/epc\"", db_, at(60));
  EXPECT_GT(parse_work_count(), before);
}

}  // namespace
}  // namespace sgxo::tsdb::ql
