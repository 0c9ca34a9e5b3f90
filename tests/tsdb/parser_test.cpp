#include "tsdb/ql/parser.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <variant>

namespace sgxo::tsdb::ql {
namespace {

TEST(Parser, MinimalSelect) {
  const SelectStmt stmt = parse("SELECT MAX(value) FROM m");
  EXPECT_EQ(stmt.projection.agg, Aggregate::kMax);
  EXPECT_EQ(stmt.projection.field, "value");
  EXPECT_EQ(stmt.projection.alias, "max");  // defaults to agg name
  ASSERT_TRUE(std::holds_alternative<std::string>(stmt.source));
  EXPECT_EQ(std::get<std::string>(stmt.source), "m");
  EXPECT_TRUE(stmt.where.empty());
  EXPECT_TRUE(stmt.group_by.empty());
}

TEST(Parser, CaseInsensitiveKeywords) {
  const SelectStmt stmt = parse("select sum(value) from m group by k");
  EXPECT_EQ(stmt.projection.agg, Aggregate::kSum);
  EXPECT_EQ(stmt.group_by, std::vector<std::string>{"k"});
}

TEST(Parser, AliasViaAs) {
  const SelectStmt stmt = parse("SELECT SUM(value) AS mem FROM m");
  EXPECT_EQ(stmt.projection.alias, "mem");
}

TEST(Parser, MultipleProjections) {
  // Listing 1's statements project one column.
  for (const char* text :
       {"SELECT MAX(value) AS hi, SUM(value) AS s FROM m",
        "SELECT MAX(value) AS hi, MIN(value) AS lo, COUNT(*) FROM m"}) {
    EXPECT_THROW((void)parse(text), QueryError) << text;
  }
}

TEST(Parser, AllAggregates) {
  for (const char* name : {"MAX", "max", "SUM", "Sum"}) {
    const SelectStmt stmt =
        parse(std::string("SELECT ") + name + "(value) FROM m");
    ASSERT_TRUE(aggregate_from(name).has_value()) << name;
    EXPECT_EQ(stmt.projection.agg, *aggregate_from(name));
  }
  EXPECT_EQ(to_string(Aggregate::kMax), std::string("max"));
  EXPECT_EQ(to_string(Aggregate::kSum), std::string("sum"));
  EXPECT_THROW(parse("SELECT MEDIAN(value) FROM m"), QueryError);
}

TEST(Parser, QuotedMeasurement) {
  const SelectStmt stmt = parse("SELECT MAX(value) FROM \"sgx/epc\"");
  EXPECT_EQ(std::get<std::string>(stmt.source), "sgx/epc");
}

TEST(Parser, FieldPredicate) {
  const SelectStmt stmt =
      parse("SELECT MAX(value) FROM m WHERE value <> 0");
  ASSERT_EQ(stmt.where.size(), 1u);
  const auto& pred = std::get<FieldPredicate>(stmt.where[0]);
  EXPECT_EQ(pred.field, "value");
  EXPECT_DOUBLE_EQ(pred.literal, 0.0);
}

TEST(Parser, NegativeFieldLiteral) {
  // Field literals are unsigned numbers, as Listing 1's `value <> 0` is.
  EXPECT_THROW((void)parse("SELECT MAX(value) FROM m WHERE value <> -2"),
               QueryError);
}

TEST(Parser, RelativeTimePredicate) {
  const SelectStmt stmt =
      parse("SELECT MAX(value) FROM m WHERE time >= now() - 25s");
  const auto& pred = std::get<TimePredicate>(stmt.where[0]);
  EXPECT_EQ(pred.offset_us, -25'000'000);
}

TEST(Parser, NowPlusDuration) {
  // Listing 1's window only looks back from now().
  EXPECT_THROW(
      (void)parse("SELECT MAX(value) FROM m WHERE time >= now() + 5m"),
      QueryError);
}

TEST(Parser, BareNow) {
  const SelectStmt stmt =
      parse("SELECT MAX(value) FROM m WHERE time >= now()");
  const auto& pred = std::get<TimePredicate>(stmt.where[0]);
  EXPECT_EQ(pred.offset_us, 0);
}

TEST(Parser, AbsoluteTimePredicate) {
  // Listing 1's window is relative to now(): no absolute time, as a
  // number or as a duration.
  for (const char* text : {"SELECT MAX(value) FROM m WHERE time >= 123456",
                           "SELECT MAX(value) FROM m WHERE time >= 25s"}) {
    EXPECT_THROW((void)parse(text), QueryError) << text;
  }
}

TEST(Parser, RejectsOutOfRangeTimes) {
  const std::string where = "SELECT MAX(value) FROM m WHERE time >= ";
  for (const std::string rhs :
       {"now() - 99999999999999999999s", "now() - 99999999999999w"}) {
    EXPECT_THROW((void)parse(where + rhs), QueryError) << rhs;
  }
  // The largest offset fits.
  EXPECT_EQ(std::get<TimePredicate>(
                parse(where + "now() - 9223372036854775807us").where[0])
                .offset_us,
            -std::numeric_limits<std::int64_t>::max());
}

TEST(Parser, ConjunctionOfPredicates) {
  const SelectStmt stmt = parse(
      "SELECT MAX(value) FROM m WHERE value <> 0 AND time >= now() - 1m AND "
      "value <> 100");
  ASSERT_EQ(stmt.where.size(), 3u);
  EXPECT_DOUBLE_EQ(std::get<FieldPredicate>(stmt.where[2]).literal, 100.0);
}

TEST(Parser, GroupByMultipleTags) {
  const SelectStmt stmt =
      parse("SELECT MAX(value) FROM m GROUP BY pod_name, nodename");
  EXPECT_EQ(stmt.group_by,
            (std::vector<std::string>{"pod_name", "nodename"}));
}

TEST(Parser, Subquery) {
  const SelectStmt stmt = parse(
      "SELECT SUM(epc) FROM (SELECT MAX(value) AS epc FROM m GROUP BY p)");
  ASSERT_TRUE(
      std::holds_alternative<std::unique_ptr<SelectStmt>>(stmt.source));
  const auto& sub = *std::get<std::unique_ptr<SelectStmt>>(stmt.source);
  EXPECT_EQ(sub.projection.alias, "epc");
  EXPECT_EQ(std::get<std::string>(sub.source), "m");
}

TEST(Parser, Listing1Verbatim) {
  const SelectStmt stmt = parse(
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 25s "
      "GROUP BY pod_name, nodename) "
      "GROUP BY nodename");
  EXPECT_EQ(stmt.projection.agg, Aggregate::kSum);
  EXPECT_EQ(stmt.projection.field, "epc");
  EXPECT_EQ(stmt.group_by, std::vector<std::string>{"nodename"});
  const auto& sub = *std::get<std::unique_ptr<SelectStmt>>(stmt.source);
  EXPECT_EQ(std::get<std::string>(sub.source), "sgx/epc");
  EXPECT_EQ(sub.where.size(), 2u);
  EXPECT_EQ(sub.group_by,
            (std::vector<std::string>{"pod_name", "nodename"}));
}

TEST(Parser, ErrorsCarryOffsets) {
  try {
    (void)parse("SELECT MAX(value) FROM");
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Parser, RejectsMalformedStatements) {
  EXPECT_THROW(parse(""), QueryError);
  EXPECT_THROW(parse("MAX(value) FROM m"), QueryError);
  EXPECT_THROW(parse("SELECT MAX value FROM m"), QueryError);
  EXPECT_THROW(parse("SELECT MAX(value FROM m"), QueryError);
  EXPECT_THROW(parse("SELECT MAX(value) FROM m GROUP nodename"), QueryError);
  EXPECT_THROW(parse("SELECT MAX(value) FROM m WHERE"), QueryError);
  EXPECT_THROW(parse("SELECT MAX(value) FROM m trailing"), QueryError);
  EXPECT_THROW(parse("SELECT MAX(value) FROM (SELECT MAX(value) FROM x"),
               QueryError);
  EXPECT_THROW(parse("SELECT MAX(value) FROM m WHERE time >= tomorrow()"),
               QueryError);
}

TEST(Parser, RejectsGrammarBeyondListing1) {
  // The subset is Listing 1's grammar: MAX or SUM of one field, `<>` on a
  // field and `>= now() [- d]` on time. No other aggregate or comparison,
  // and no time buckets, row windows, quantiles or placeholders, in the
  // outer statement or a subquery. (A second column, a negative literal,
  // `now() + d` and absolute times have tests of their own above.)
  for (const char* text : {
           "SELECT MIN(value) FROM m",
           "SELECT MEAN(value) FROM m",
           "SELECT COUNT(value) FROM m",
           "SELECT FIRST(value) FROM m",
           "SELECT LAST(value) FROM m",
           "SELECT COUNT(*) FROM m",
           "SELECT MAX(value) FROM m WHERE value = 0",
           "SELECT MAX(value) FROM m WHERE value < 100",
           "SELECT MAX(value) FROM m WHERE value <= 100",
           "SELECT MAX(value) FROM m WHERE value > 100",
           "SELECT MAX(value) FROM m WHERE value != 0",
           "SELECT MAX(value) FROM m WHERE value >= 1",
           "SELECT MAX(value) FROM m WHERE time <> now()",
           "SELECT SUM(v) FROM (SELECT MIN(value) AS v FROM m)",
           "SELECT SUM(v) FROM (SELECT MAX(value) AS v FROM m "
           "WHERE time >= 0)",
           "SELECT MAX(value) FROM m GROUP BY time(10s)",
           "SELECT MAX(value) FROM m GROUP BY pod_name, time(10s)",
           "SELECT MAX(value) FROM m GROUP BY pod_name LIMIT 5",
           "SELECT MAX(value) FROM m GROUP BY pod_name OFFSET 1",
           "SELECT P99(value) FROM m",
           "SELECT MAX(value) FROM m WHERE time >= now() - $w",
           "SELECT SUM(v) FROM (SELECT MAX(value) AS v FROM m "
           "GROUP BY time(10s))",
           "SELECT SUM(v) FROM (SELECT MAX(value) AS v FROM m LIMIT 5)",
       }) {
    EXPECT_THROW((void)parse(text), QueryError) << text;
  }
}

}  // namespace
}  // namespace sgxo::tsdb::ql
