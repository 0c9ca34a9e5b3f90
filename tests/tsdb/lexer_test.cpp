#include "tsdb/ql/lexer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace sgxo::tsdb::ql {
namespace {

TEST(Lexer, EmptyQueryYieldsEnd) {
  const auto tokens = lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(Lexer, Identifiers) {
  const auto tokens = lex("SELECT pod_name");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "pod_name");
}

TEST(Lexer, QuotedIdentifierWithSlash) {
  const auto tokens = lex("\"sgx/epc\"");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kQuotedIdent);
  EXPECT_EQ(tokens[0].text, "sgx/epc");
}

TEST(Lexer, Numbers) {
  const auto tokens = lex("0 42 3.5");
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, 0.0);
  EXPECT_DOUBLE_EQ(tokens[1].number, 42.0);
  EXPECT_DOUBLE_EQ(tokens[2].number, 3.5);
}

TEST(Lexer, DurationUnits) {
  const auto tokens = lex("25s 5m 2h 100ms 7u 1d 1w");
  EXPECT_EQ(tokens[0].kind, TokenKind::kDuration);
  EXPECT_EQ(tokens[0].duration_us, 25'000'000);
  EXPECT_EQ(tokens[1].duration_us, 300'000'000);
  EXPECT_EQ(tokens[2].duration_us, 7'200'000'000LL);
  EXPECT_EQ(tokens[3].duration_us, 100'000);
  EXPECT_EQ(tokens[4].duration_us, 7);
  EXPECT_EQ(tokens[5].duration_us, 86'400'000'000LL);
  EXPECT_EQ(tokens[6].duration_us, 604'800'000'000LL);
}

TEST(Lexer, RejectsUnknownDurationUnit) {
  EXPECT_THROW(lex("5y"), QueryError);
}

TEST(Lexer, RejectsFractionalDuration) {
  EXPECT_THROW(lex("2.5s"), QueryError);
}

TEST(Lexer, RejectsOutOfRangeLiterals) {
  // A count past int64, a count whose microseconds overflow, and an
  // integer no double holds are query errors, not library exceptions or
  // wrapped values.
  EXPECT_THROW(lex("99999999999999999999s"), QueryError);
  EXPECT_THROW(lex("99999999999999w"), QueryError);
  EXPECT_THROW(lex("15250285w"), QueryError);
  EXPECT_THROW(lex(std::string(400, '9')), QueryError);
  // The largest durations that fit still lex.
  EXPECT_EQ(lex("9223372036854775807us")[0].duration_us,
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(lex("15250284w")[0].duration_us, 9223371763200000000LL);
  EXPECT_DOUBLE_EQ(lex(std::string(300, '9'))[0].number, 1e300);
}

TEST(Lexer, ComparisonOperators) {
  // Listing 1 compares with <> and >= only.
  const auto tokens = lex("<> >=");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kNeq);
  EXPECT_EQ(tokens[1].kind, TokenKind::kGte);
  for (const char* op : {"=", "!=", "<", "<=", ">", "a < b", "a > b"}) {
    EXPECT_THROW((void)lex(op), QueryError) << op;
  }
}

TEST(Lexer, Punctuation) {
  const auto tokens = lex("(),-");
  EXPECT_EQ(tokens[0].kind, TokenKind::kLParen);
  EXPECT_EQ(tokens[1].kind, TokenKind::kRParen);
  EXPECT_EQ(tokens[2].kind, TokenKind::kComma);
  EXPECT_EQ(tokens[3].kind, TokenKind::kMinus);
  // No rule takes COUNT(*) or now() + d.
  EXPECT_THROW((void)lex("*"), QueryError);
  EXPECT_THROW((void)lex("+"), QueryError);
}

TEST(Lexer, UnterminatedQuotedIdent) {
  EXPECT_THROW(lex("\"unterminated"), QueryError);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(lex("SELECT @"), QueryError);
  EXPECT_THROW(lex("!"), QueryError);
  // No rule takes a string literal.
  EXPECT_THROW(lex("'x'"), QueryError);
}

TEST(Lexer, TokenOffsetsTrackPosition) {
  const auto tokens = lex("a bb ccc");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 2u);
  EXPECT_EQ(tokens[2].offset, 5u);
}

TEST(Lexer, Listing1LexesCompletely) {
  const char* listing1 =
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 25s "
      "GROUP BY pod_name, nodename) "
      "GROUP BY nodename";
  const auto tokens = lex(listing1);
  EXPECT_GT(tokens.size(), 30u);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

}  // namespace
}  // namespace sgxo::tsdb::ql
