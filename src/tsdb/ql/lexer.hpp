// Lexer for the InfluxQL subset understood by the executor (see ast.hpp):
// the tokens of the paper's Listing 1, which it runs verbatim:
//
//   SELECT SUM(epc) AS epc FROM
//     (SELECT MAX(value) AS epc FROM "sgx/epc"
//      WHERE value <> 0 AND time >= now() - 25s
//      GROUP BY pod_name, nodename)
//   GROUP BY nodename
//
// `<>` and `>=` are the only operators and `-` the only sign, so `=`,
// `<`, `<=`, `>`, `!=`, `+` and `*` are stray characters, as are `'` and
// `$`: no rule takes a string literal or a `$param` placeholder.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sgxo::tsdb::ql {

enum class TokenKind {
  kIdentifier,      // select, sum, epc, pod_name, now, ...
  kQuotedIdent,     // "sgx/epc"
  kNumber,          // 0, 25, 3.5
  kDuration,        // 25s, 5m, 100ms, 2h, 10u
  kLParen,
  kRParen,
  kComma,
  kMinus,
  kNeq,             // <>
  kGte,             // >=
  kEnd,
};

[[nodiscard]] const char* to_string(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;          // raw text (unquoted for quoted idents)
  double number = 0.0;       // for kNumber
  std::int64_t duration_us = 0;  // for kDuration
  std::size_t offset = 0;    // byte offset in the query (for error messages)
};

/// Thrown on any lexical or syntactic error; carries position context.
class QueryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Tokenizes the whole query. Keywords are returned as kIdentifier; the
/// parser matches them case-insensitively.
[[nodiscard]] std::vector<Token> lex(const std::string& query);

/// Process-wide monotone counter, bumped by every lex() and parse() call.
/// Regression tests snapshot it around a prepared query's execute loop to
/// prove the hot path does zero parse work.
[[nodiscard]] std::uint64_t parse_work_count();

namespace detail {
void count_parse_work();
}  // namespace detail

}  // namespace sgxo::tsdb::ql
