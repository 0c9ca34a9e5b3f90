#include "tsdb/ql/parser.hpp"

#include <algorithm>
#include <cctype>
#include <memory>

namespace sgxo::tsdb::ql {

namespace {

std::string lower(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  std::transform(s.begin(), s.end(), std::back_inserter(out),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  SelectStmt parse_statement() {
    SelectStmt stmt = parse_select();
    expect(TokenKind::kEnd);
    return stmt;
  }

 private:
  [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }

  Token advance() { return tokens_[pos_++]; }

  [[noreturn]] void fail(const std::string& message) const {
    throw QueryError{"query error at offset " + std::to_string(peek().offset) +
                     ": " + message + " (got " + to_string(peek().kind) +
                     (peek().text.empty() ? "" : " '" + peek().text + "'") + ")"};
  }

  Token expect(TokenKind kind) {
    if (peek().kind != kind) {
      fail(std::string("expected ") + to_string(kind));
    }
    return advance();
  }

  /// Consumes an identifier matching `keyword` (case-insensitive).
  Token expect_keyword(const char* keyword) {
    if (!is_keyword(keyword)) {
      fail(std::string("expected keyword '") + keyword + "'");
    }
    return advance();
  }

  [[nodiscard]] bool is_keyword(const char* keyword) const {
    return peek().kind == TokenKind::kIdentifier &&
           lower(peek().text) == keyword;
  }

  bool accept_keyword(const char* keyword) {
    if (is_keyword(keyword)) {
      advance();
      return true;
    }
    return false;
  }

  SelectStmt parse_select() {
    expect_keyword("select");
    SelectStmt stmt;
    stmt.projection = parse_projection();
    expect_keyword("from");
    stmt.source = parse_source();
    if (accept_keyword("where")) {
      stmt.where.push_back(parse_predicate());
      while (accept_keyword("and")) {
        stmt.where.push_back(parse_predicate());
      }
    }
    if (accept_keyword("group")) {
      expect_keyword("by");
      stmt.group_by.push_back(parse_tag_name());
      while (peek().kind == TokenKind::kComma) {
        advance();
        stmt.group_by.push_back(parse_tag_name());
      }
    }
    return stmt;
  }

  Projection parse_projection() {
    const Token agg_tok = expect(TokenKind::kIdentifier);
    const auto agg = aggregate_from(agg_tok.text);
    if (!agg) {
      throw QueryError{"query error at offset " +
                       std::to_string(agg_tok.offset) +
                       ": unknown aggregate function '" + agg_tok.text + "'"};
    }
    Projection proj;
    proj.agg = *agg;
    expect(TokenKind::kLParen);
    if (peek().kind == TokenKind::kQuotedIdent ||
        peek().kind == TokenKind::kIdentifier) {
      proj.field = advance().text;
    } else {
      fail("expected field name");
    }
    expect(TokenKind::kRParen);
    if (accept_keyword("as")) {
      if (peek().kind == TokenKind::kIdentifier ||
          peek().kind == TokenKind::kQuotedIdent) {
        proj.alias = advance().text;
      } else {
        fail("expected alias after AS");
      }
    } else {
      proj.alias = to_string(proj.agg);
    }
    return proj;
  }

  Source parse_source() {
    if (peek().kind == TokenKind::kLParen) {
      advance();
      auto sub = std::make_unique<SelectStmt>(parse_select());
      expect(TokenKind::kRParen);
      return Source{std::move(sub)};
    }
    if (peek().kind == TokenKind::kQuotedIdent ||
        peek().kind == TokenKind::kIdentifier) {
      return Source{advance().text};
    }
    fail("expected measurement name or subquery");
  }

  std::string parse_tag_name() {
    if (peek().kind == TokenKind::kIdentifier ||
        peek().kind == TokenKind::kQuotedIdent) {
      return advance().text;
    }
    fail("expected tag name");
  }

  /// `<field> <> <number>` or `time >= now() [- <duration>]`.
  Predicate parse_predicate() {
    if (peek().kind != TokenKind::kIdentifier &&
        peek().kind != TokenKind::kQuotedIdent) {
      fail("expected field or 'time' on left of predicate");
    }
    const Token lhs = advance();
    if (lower(lhs.text) == "time") {
      expect(TokenKind::kGte);
      expect_keyword("now");
      expect(TokenKind::kLParen);
      expect(TokenKind::kRParen);
      TimePredicate pred;
      if (peek().kind == TokenKind::kMinus) {
        advance();
        pred.offset_us = -expect(TokenKind::kDuration).duration_us;
      }
      return pred;
    }
    expect(TokenKind::kNeq);
    return FieldPredicate{lhs.text, expect(TokenKind::kNumber).number};
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

SelectStmt parse(const std::string& query) {
  detail::count_parse_work();
  Parser parser{lex(query)};
  return parser.parse_statement();
}

}  // namespace sgxo::tsdb::ql
