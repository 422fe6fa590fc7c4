// Tests for the SQL tokenizer and parser (syntax only; binding is covered
// by the engine tests).

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/tokenizer.h"

namespace agora {
namespace {

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b2 FROM t WHERE x >= 3.5;");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 12u);  // 11 tokens + EOF
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[8].text, ">=");
  EXPECT_EQ((*tokens)[9].text, "3.5");
  EXPECT_EQ((*tokens)[9].type, TokenType::kNumber);
}

TEST(TokenizerTest, StringsWithEscapes) {
  auto tokens = Tokenize("'it''s' 'two'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
  EXPECT_EQ((*tokens)[1].text, "two");
}

TEST(TokenizerTest, QuotedIdentifiers) {
  auto tokens = Tokenize("\"weird name\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "weird name");
}

TEST(TokenizerTest, CommentsSkipped) {
  auto tokens = Tokenize("SELECT -- everything\n1");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[1].text, "1");
}

TEST(TokenizerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
  EXPECT_FALSE(Tokenize("\"open").ok());
}

TEST(TokenizerTest, ScientificNumbers) {
  auto tokens = Tokenize("1e5 2.5E-3 .25");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "1e5");
  EXPECT_EQ((*tokens)[1].text, "2.5E-3");
  EXPECT_EQ((*tokens)[2].text, ".25");
}

Result<SelectStatement> ParseSelect(const std::string& sql) {
  AGORA_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (auto* sel = std::get_if<SelectStatement>(&stmt.node)) {
    return *sel;
  }
  return Status::Internal("not a select");
}

TEST(ParserTest, MinimalSelect) {
  auto sel = ParseSelect("SELECT * FROM t");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->items.size(), 1u);
  EXPECT_TRUE(sel->items[0].is_star);
  ASSERT_EQ(sel->from.size(), 1u);
  EXPECT_EQ(sel->from[0].name, "t");
}

TEST(ParserTest, FullSelectShape) {
  auto sel = ParseSelect(
      "SELECT DISTINCT a, b + 1 AS c FROM t1 x, t2 "
      "JOIN t3 ON x.id = t3.id LEFT JOIN t4 ON t3.k = t4.k "
      "WHERE a > 0 AND b IN (1, 2) GROUP BY a, b HAVING COUNT(*) > 2 "
      "ORDER BY c DESC, a LIMIT 10 OFFSET 5");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_TRUE(sel->distinct);
  ASSERT_EQ(sel->items.size(), 2u);
  EXPECT_EQ(sel->items[1].alias, "c");
  ASSERT_EQ(sel->from.size(), 2u);
  EXPECT_EQ(sel->from[0].alias, "x");
  ASSERT_EQ(sel->joins.size(), 2u);
  EXPECT_EQ(sel->joins[0].kind, JoinKind::kInner);
  EXPECT_EQ(sel->joins[1].kind, JoinKind::kLeft);
  ASSERT_NE(sel->where, nullptr);
  EXPECT_EQ(sel->group_by.size(), 2u);
  ASSERT_NE(sel->having, nullptr);
  ASSERT_EQ(sel->order_by.size(), 2u);
  EXPECT_TRUE(sel->order_by[0].descending);
  EXPECT_FALSE(sel->order_by[1].descending);
  EXPECT_EQ(sel->limit, 10);
  EXPECT_EQ(sel->offset, 5);
}

TEST(ParserTest, OperatorPrecedence) {
  auto sel = ParseSelect("SELECT a + b * c - d FROM t");
  ASSERT_TRUE(sel.ok());
  // ((a + (b * c)) - d)
  EXPECT_EQ(sel->items[0].expr->ToString(), "((a + (b * c)) - d)");

  auto logic = ParseSelect("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(logic.ok());
  EXPECT_EQ(logic->where->ToString(),
            "((a = 1) OR ((b = 2) AND (c = 3)))");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto sel = ParseSelect("SELECT (a + b) * c FROM t");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->items[0].expr->ToString(), "((a + b) * c)");
}

TEST(ParserTest, UnaryMinusFoldsLiterals) {
  auto sel = ParseSelect("SELECT -5, -2.5, -x FROM t");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->items[0].expr->kind, ParsedExprKind::kLiteral);
  EXPECT_EQ(sel->items[0].expr->literal.int64_value(), -5);
  EXPECT_DOUBLE_EQ(sel->items[1].expr->literal.double_value(), -2.5);
  EXPECT_EQ(sel->items[2].expr->kind, ParsedExprKind::kUnary);
}

TEST(ParserTest, IntegerLiteralsCoverBigintExactly) {
  auto sel = ParseSelect(
      "SELECT 9223372036854775807, -9223372036854775808, -0, 007 FROM t "
      "WHERE x < -9223372036854775808 LIMIT 9223372036854775807 "
      "OFFSET 0");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_EQ(sel->items.size(), 4u);
  for (const auto& item : sel->items) {
    EXPECT_EQ(item.expr->kind, ParsedExprKind::kLiteral);
  }
  EXPECT_EQ(sel->items[0].expr->literal.int64_value(), INT64_MAX);
  EXPECT_EQ(sel->items[1].expr->literal.int64_value(), INT64_MIN);
  EXPECT_EQ(sel->items[2].expr->literal.int64_value(), 0);
  EXPECT_EQ(sel->items[3].expr->literal.int64_value(), 7);
  // The comparison keeps INT64_MIN itself, not INT64_MIN + 1.
  ASSERT_EQ(sel->where->children.size(), 2u);
  EXPECT_EQ(sel->where->children[1]->literal.int64_value(), INT64_MIN);
  EXPECT_EQ(sel->limit, INT64_MAX);
}

TEST(ParserTest, IntegerLiteralsOutsideBigintAreErrors) {
  for (const std::string literal :
       {"9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "-99999999999999999999",
        "184467440737095516160"}) {
    auto bad = ParseStatement("SELECT x FROM t WHERE x < " + literal);
    ASSERT_FALSE(bad.ok()) << literal;
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << literal;
    EXPECT_NE(bad.status().message().find("integer literal " + literal),
              std::string::npos)
        << bad.status().ToString();
  }
  for (const std::string clause :
       {"LIMIT 9223372036854775808", "LIMIT 99999999999999999999",
        "LIMIT 1 OFFSET 9223372036854775808"}) {
    auto bad = ParseStatement("SELECT x FROM t " + clause);
    ASSERT_FALSE(bad.ok()) << clause;
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << clause;
    const std::string keyword = clause.find("OFFSET") == std::string::npos
                                    ? "LIMIT value "
                                    : "OFFSET value ";
    EXPECT_NE(bad.status().message().find(keyword + clause.substr(
                                                         clause.rfind(' ') + 1)),
              std::string::npos)
        << bad.status().ToString();
  }
  // A fraction is no LIMIT.
  EXPECT_FALSE(ParseStatement("SELECT x FROM t LIMIT 1.5").ok());
}

TEST(ParserTest, NegatingInt64MinStaysANegation) {
  // -(INT64_MIN) has no BIGINT value: the parser keeps the unary minus
  // (evaluated as 0 - x, which fails as an overflow) instead of folding.
  for (const char* sql : {"SELECT - -9223372036854775808 FROM t",
                          "SELECT -(-9223372036854775808) FROM t"}) {
    auto sel = ParseSelect(sql);
    ASSERT_TRUE(sel.ok()) << sql << ": " << sel.status().ToString();
    const ParsedExprPtr& e = sel->items[0].expr;
    ASSERT_EQ(e->kind, ParsedExprKind::kUnary) << sql;
    ASSERT_EQ(e->children[0]->kind, ParsedExprKind::kLiteral) << sql;
    EXPECT_EQ(e->children[0]->literal.int64_value(), INT64_MIN) << sql;
  }
  auto folded = ParseSelect("SELECT - -9223372036854775807 FROM t");
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->items[0].expr->kind, ParsedExprKind::kLiteral);
  EXPECT_EQ(folded->items[0].expr->literal.int64_value(), INT64_MAX);
}

TEST(ParserTest, PredicateSugar) {
  auto sel = ParseSelect(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b NOT LIKE 'x%' "
      "AND c IS NOT NULL AND d NOT IN (1, 2) AND e NOT BETWEEN 0 AND 1");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  std::string where = sel->where->ToString();
  EXPECT_NE(where.find("BETWEEN"), std::string::npos);
  EXPECT_NE(where.find("NOT LIKE"), std::string::npos);
  EXPECT_NE(where.find("IS NOT NULL"), std::string::npos);
  EXPECT_NE(where.find("NOT IN"), std::string::npos);
  EXPECT_NE(where.find("NOT BETWEEN"), std::string::npos);
}

TEST(ParserTest, DateLiteralAndCast) {
  auto sel = ParseSelect(
      "SELECT CAST(a AS DOUBLE) FROM t WHERE d < DATE '1998-12-01'");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->items[0].expr->kind, ParsedExprKind::kCast);
  EXPECT_EQ(sel->items[0].expr->cast_type, TypeId::kDouble);
  // DATE literal parsed into a date-typed value.
  const ParsedExpr& where = *sel->where;
  EXPECT_EQ(where.children[1]->literal.type(), TypeId::kDate);
}

TEST(ParserTest, FunctionCallsAndCountStar) {
  auto sel = ParseSelect(
      "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b * 2), LOWER(name) FROM t");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->items[0].expr->kind, ParsedExprKind::kCall);
  EXPECT_EQ(sel->items[0].expr->children[0]->kind, ParsedExprKind::kStar);
  EXPECT_TRUE(sel->items[1].expr->distinct);
  EXPECT_EQ(sel->items[2].expr->children[0]->kind, ParsedExprKind::kBinary);
}

TEST(ParserTest, CaseWhen) {
  auto sel = ParseSelect(
      "SELECT CASE WHEN a > 1 THEN 'big' WHEN a > 0 THEN 'small' "
      "ELSE 'neg' END FROM t");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  const ParsedExpr& c = *sel->items[0].expr;
  EXPECT_EQ(c.kind, ParsedExprKind::kCase);
  EXPECT_TRUE(c.case_has_else);
  EXPECT_EQ(c.children.size(), 5u);  // 2 pairs + else
}

TEST(ParserTest, CreateTable) {
  auto stmt = ParseStatement(
      "CREATE TABLE IF NOT EXISTS t (id BIGINT PRIMARY KEY, "
      "name VARCHAR(40) NOT NULL, score DOUBLE)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& ct = std::get<CreateTableStatement>(stmt->node);
  EXPECT_TRUE(ct.if_not_exists);
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_EQ(ct.columns[0].type, TypeId::kInt64);
  EXPECT_EQ(ct.columns[1].type, TypeId::kString);
  EXPECT_EQ(ct.columns[2].type, TypeId::kDouble);
}

TEST(ParserTest, InsertMultiRow) {
  auto stmt = ParseStatement(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(stmt.ok());
  const auto& ins = std::get<InsertStatement>(stmt->node);
  EXPECT_EQ(ins.columns.size(), 2u);
  EXPECT_EQ(ins.rows.size(), 2u);
}

TEST(ParserTest, ExplainFlag) {
  auto stmt = ParseStatement("EXPLAIN SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->explain);
}

TEST(ParserTest, DropAndCreateIndex) {
  auto drop = ParseStatement("DROP TABLE IF EXISTS t;");
  ASSERT_TRUE(drop.ok());
  EXPECT_TRUE(std::get<DropTableStatement>(drop->node).if_exists);
  auto index = ParseStatement("CREATE INDEX i ON t (col)");
  ASSERT_TRUE(index.ok());
  const auto& ci = std::get<CreateIndexStatement>(index->node);
  EXPECT_EQ(ci.index, "i");
  EXPECT_EQ(ci.column, "col");
}

TEST(ParserTest, SyntaxErrorsCarryPosition) {
  auto bad = ParseStatement("SELECT FROM t");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos);

  EXPECT_FALSE(ParseStatement("SELECT * FROM").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t extra garbage ,").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t (a NOTATYPE)").ok());
}

TEST(ParserTest, TrailingSemicolonAndCaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseStatement("select * from t;").ok());
  EXPECT_TRUE(ParseStatement("SeLeCt a FrOm t WhErE a = 1").ok());
}

TEST(ParserTest, InListRequiresLiterals) {
  auto bad = ParseStatement("SELECT * FROM t WHERE a IN (b, c)");
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace agora
