#include "sql/parser.h"

#include <cstdint>
#include <cstdlib>

#include "common/string_util.h"
#include "sql/tokenizer.h"

namespace agora {

namespace {

/// Recursive-descent parser over a token stream. One instance per call to
/// ParseStatement; all methods return Status/Result and never throw.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> Parse() {
    Statement stmt;
    if (MatchKeyword("EXPLAIN")) {
      stmt.explain = true;
      if (MatchKeyword("ANALYZE")) stmt.analyze = true;
    }
    if (PeekKeyword("SELECT")) {
      AGORA_ASSIGN_OR_RETURN(SelectStatement sel, ParseSelect());
      stmt.node = std::move(sel);
    } else if (PeekKeyword("CREATE")) {
      // CREATE TABLE or CREATE INDEX
      size_t save = pos_;
      Advance();
      if (PeekKeyword("TABLE")) {
        pos_ = save;
        AGORA_ASSIGN_OR_RETURN(CreateTableStatement ct, ParseCreateTable());
        stmt.node = std::move(ct);
      } else if (PeekKeyword("INDEX")) {
        pos_ = save;
        AGORA_ASSIGN_OR_RETURN(CreateIndexStatement ci, ParseCreateIndex());
        stmt.node = std::move(ci);
      } else {
        return ErrorHere("expected TABLE or INDEX after CREATE");
      }
    } else if (PeekKeyword("DROP")) {
      AGORA_ASSIGN_OR_RETURN(DropTableStatement d, ParseDropTable());
      stmt.node = std::move(d);
    } else if (PeekKeyword("INSERT")) {
      AGORA_ASSIGN_OR_RETURN(InsertStatement ins, ParseInsert());
      stmt.node = std::move(ins);
    } else if (PeekKeyword("UPDATE")) {
      AGORA_ASSIGN_OR_RETURN(UpdateStatement upd, ParseUpdate());
      stmt.node = std::move(upd);
    } else if (PeekKeyword("DELETE")) {
      AGORA_ASSIGN_OR_RETURN(DeleteStatement del, ParseDelete());
      stmt.node = std::move(del);
    } else if (PeekKeyword("COPY")) {
      AGORA_ASSIGN_OR_RETURN(CopyStatement copy, ParseCopy());
      stmt.node = std::move(copy);
    } else {
      return ErrorHere(
          "expected SELECT, CREATE, DROP, INSERT, UPDATE, DELETE, COPY or "
          "EXPLAIN");
    }
    MatchOperator(";");
    if (!Peek().Is(TokenType::kEof)) {
      return ErrorHere("unexpected trailing input");
    }
    return stmt;
  }

 private:
  // -- Token helpers -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.Is(TokenType::kIdentifier) && EqualsIgnoreCase(t.text, kw);
  }
  bool MatchKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!MatchKeyword(kw)) {
      return ErrorHere("expected " + std::string(kw));
    }
    return Status::OK();
  }
  bool PeekOperator(std::string_view op, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.Is(TokenType::kOperator) && t.text == op;
  }
  bool MatchOperator(std::string_view op) {
    if (PeekOperator(op)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectOperator(std::string_view op) {
    if (!MatchOperator(op)) {
      return ErrorHere("expected '" + std::string(op) + "'");
    }
    return Status::OK();
  }

  Status ErrorHere(std::string message) const {
    const Token& t = Peek();
    std::string got = t.Is(TokenType::kEof) ? "end of input" : "'" + t.text + "'";
    return Status::ParseError(message + ", got " + got + " at offset " +
                              std::to_string(t.position));
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    const Token& t = Peek();
    if (!t.Is(TokenType::kIdentifier)) {
      return ErrorHere(std::string("expected ") + what);
    }
    std::string out = t.text;
    Advance();
    return out;
  }

  /// Reserved words that terminate an implicit alias.
  bool IsReservedKeyword(const std::string& word) const {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE",  "GROUP",  "HAVING", "ORDER",  "LIMIT",
        "OFFSET", "JOIN",  "LEFT",   "RIGHT",  "INNER",  "CROSS",  "ON",
        "AND",    "OR",    "NOT",    "AS",     "BY",     "ASC",    "DESC",
        "IN",     "IS",    "LIKE",   "BETWEEN", "CASE",  "WHEN",   "THEN",
        "ELSE",   "END",   "NULL",   "TRUE",   "FALSE",  "DISTINCT",
        "VALUES", "INSERT", "CREATE", "DROP",  "TABLE",  "INDEX",  "UNION",
        "SET",    "UPDATE", "DELETE", "COPY",  "TO",     "INTO",   "IF",
        "EXISTS",
    };
    for (const char* kw : kReserved) {
      if (EqualsIgnoreCase(word, kw)) return true;
    }
    return false;
  }

  // -- Statements ---------------------------------------------------------

  Result<SelectStatement> ParseSelect() {
    AGORA_ASSIGN_OR_RETURN(SelectStatement sel, ParseSelectCore());
    while (MatchKeyword("UNION")) {
      SelectStatement::UnionPart part;
      part.all = MatchKeyword("ALL");
      AGORA_ASSIGN_OR_RETURN(SelectStatement next, ParseSelectCore());
      part.select = std::make_shared<SelectStatement>(std::move(next));
      sel.union_parts.push_back(std::move(part));
    }
    // ORDER BY / LIMIT bind to the whole (possibly unioned) result.
    if (MatchKeyword("ORDER")) {
      AGORA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        OrderByItem item;
        AGORA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("DESC")) {
          item.descending = true;
        } else {
          MatchKeyword("ASC");
        }
        sel.order_by.push_back(std::move(item));
        if (!MatchOperator(",")) break;
      }
    }
    if (MatchKeyword("LIMIT")) {
      AGORA_ASSIGN_OR_RETURN(sel.limit, ParseIntLiteral("LIMIT"));
      if (MatchKeyword("OFFSET")) {
        AGORA_ASSIGN_OR_RETURN(sel.offset, ParseIntLiteral("OFFSET"));
      }
    }
    return sel;
  }

  /// One SELECT "core": everything up to (not including) UNION/ORDER/
  /// LIMIT.
  Result<SelectStatement> ParseSelectCore() {
    SelectStatement sel;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (MatchKeyword("DISTINCT")) sel.distinct = true;
    // Select list.
    while (true) {
      SelectItem item;
      if (MatchOperator("*")) {
        item.is_star = true;
      } else {
        AGORA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("AS")) {
          AGORA_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        } else if (Peek().Is(TokenType::kIdentifier) &&
                   !IsReservedKeyword(Peek().text)) {
          item.alias = Peek().text;
          Advance();
        }
      }
      sel.items.push_back(std::move(item));
      if (!MatchOperator(",")) break;
    }
    AGORA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    AGORA_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    sel.from.push_back(std::move(first));
    // Comma joins and explicit joins.
    while (true) {
      if (MatchOperator(",")) {
        AGORA_ASSIGN_OR_RETURN(TableRef t, ParseTableRef());
        sel.from.push_back(std::move(t));
        continue;
      }
      JoinClause join;
      if (MatchKeyword("CROSS")) {
        join.kind = JoinKind::kCross;
        AGORA_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        AGORA_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        sel.joins.push_back(std::move(join));
        continue;
      }
      if (MatchKeyword("LEFT")) {
        join.kind = JoinKind::kLeft;
        MatchKeyword("OUTER");
        AGORA_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        AGORA_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        AGORA_RETURN_IF_ERROR(ExpectKeyword("ON"));
        AGORA_ASSIGN_OR_RETURN(join.condition, ParseExpr());
        sel.joins.push_back(std::move(join));
        continue;
      }
      if (PeekKeyword("INNER") || PeekKeyword("JOIN")) {
        MatchKeyword("INNER");
        join.kind = JoinKind::kInner;
        AGORA_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        AGORA_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        AGORA_RETURN_IF_ERROR(ExpectKeyword("ON"));
        AGORA_ASSIGN_OR_RETURN(join.condition, ParseExpr());
        sel.joins.push_back(std::move(join));
        continue;
      }
      break;
    }
    if (MatchKeyword("WHERE")) {
      AGORA_ASSIGN_OR_RETURN(sel.where, ParseExpr());
    }
    if (MatchKeyword("GROUP")) {
      AGORA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        AGORA_ASSIGN_OR_RETURN(ParsedExprPtr e, ParseExpr());
        sel.group_by.push_back(std::move(e));
        if (!MatchOperator(",")) break;
      }
    }
    if (MatchKeyword("HAVING")) {
      AGORA_ASSIGN_OR_RETURN(sel.having, ParseExpr());
    }
    return sel;
  }

  Result<int64_t> ParseIntLiteral(const char* what) {
    const Token& t = Peek();
    if (!IsIntegerToken(t)) {
      return ErrorHere(std::string("expected integer after ") + what);
    }
    uint64_t magnitude = 0;
    if (!ParseMagnitude(t.text, &magnitude) ||
        magnitude > static_cast<uint64_t>(INT64_MAX)) {
      return Status::ParseError(std::string(what) + " value " + t.text +
                                " is out of range for BIGINT");
    }
    Advance();
    return static_cast<int64_t>(magnitude);
  }

  /// A number token without a fraction or an exponent.
  static bool IsIntegerToken(const Token& t) {
    return t.Is(TokenType::kNumber) &&
           t.text.find_first_not_of("0123456789") == std::string::npos;
  }

  /// Reads the digits of an integer literal into *magnitude; false when
  /// the value exceeds 2^63, the magnitude of INT64_MIN.
  static bool ParseMagnitude(const std::string& digits, uint64_t* magnitude) {
    constexpr uint64_t kLimit = uint64_t{1} << 63;
    uint64_t v = 0;
    for (char c : digits) {
      const auto d = static_cast<uint64_t>(c - '0');
      if (v > (kLimit - d) / 10) return false;
      v = v * 10 + d;
    }
    *magnitude = v;
    return true;
  }

  /// The BIGINT literal `-digits` (negative) or `digits`, or a parse error
  /// naming the literal when BIGINT cannot hold it.
  Result<ParsedExprPtr> IntLiteral(const std::string& digits, bool negative) {
    constexpr uint64_t kMaxMagnitude = uint64_t{1} << 63;
    uint64_t magnitude = 0;
    if (!ParseMagnitude(digits, &magnitude) ||
        magnitude > kMaxMagnitude - (negative ? 0 : 1)) {
      return Status::ParseError("integer literal " +
                                std::string(negative ? "-" : "") + digits +
                                " is out of range for BIGINT");
    }
    // 0 - magnitude in uint64, then two's complement: -2^63 is INT64_MIN.
    const uint64_t bits = negative ? uint64_t{0} - magnitude : magnitude;
    return MakeParsedLiteral(Value::Int64(static_cast<int64_t>(bits)));
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    AGORA_ASSIGN_OR_RETURN(ref.name, ExpectIdentifier("table name"));
    if (MatchKeyword("AS")) {
      AGORA_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("alias"));
    } else if (Peek().Is(TokenType::kIdentifier) &&
               !IsReservedKeyword(Peek().text)) {
      ref.alias = Peek().text;
      Advance();
    }
    return ref;
  }

  Result<CreateTableStatement> ParseCreateTable() {
    CreateTableStatement ct;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    AGORA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    if (MatchKeyword("IF")) {
      AGORA_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      AGORA_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      ct.if_not_exists = true;
    }
    AGORA_ASSIGN_OR_RETURN(ct.table, ExpectIdentifier("table name"));
    AGORA_RETURN_IF_ERROR(ExpectOperator("("));
    while (true) {
      ColumnDef def;
      AGORA_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("column name"));
      AGORA_ASSIGN_OR_RETURN(std::string type_name,
                             ExpectIdentifier("type name"));
      // Swallow VARCHAR(32)-style length arguments.
      if (MatchOperator("(")) {
        while (!PeekOperator(")") && !Peek().Is(TokenType::kEof)) Advance();
        AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
      }
      def.type = TypeIdFromString(type_name);
      if (def.type == TypeId::kInvalid) {
        return Status::ParseError("unknown type '" + type_name + "'");
      }
      // Swallow NOT NULL / PRIMARY KEY hints.
      if (MatchKeyword("NOT")) AGORA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      if (MatchKeyword("PRIMARY")) AGORA_RETURN_IF_ERROR(ExpectKeyword("KEY"));
      ct.columns.push_back(std::move(def));
      if (!MatchOperator(",")) break;
    }
    AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
    return ct;
  }

  Result<DropTableStatement> ParseDropTable() {
    DropTableStatement d;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("DROP"));
    AGORA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    if (MatchKeyword("IF")) {
      AGORA_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      d.if_exists = true;
    }
    AGORA_ASSIGN_OR_RETURN(d.table, ExpectIdentifier("table name"));
    return d;
  }

  Result<InsertStatement> ParseInsert() {
    InsertStatement ins;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    AGORA_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    AGORA_ASSIGN_OR_RETURN(ins.table, ExpectIdentifier("table name"));
    if (MatchOperator("(")) {
      while (true) {
        AGORA_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("column name"));
        ins.columns.push_back(std::move(col));
        if (!MatchOperator(",")) break;
      }
      AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
    }
    AGORA_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      AGORA_RETURN_IF_ERROR(ExpectOperator("("));
      std::vector<ParsedExprPtr> row;
      while (true) {
        AGORA_ASSIGN_OR_RETURN(ParsedExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!MatchOperator(",")) break;
      }
      AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
      ins.rows.push_back(std::move(row));
      if (!MatchOperator(",")) break;
    }
    return ins;
  }

  Result<UpdateStatement> ParseUpdate() {
    UpdateStatement upd;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    AGORA_ASSIGN_OR_RETURN(upd.table, ExpectIdentifier("table name"));
    AGORA_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      AGORA_ASSIGN_OR_RETURN(std::string column,
                             ExpectIdentifier("column name"));
      AGORA_RETURN_IF_ERROR(ExpectOperator("="));
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr value, ParseExpr());
      upd.assignments.emplace_back(std::move(column), std::move(value));
      if (!MatchOperator(",")) break;
    }
    if (MatchKeyword("WHERE")) {
      AGORA_ASSIGN_OR_RETURN(upd.where, ParseExpr());
    }
    return upd;
  }

  Result<DeleteStatement> ParseDelete() {
    DeleteStatement del;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    AGORA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    AGORA_ASSIGN_OR_RETURN(del.table, ExpectIdentifier("table name"));
    if (MatchKeyword("WHERE")) {
      AGORA_ASSIGN_OR_RETURN(del.where, ParseExpr());
    }
    return del;
  }

  Result<CopyStatement> ParseCopy() {
    CopyStatement copy;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("COPY"));
    AGORA_ASSIGN_OR_RETURN(copy.table, ExpectIdentifier("table name"));
    if (MatchKeyword("FROM")) {
      copy.is_from = true;
    } else if (MatchKeyword("TO")) {
      copy.is_from = false;
    } else {
      return ErrorHere("expected FROM or TO after COPY <table>");
    }
    const Token& t = Peek();
    if (!t.Is(TokenType::kString)) {
      return ErrorHere("expected a quoted file path");
    }
    copy.path = t.text;
    Advance();
    return copy;
  }

  Result<CreateIndexStatement> ParseCreateIndex() {
    CreateIndexStatement ci;
    AGORA_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    AGORA_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
    AGORA_ASSIGN_OR_RETURN(ci.index, ExpectIdentifier("index name"));
    AGORA_RETURN_IF_ERROR(ExpectKeyword("ON"));
    AGORA_ASSIGN_OR_RETURN(ci.table, ExpectIdentifier("table name"));
    AGORA_RETURN_IF_ERROR(ExpectOperator("("));
    AGORA_ASSIGN_OR_RETURN(ci.column, ExpectIdentifier("column name"));
    AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
    return ci;
  }

  // -- Expressions (precedence climbing) -----------------------------------
  //
  // expr        := or_expr
  // or_expr     := and_expr (OR and_expr)*
  // and_expr    := not_expr (AND not_expr)*
  // not_expr    := NOT not_expr | predicate
  // predicate   := additive [ (comparison additive)
  //                          | IS [NOT] NULL | [NOT] LIKE str
  //                          | [NOT] IN (...) | [NOT] BETWEEN a AND b ]
  // additive    := multiplicative ((+|-) multiplicative)*
  // multiplicative := unary ((*|/|%) unary)*
  // unary       := - unary | primary
  // primary     := literal | column | call | ( expr ) | CASE ... END
  //              | CAST ( expr AS type )

  Result<ParsedExprPtr> ParseExpr() { return ParseOr(); }

  Result<ParsedExprPtr> ParseOr() {
    AGORA_ASSIGN_OR_RETURN(ParsedExprPtr left, ParseAnd());
    while (PeekKeyword("OR")) {
      Advance();
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr right, ParseAnd());
      left = MakeParsedBinary("OR", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseAnd() {
    AGORA_ASSIGN_OR_RETURN(ParsedExprPtr left, ParseNot());
    while (PeekKeyword("AND")) {
      Advance();
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr right, ParseNot());
      left = MakeParsedBinary("AND", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr child, ParseNot());
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExprKind::kUnary;
      e->op = "NOT";
      e->children = {std::move(child)};
      return e;
    }
    return ParsePredicate();
  }

  Result<ParsedExprPtr> ParsePredicate() {
    AGORA_ASSIGN_OR_RETURN(ParsedExprPtr left, ParseAdditive());
    // Comparison operators.
    for (const char* op : {"=", "<>", "<=", ">=", "<", ">"}) {
      if (PeekOperator(op)) {
        Advance();
        AGORA_ASSIGN_OR_RETURN(ParsedExprPtr right, ParseAdditive());
        return MakeParsedBinary(op, std::move(left), std::move(right));
      }
    }
    bool negated = false;
    if (PeekKeyword("NOT") &&
        (PeekKeyword("LIKE", 1) || PeekKeyword("IN", 1) ||
         PeekKeyword("BETWEEN", 1))) {
      Advance();
      negated = true;
    }
    if (MatchKeyword("IS")) {
      bool is_not = MatchKeyword("NOT");
      AGORA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExprKind::kIsNull;
      e->negated = is_not;
      e->children = {std::move(left)};
      return ParsedExprPtr(std::move(e));
    }
    if (MatchKeyword("LIKE")) {
      const Token& t = Peek();
      if (!t.Is(TokenType::kString)) {
        return ErrorHere("expected string pattern after LIKE");
      }
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExprKind::kLike;
      e->negated = negated;
      e->pattern = t.text;
      Advance();
      e->children = {std::move(left)};
      return ParsedExprPtr(std::move(e));
    }
    if (MatchKeyword("IN")) {
      AGORA_RETURN_IF_ERROR(ExpectOperator("("));
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExprKind::kInList;
      e->negated = negated;
      while (true) {
        AGORA_ASSIGN_OR_RETURN(ParsedExprPtr item, ParseExpr());
        if (item->kind != ParsedExprKind::kLiteral) {
          return Status::ParseError("IN list supports literals only");
        }
        e->in_values.push_back(item->literal);
        if (!MatchOperator(",")) break;
      }
      AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
      e->children = {std::move(left)};
      return ParsedExprPtr(std::move(e));
    }
    if (MatchKeyword("BETWEEN")) {
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr lo, ParseAdditive());
      AGORA_RETURN_IF_ERROR(ExpectKeyword("AND"));
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr hi, ParseAdditive());
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExprKind::kBetween;
      e->negated = negated;
      e->children = {std::move(left), std::move(lo), std::move(hi)};
      return ParsedExprPtr(std::move(e));
    }
    if (negated) return ErrorHere("expected LIKE, IN or BETWEEN after NOT");
    return left;
  }

  Result<ParsedExprPtr> ParseAdditive() {
    AGORA_ASSIGN_OR_RETURN(ParsedExprPtr left, ParseMultiplicative());
    while (PeekOperator("+") || PeekOperator("-")) {
      std::string op = Peek().text;
      Advance();
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr right, ParseMultiplicative());
      left = MakeParsedBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseMultiplicative() {
    AGORA_ASSIGN_OR_RETURN(ParsedExprPtr left, ParseUnary());
    while (PeekOperator("*") || PeekOperator("/") || PeekOperator("%")) {
      std::string op = Peek().text;
      Advance();
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr right, ParseUnary());
      left = MakeParsedBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseUnary() {
    if (MatchOperator("-")) {
      // A negative integer literal folds from its digits, so INT64_MIN,
      // whose magnitude BIGINT cannot hold, is written as itself.
      if (IsIntegerToken(Peek())) {
        const std::string digits = Peek().text;
        Advance();
        return IntLiteral(digits, /*negative=*/true);
      }
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr child, ParseUnary());
      // Fold negative numeric literals immediately; INT64_MIN stays a
      // negation (0 - x), which fails as the overflow it is.
      if (child->kind == ParsedExprKind::kLiteral &&
          child->literal.type() == TypeId::kInt64 &&
          child->literal.int64_value() != INT64_MIN) {
        return MakeParsedLiteral(Value::Int64(-child->literal.int64_value()));
      }
      if (child->kind == ParsedExprKind::kLiteral &&
          child->literal.type() == TypeId::kDouble) {
        return MakeParsedLiteral(
            Value::Double(-child->literal.double_value()));
      }
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExprKind::kUnary;
      e->op = "-";
      e->children = {std::move(child)};
      return ParsedExprPtr(std::move(e));
    }
    return ParsePrimary();
  }

  Result<ParsedExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.Is(TokenType::kNumber)) {
      Advance();
      if (t.text.find('.') != std::string::npos ||
          t.text.find('e') != std::string::npos ||
          t.text.find('E') != std::string::npos) {
        return MakeParsedLiteral(Value::Double(std::strtod(t.text.c_str(),
                                                           nullptr)));
      }
      return IntLiteral(t.text, /*negative=*/false);
    }
    if (t.Is(TokenType::kString)) {
      Advance();
      return MakeParsedLiteral(Value::String(t.text));
    }
    if (MatchOperator("(")) {
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr inner, ParseExpr());
      AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
      return inner;
    }
    // Vector literal: [v1, v2, ...] (numbers, optionally negated).
    if (MatchOperator("[")) {
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExprKind::kVectorLiteral;
      if (!PeekOperator("]")) {
        while (true) {
          AGORA_ASSIGN_OR_RETURN(ParsedExprPtr comp, ParseUnary());
          if (comp->kind != ParsedExprKind::kLiteral) {
            return Status::ParseError(
                "vector literal components must be numbers");
          }
          if (comp->literal.type() == TypeId::kInt64) {
            e->vector_values.push_back(
                static_cast<double>(comp->literal.int64_value()));
          } else if (comp->literal.type() == TypeId::kDouble) {
            e->vector_values.push_back(comp->literal.double_value());
          } else {
            return Status::ParseError(
                "vector literal components must be numbers");
          }
          if (!MatchOperator(",")) break;
        }
      }
      AGORA_RETURN_IF_ERROR(ExpectOperator("]"));
      return ParsedExprPtr(std::move(e));
    }
    if (t.Is(TokenType::kIdentifier)) {
      if (EqualsIgnoreCase(t.text, "NULL")) {
        Advance();
        return MakeParsedLiteral(Value::Null());
      }
      if (EqualsIgnoreCase(t.text, "TRUE")) {
        Advance();
        return MakeParsedLiteral(Value::Bool(true));
      }
      if (EqualsIgnoreCase(t.text, "FALSE")) {
        Advance();
        return MakeParsedLiteral(Value::Bool(false));
      }
      if (EqualsIgnoreCase(t.text, "DATE") &&
          Peek(1).Is(TokenType::kString)) {
        Advance();
        const Token& s = Peek();
        int64_t days;
        if (!ParseDate(s.text, &days)) {
          return Status::ParseError("invalid DATE literal '" + s.text + "'");
        }
        Advance();
        return MakeParsedLiteral(Value::Date(days));
      }
      if (EqualsIgnoreCase(t.text, "CAST")) {
        Advance();
        AGORA_RETURN_IF_ERROR(ExpectOperator("("));
        AGORA_ASSIGN_OR_RETURN(ParsedExprPtr child, ParseExpr());
        AGORA_RETURN_IF_ERROR(ExpectKeyword("AS"));
        AGORA_ASSIGN_OR_RETURN(std::string type_name,
                               ExpectIdentifier("type name"));
        TypeId target = TypeIdFromString(type_name);
        if (target == TypeId::kInvalid) {
          return Status::ParseError("unknown type '" + type_name + "'");
        }
        AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
        auto e = std::make_shared<ParsedExpr>();
        e->kind = ParsedExprKind::kCast;
        e->cast_type = target;
        e->children = {std::move(child)};
        return ParsedExprPtr(std::move(e));
      }
      if (EqualsIgnoreCase(t.text, "CASE")) {
        return ParseCase();
      }
      // Function call?
      if (PeekOperator("(", 1)) {
        std::string name = t.text;
        Advance();
        Advance();  // consume '('
        auto e = std::make_shared<ParsedExpr>();
        e->kind = ParsedExprKind::kCall;
        e->column = name;
        if (MatchKeyword("DISTINCT")) e->distinct = true;
        if (MatchOperator("*")) {
          auto star = std::make_shared<ParsedExpr>();
          star->kind = ParsedExprKind::kStar;
          e->children.push_back(std::move(star));
        } else if (!PeekOperator(")")) {
          while (true) {
            AGORA_ASSIGN_OR_RETURN(ParsedExprPtr arg, ParseExpr());
            e->children.push_back(std::move(arg));
            if (!MatchOperator(",")) break;
          }
        }
        AGORA_RETURN_IF_ERROR(ExpectOperator(")"));
        return ParsedExprPtr(std::move(e));
      }
      // Column reference, possibly qualified.
      std::string first = t.text;
      Advance();
      if (MatchOperator(".")) {
        AGORA_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("column name"));
        return MakeParsedColumn(first, std::move(col));
      }
      return MakeParsedColumn("", std::move(first));
    }
    return ErrorHere("expected expression");
  }

  Result<ParsedExprPtr> ParseCase() {
    AGORA_RETURN_IF_ERROR(ExpectKeyword("CASE"));
    auto e = std::make_shared<ParsedExpr>();
    e->kind = ParsedExprKind::kCase;
    if (!PeekKeyword("WHEN")) {
      return ErrorHere("only searched CASE (CASE WHEN ...) is supported");
    }
    while (MatchKeyword("WHEN")) {
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr cond, ParseExpr());
      AGORA_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr result, ParseExpr());
      e->children.push_back(std::move(cond));
      e->children.push_back(std::move(result));
    }
    if (MatchKeyword("ELSE")) {
      AGORA_ASSIGN_OR_RETURN(ParsedExprPtr other, ParseExpr());
      e->children.push_back(std::move(other));
      e->case_has_else = true;
    }
    AGORA_RETURN_IF_ERROR(ExpectKeyword("END"));
    return ParsedExprPtr(std::move(e));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view sql) {
  AGORA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace agora
