#include "plan/binder.h"

#include <functional>
#include <set>

#include "common/string_util.h"

namespace agora {

bool LookupAggFunc(const std::string& name, AggFunc* out) {
  std::string n = ToUpper(name);
  if (n == "COUNT") {
    *out = AggFunc::kCount;
  } else if (n == "SUM") {
    *out = AggFunc::kSum;
  } else if (n == "AVG") {
    *out = AggFunc::kAvg;
  } else if (n == "MIN") {
    *out = AggFunc::kMin;
  } else if (n == "MAX") {
    *out = AggFunc::kMax;
  } else if (n == "STDDEV" || n == "STDDEV_SAMP") {
    *out = AggFunc::kStddev;
  } else if (n == "VARIANCE" || n == "VAR_SAMP" || n == "VAR") {
    *out = AggFunc::kVariance;
  } else {
    return false;
  }
  return true;
}

bool ContainsAggregate(const ParsedExpr& e) {
  if (e.kind == ParsedExprKind::kCall) {
    AggFunc f;
    if (LookupAggFunc(e.column, &f)) return true;
  }
  for (const auto& child : e.children) {
    if (child != nullptr && ContainsAggregate(*child)) return true;
  }
  return false;
}

namespace {

/// Output column name for an unaliased select item.
std::string DeriveName(const ParsedExpr& e) {
  if (e.kind == ParsedExprKind::kColumn) return e.column;
  return e.ToString();
}

/// If `lit` is a string literal and `other_type` is kDate, re-interpret the
/// literal as a DATE so `o_orderdate < '1995-01-01'` binds naturally.
Result<ExprPtr> CoerceLiteralTo(ExprPtr lit, TypeId target) {
  const auto* l = static_cast<const LiteralExpr*>(lit.get());
  AGORA_ASSIGN_OR_RETURN(Value v, l->value().CastTo(target));
  return MakeLiteral(std::move(v));
}

bool IsStringLiteral(const ExprPtr& e) {
  return e->kind() == ExprKind::kLiteral &&
         e->result_type() == TypeId::kString;
}

}  // namespace

Result<ExprPtr> Binder::BindColumn(const ParsedExpr& parsed,
                                   const Schema& schema) {
  // Qualified reference: exact "table.column" match.
  if (!parsed.table.empty()) {
    std::string full = parsed.table + "." + parsed.column;
    auto idx = schema.FindField(full);
    if (!idx.has_value()) {
      return Status::BindError("column '" + full + "' not found");
    }
    return MakeColumnRef(*idx, schema.field(*idx).type, full);
  }
  // Unqualified: match the suffix after '.', or the whole name.
  std::optional<size_t> found;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const std::string& name = schema.field(i).name;
    size_t dot = name.rfind('.');
    std::string_view suffix =
        dot == std::string::npos ? std::string_view(name)
                                 : std::string_view(name).substr(dot + 1);
    if (EqualsIgnoreCase(suffix, parsed.column) ||
        EqualsIgnoreCase(name, parsed.column)) {
      if (found.has_value() && *found != i) {
        return Status::BindError("column '" + parsed.column +
                                 "' is ambiguous");
      }
      found = i;
    }
  }
  if (!found.has_value()) {
    return Status::BindError("column '" + parsed.column + "' not found in [" +
                             schema.ToString() + "]");
  }
  return MakeColumnRef(*found, schema.field(*found).type,
                       schema.field(*found).name);
}

Result<ExprPtr> Binder::BindBinary(const ParsedExpr& parsed,
                                   const Schema& schema,
                                   AggBindingContext* agg) {
  const std::string& op = parsed.op;
  if (op == "AND" || op == "OR") {
    AGORA_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(parsed.children[0], schema, agg));
    AGORA_ASSIGN_OR_RETURN(ExprPtr r, BindExpr(parsed.children[1], schema, agg));
    if (l->result_type() != TypeId::kBool || r->result_type() != TypeId::kBool) {
      return Status::TypeError(op + " requires BOOLEAN operands");
    }
    return op == "AND" ? MakeAnd(std::move(l), std::move(r))
                       : MakeOr(std::move(l), std::move(r));
  }

  AGORA_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(parsed.children[0], schema, agg));
  AGORA_ASSIGN_OR_RETURN(ExprPtr r, BindExpr(parsed.children[1], schema, agg));

  // Comparisons.
  CompareOp cmp;
  bool is_cmp = true;
  if (op == "=") {
    cmp = CompareOp::kEq;
  } else if (op == "<>") {
    cmp = CompareOp::kNe;
  } else if (op == "<") {
    cmp = CompareOp::kLt;
  } else if (op == "<=") {
    cmp = CompareOp::kLe;
  } else if (op == ">") {
    cmp = CompareOp::kGt;
  } else if (op == ">=") {
    cmp = CompareOp::kGe;
  } else {
    is_cmp = false;
  }
  if (is_cmp) {
    // Allow date-vs-string-literal by retyping the literal.
    if (l->result_type() == TypeId::kDate && IsStringLiteral(r)) {
      AGORA_ASSIGN_OR_RETURN(r, CoerceLiteralTo(r, TypeId::kDate));
    } else if (r->result_type() == TypeId::kDate && IsStringLiteral(l)) {
      AGORA_ASSIGN_OR_RETURN(l, CoerceLiteralTo(l, TypeId::kDate));
    }
    bool l_str = l->result_type() == TypeId::kString;
    bool r_str = r->result_type() == TypeId::kString;
    if (l_str != r_str) {
      return Status::TypeError(
          "cannot compare " +
          std::string(TypeIdToString(l->result_type())) + " with " +
          std::string(TypeIdToString(r->result_type())));
    }
    return MakeCompare(cmp, std::move(l), std::move(r));
  }

  // Arithmetic.
  ArithOp arith;
  if (op == "+") {
    arith = ArithOp::kAdd;
  } else if (op == "-") {
    arith = ArithOp::kSub;
  } else if (op == "*") {
    arith = ArithOp::kMul;
  } else if (op == "/") {
    arith = ArithOp::kDiv;
  } else if (op == "%") {
    arith = ArithOp::kMod;
  } else {
    return Status::BindError("unsupported operator '" + op + "'");
  }
  TypeId result = CommonNumericType(l->result_type(), r->result_type());
  if (result == TypeId::kInvalid) {
    return Status::TypeError(
        "arithmetic requires numeric operands, got " +
        std::string(TypeIdToString(l->result_type())) + " and " +
        std::string(TypeIdToString(r->result_type())));
  }
  return ExprPtr(std::make_shared<ArithmeticExpr>(arith, std::move(l),
                                                  std::move(r), result));
}

Result<AggregateSpec> Binder::BindAggregateCall(const ParsedExpr& parsed,
                                                const Schema& input) {
  AggregateSpec spec;
  AGORA_CHECK(LookupAggFunc(parsed.column, &spec.func));
  spec.distinct = parsed.distinct;
  spec.name = parsed.ToString();
  if (parsed.children.size() == 1 &&
      parsed.children[0]->kind == ParsedExprKind::kStar) {
    if (spec.func != AggFunc::kCount) {
      return Status::BindError("only COUNT(*) may take '*'");
    }
    spec.func = AggFunc::kCountStar;
    spec.result_type = TypeId::kInt64;
    return spec;
  }
  if (parsed.children.size() != 1) {
    return Status::BindError("aggregate '" + parsed.column +
                             "' takes exactly one argument");
  }
  AGORA_ASSIGN_OR_RETURN(spec.arg, BindScalarExpr(parsed.children[0], input));
  TypeId arg_type = spec.arg->result_type();
  switch (spec.func) {
    case AggFunc::kCount:
      spec.result_type = TypeId::kInt64;
      break;
    case AggFunc::kSum:
      if (!IsNumeric(arg_type)) {
        return Status::TypeError("SUM requires a numeric argument");
      }
      spec.result_type =
          arg_type == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
      break;
    case AggFunc::kAvg:
      if (!IsNumeric(arg_type)) {
        return Status::TypeError("AVG requires a numeric argument");
      }
      spec.result_type = TypeId::kDouble;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      // An untyped NULL argument evaluates as BOOLEAN NULLs (LiteralExpr),
      // so its MIN/MAX is a BOOLEAN column of NULLs, which the chunk
      // verifier and the spill format accept like any typed column.
      spec.result_type =
          arg_type == TypeId::kInvalid ? TypeId::kBool : arg_type;
      break;
    case AggFunc::kStddev:
    case AggFunc::kVariance:
      if (!IsNumeric(arg_type)) {
        return Status::TypeError("STDDEV/VARIANCE require a numeric "
                                 "argument");
      }
      spec.result_type = TypeId::kDouble;
      break;
    case AggFunc::kCountStar:
      break;  // handled above
  }
  return spec;
}

Result<ExprPtr> Binder::BindCall(const ParsedExpr& parsed,
                                 const Schema& schema,
                                 AggBindingContext* agg) {
  AggFunc agg_func;
  if (LookupAggFunc(parsed.column, &agg_func)) {
    if (agg == nullptr) {
      return Status::BindError("aggregate '" + parsed.column +
                               "' is not allowed here");
    }
    AGORA_ASSIGN_OR_RETURN(AggregateSpec spec,
                           BindAggregateCall(parsed, *agg->input));
    // Reuse an identical aggregate if already collected.
    for (size_t j = 0; j < agg->specs->size(); ++j) {
      if ((*agg->specs)[j].name == spec.name) {
        return MakeColumnRef(agg->group_exprs->size() + j,
                             (*agg->specs)[j].result_type, spec.name);
      }
    }
    agg->specs->push_back(spec);
    return MakeColumnRef(agg->group_exprs->size() + agg->specs->size() - 1,
                         spec.result_type, spec.name);
  }

  // Hybrid-search pseudo columns: score()/keyword_score()/vector_score()
  // resolve to the corresponding LogicalScoreFusion output column;
  // distance(col, [vec]) resolves to the raw vector distance column.
  std::string upper = ToUpper(parsed.column);
  if (upper == "SCORE" || upper == "KEYWORD_SCORE" ||
      upper == "VECTOR_SCORE") {
    // Arguments (fusion configuration, e.g. score('rrf', 60)) were already
    // consumed by TryBindHybrid; here the call is just a column reference.
    auto bound = BindColumn(*MakeParsedColumn("", ToLower(upper)), schema);
    if (!bound.ok()) {
      return Status::BindError(
          ToLower(upper) +
          "() is only valid in hybrid search queries (add MATCH() or "
          "KNN() to the WHERE clause)");
    }
    return bound;
  }
  if (upper == "DISTANCE" && parsed.children.size() == 2 &&
      parsed.children[1]->kind == ParsedExprKind::kVectorLiteral) {
    auto bound = BindColumn(*MakeParsedColumn("", "distance"), schema);
    if (!bound.ok()) {
      return Status::BindError(
          "distance() is only valid in hybrid search queries over a table "
          "with an attached vector index");
    }
    if (parsed.children[1]->vector_values != hybrid_query_vector_) {
      return Status::BindError(
          "distance() vector literal must match the query vector of this "
          "statement's KNN()/distance() search");
    }
    return bound;
  }
  if (upper == "MATCH" || upper == "KNN") {
    return Status::BindError(
        parsed.column +
        "() must appear as a top-level AND conjunct of the WHERE clause");
  }

  // Scalar function.
  ScalarFunc func;
  if (!LookupScalarFunc(parsed.column, &func)) {
    return Status::BindError("unknown function '" + parsed.column + "'");
  }
  if (parsed.children.size() != 1) {
    return Status::BindError("function '" + parsed.column +
                             "' takes exactly one argument");
  }
  AGORA_ASSIGN_OR_RETURN(ExprPtr arg,
                         BindExpr(parsed.children[0], schema, agg));
  TypeId result = ScalarFuncResultType(func, arg->result_type());
  if (result == TypeId::kInvalid) {
    return Status::TypeError(
        "function " + parsed.column + " cannot take " +
        std::string(TypeIdToString(arg->result_type())));
  }
  return ExprPtr(std::make_shared<FunctionExpr>(func, std::move(arg), result));
}

Result<ExprPtr> Binder::BindExpr(const ParsedExprPtr& parsed,
                                 const Schema& schema,
                                 AggBindingContext* agg) {
  const ParsedExpr& e = *parsed;

  // In aggregate mode, a subexpression that exactly matches a GROUP BY
  // expression becomes a reference to that group column.
  if (agg != nullptr && e.kind != ParsedExprKind::kLiteral &&
      !ContainsAggregate(e)) {
    auto bound = BindScalarExpr(parsed, *agg->input);
    if (bound.ok()) {
      std::string text = (*bound)->ToString();
      for (size_t g = 0; g < agg->group_exprs->size(); ++g) {
        if ((*agg->group_exprs)[g]->ToString() == text) {
          return MakeColumnRef(g, (*agg->group_exprs)[g]->result_type(),
                               text);
        }
      }
      // Bound fine but not a group key: only OK if it contains no column
      // references (pure constant).
      if ((*bound)->IsConstant()) return *bound;
      return Status::BindError("expression '" + text +
                               "' must appear in GROUP BY or inside an "
                               "aggregate function");
    }
    // Fall through: contains something needing per-node handling (e.g.
    // arithmetic over aggregates).
  }

  switch (e.kind) {
    case ParsedExprKind::kColumn:
      return BindColumn(e, schema);
    case ParsedExprKind::kLiteral:
      return MakeLiteral(e.literal);
    case ParsedExprKind::kStar:
      return Status::BindError("'*' is not a scalar expression");
    case ParsedExprKind::kBinary:
      return BindBinary(e, schema, agg);
    case ParsedExprKind::kUnary: {
      AGORA_ASSIGN_OR_RETURN(ExprPtr child,
                             BindExpr(e.children[0], schema, agg));
      if (e.op == "NOT") {
        if (child->result_type() != TypeId::kBool) {
          return Status::TypeError("NOT requires a BOOLEAN operand");
        }
        return MakeNot(std::move(child));
      }
      // Unary minus: 0 - child.
      TypeId t = child->result_type();
      if (!IsNumeric(t)) {
        return Status::TypeError("unary '-' requires a numeric operand");
      }
      ExprPtr zero = t == TypeId::kDouble ? MakeLiteral(Value::Double(0))
                                          : MakeLiteral(Value::Int64(0));
      return ExprPtr(std::make_shared<ArithmeticExpr>(
          ArithOp::kSub, std::move(zero), std::move(child), t));
    }
    case ParsedExprKind::kCall:
      return BindCall(e, schema, agg);
    case ParsedExprKind::kIsNull: {
      AGORA_ASSIGN_OR_RETURN(ExprPtr child,
                             BindExpr(e.children[0], schema, agg));
      return ExprPtr(std::make_shared<IsNullExpr>(std::move(child), e.negated));
    }
    case ParsedExprKind::kLike: {
      AGORA_ASSIGN_OR_RETURN(ExprPtr child,
                             BindExpr(e.children[0], schema, agg));
      if (child->result_type() != TypeId::kString) {
        return Status::TypeError("LIKE requires a VARCHAR operand");
      }
      return ExprPtr(
          std::make_shared<LikeExpr>(std::move(child), e.pattern, e.negated));
    }
    case ParsedExprKind::kInList: {
      AGORA_ASSIGN_OR_RETURN(ExprPtr child,
                             BindExpr(e.children[0], schema, agg));
      // Retype string literals when the probe side is a DATE.
      std::vector<Value> values = e.in_values;
      if (child->result_type() == TypeId::kDate) {
        for (Value& v : values) {
          if (v.type() == TypeId::kString) {
            AGORA_ASSIGN_OR_RETURN(v, v.CastTo(TypeId::kDate));
          }
        }
      }
      return ExprPtr(std::make_shared<InListExpr>(
          std::move(child), std::move(values), e.negated));
    }
    case ParsedExprKind::kBetween: {
      AGORA_ASSIGN_OR_RETURN(ExprPtr child,
                             BindExpr(e.children[0], schema, agg));
      AGORA_ASSIGN_OR_RETURN(ExprPtr lo, BindExpr(e.children[1], schema, agg));
      AGORA_ASSIGN_OR_RETURN(ExprPtr hi, BindExpr(e.children[2], schema, agg));
      if (child->result_type() == TypeId::kDate) {
        if (IsStringLiteral(lo)) {
          AGORA_ASSIGN_OR_RETURN(lo, CoerceLiteralTo(lo, TypeId::kDate));
        }
        if (IsStringLiteral(hi)) {
          AGORA_ASSIGN_OR_RETURN(hi, CoerceLiteralTo(hi, TypeId::kDate));
        }
      }
      ExprPtr ge = MakeCompare(CompareOp::kGe, child->Clone(), std::move(lo));
      ExprPtr le = MakeCompare(CompareOp::kLe, std::move(child), std::move(hi));
      ExprPtr both = MakeAnd(std::move(ge), std::move(le));
      return e.negated ? MakeNot(std::move(both)) : std::move(both);
    }
    case ParsedExprKind::kCast: {
      AGORA_ASSIGN_OR_RETURN(ExprPtr child,
                             BindExpr(e.children[0], schema, agg));
      return ExprPtr(std::make_shared<CastExpr>(std::move(child), e.cast_type));
    }
    case ParsedExprKind::kCase: {
      size_t pairs = (e.children.size() - (e.case_has_else ? 1 : 0)) / 2;
      std::vector<ExprPtr> conds, results;
      // Every result, ELSE included, shares one type: an untyped NULL
      // fits any, int/double mixes promote, anything else mismatches.
      TypeId result_type = TypeId::kInvalid;
      auto unify = [&result_type](TypeId t) -> Status {
        if (t == TypeId::kInvalid || t == result_type) return Status::OK();
        TypeId common = result_type == TypeId::kInvalid
                            ? t
                            : CommonNumericType(result_type, t);
        if (common == TypeId::kInvalid) {
          return Status::TypeError("CASE branches have mismatched types");
        }
        result_type = common;
        return Status::OK();
      };
      for (size_t i = 0; i < pairs; ++i) {
        AGORA_ASSIGN_OR_RETURN(ExprPtr c,
                               BindExpr(e.children[2 * i], schema, agg));
        if (c->result_type() != TypeId::kBool) {
          return Status::TypeError("CASE WHEN condition must be BOOLEAN");
        }
        AGORA_ASSIGN_OR_RETURN(ExprPtr r,
                               BindExpr(e.children[2 * i + 1], schema, agg));
        AGORA_RETURN_IF_ERROR(unify(r->result_type()));
        conds.push_back(std::move(c));
        results.push_back(std::move(r));
      }
      ExprPtr else_result;
      if (e.case_has_else) {
        AGORA_ASSIGN_OR_RETURN(else_result,
                               BindExpr(e.children.back(), schema, agg));
        AGORA_RETURN_IF_ERROR(unify(else_result->result_type()));
      }
      // Only untyped NULLs: BOOLEAN NULLs, as a bare NULL evaluates.
      if (result_type == TypeId::kInvalid) result_type = TypeId::kBool;
      return ExprPtr(std::make_shared<CaseExpr>(
          std::move(conds), std::move(results), std::move(else_result),
          result_type));
    }
    case ParsedExprKind::kVectorLiteral:
      // Vector literals only appear inside KNN()/distance() calls, which
      // the hybrid conjunct extraction consumes before scalar binding.
      return Status::BindError(
          "vector literal is not a scalar expression outside KNN/distance");
  }
  return Status::Internal("unhandled parsed expression kind");
}

Result<ExprPtr> Binder::BindScalarExpr(const ParsedExprPtr& parsed,
                                       const Schema& schema) {
  return BindExpr(parsed, schema, nullptr);
}

Result<LogicalOpPtr> Binder::BindFromClause(const SelectStatement& sel) {
  if (sel.from.empty()) {
    return Status::BindError("FROM clause is required");
  }
  std::set<std::string> seen_aliases;
  auto make_scan = [&](const TableRef& ref) -> Result<LogicalOpPtr> {
    AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           catalog_.GetTable(ref.name));
    std::string alias = ToLower(ref.effective_name());
    if (!seen_aliases.insert(alias).second) {
      return Status::BindError("duplicate table alias '" + alias + "'");
    }
    return LogicalOpPtr(std::make_shared<LogicalScan>(table, alias));
  };

  AGORA_ASSIGN_OR_RETURN(LogicalOpPtr plan, make_scan(sel.from[0]));
  // Comma-separated relations: cross joins (the WHERE clause carries the
  // join predicates; the optimizer turns them into equi-joins).
  for (size_t i = 1; i < sel.from.size(); ++i) {
    AGORA_ASSIGN_OR_RETURN(LogicalOpPtr right, make_scan(sel.from[i]));
    plan = std::make_shared<LogicalJoin>(LogicalJoin::Kind::kCross,
                                         std::move(plan), std::move(right),
                                         nullptr);
  }
  // Explicit JOIN clauses, left to right.
  for (const JoinClause& join : sel.joins) {
    AGORA_ASSIGN_OR_RETURN(LogicalOpPtr right, make_scan(join.table));
    Schema combined = plan->schema().Concat(right->schema());
    ExprPtr condition;
    LogicalJoin::Kind kind = LogicalJoin::Kind::kInner;
    switch (join.kind) {
      case JoinKind::kInner:
        kind = LogicalJoin::Kind::kInner;
        break;
      case JoinKind::kLeft:
        kind = LogicalJoin::Kind::kLeft;
        break;
      case JoinKind::kCross:
        kind = LogicalJoin::Kind::kCross;
        break;
    }
    if (join.condition != nullptr) {
      AGORA_ASSIGN_OR_RETURN(condition,
                             BindScalarExpr(join.condition, combined));
      if (condition->result_type() != TypeId::kBool) {
        return Status::TypeError("JOIN condition must be BOOLEAN");
      }
    }
    plan = std::make_shared<LogicalJoin>(kind, std::move(plan),
                                         std::move(right),
                                         std::move(condition));
  }
  return plan;
}

namespace {

/// Splits a parsed boolean expression into its top-level AND conjuncts.
void SplitConjuncts(const ParsedExprPtr& e,
                    std::vector<ParsedExprPtr>* out) {
  if (e->kind == ParsedExprKind::kBinary && e->op == "AND") {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

/// True if `e` is a call to `name` (case-insensitive).
bool IsCallTo(const ParsedExpr& e, std::string_view name) {
  return e.kind == ParsedExprKind::kCall && EqualsIgnoreCase(e.column, name);
}

/// Collects every call to `name` anywhere inside `e`.
void FindCalls(const ParsedExpr& e, std::string_view name,
               std::vector<const ParsedExpr*>* out) {
  if (IsCallTo(e, name)) out->push_back(&e);
  for (const ParsedExprPtr& child : e.children) {
    if (child != nullptr) FindCalls(*child, name, out);
  }
}

/// Collects calls to `name` from the select list, ORDER BY and HAVING.
std::vector<const ParsedExpr*> FindCallsInSelect(const SelectStatement& sel,
                                                 std::string_view name) {
  std::vector<const ParsedExpr*> calls;
  for (const SelectItem& item : sel.items) {
    if (item.expr != nullptr) FindCalls(*item.expr, name, &calls);
  }
  for (const OrderByItem& item : sel.order_by) {
    FindCalls(*item.expr, name, &calls);
  }
  if (sel.having != nullptr) FindCalls(*sel.having, name, &calls);
  return calls;
}

/// Parses a score('rrf'[, rrf_k]) / score('wsum'[, kw_w, vec_w]) fusion
/// configuration into `params`.
Status ParseFusionConfig(const ParsedExpr& call, FusionParams* params) {
  const auto& args = call.children;
  if (args.empty()) return Status::OK();  // score(): defaults
  if (args[0]->kind != ParsedExprKind::kLiteral ||
      args[0]->literal.type() != TypeId::kString) {
    return Status::BindError(
        "score() fusion method must be a string ('wsum' or 'rrf')");
  }
  auto numeric = [](const ParsedExpr& e, double* out) {
    if (e.kind != ParsedExprKind::kLiteral) return false;
    if (e.literal.type() == TypeId::kInt64) {
      *out = static_cast<double>(e.literal.int64_value());
      return true;
    }
    if (e.literal.type() == TypeId::kDouble) {
      *out = e.literal.double_value();
      return true;
    }
    return false;
  };
  const std::string& method = args[0]->literal.string_value();
  if (EqualsIgnoreCase(method, "rrf")) {
    params->fusion = ScoreFusion::kRrf;
    if (args.size() > 2) {
      return Status::BindError("score('rrf'[, rrf_k]) takes at most 2 "
                               "arguments");
    }
    if (args.size() == 2) {
      double k;
      if (!numeric(*args[1], &k) || k <= 0) {
        return Status::BindError("score('rrf', k): k must be a positive "
                                 "number");
      }
      params->rrf_k = static_cast<size_t>(k);
    }
    return Status::OK();
  }
  if (EqualsIgnoreCase(method, "wsum")) {
    params->fusion = ScoreFusion::kWeightedSum;
    if (args.size() == 1) return Status::OK();
    if (args.size() != 3) {
      return Status::BindError(
          "score('wsum', keyword_weight, vector_weight) takes both weights");
    }
    if (!numeric(*args[1], &params->keyword_weight) ||
        !numeric(*args[2], &params->vector_weight)) {
      return Status::BindError("score('wsum', ...) weights must be numbers");
    }
    return Status::OK();
  }
  return Status::BindError("unknown fusion method '" + method +
                           "' (expected 'wsum' or 'rrf')");
}

}  // namespace

Result<bool> Binder::TryBindHybrid(const SelectStatement& sel,
                                   LogicalOpPtr* plan) {
  // Pull MATCH/KNN conjuncts out of WHERE; everything else is the residual
  // attribute filter the fusion operator evaluates itself.
  std::vector<ParsedExprPtr> conjuncts;
  if (sel.where != nullptr) SplitConjuncts(sel.where, &conjuncts);
  const ParsedExpr* match_call = nullptr;
  const ParsedExpr* knn_call = nullptr;
  std::vector<ParsedExprPtr> residual;
  for (const ParsedExprPtr& c : conjuncts) {
    if (IsCallTo(*c, "MATCH")) {
      if (match_call != nullptr) {
        return Status::BindError("at most one MATCH() predicate per query");
      }
      match_call = c.get();
    } else if (IsCallTo(*c, "KNN")) {
      if (knn_call != nullptr) {
        return Status::BindError("at most one KNN() predicate per query");
      }
      knn_call = c.get();
    } else {
      residual.push_back(c);
    }
  }
  // distance(col, [vec]) in the select list / ORDER BY also establishes a
  // vector component (the ORDER BY distance(...) LIMIT k idiom).
  std::vector<const ParsedExpr*> distance_calls =
      FindCallsInSelect(sel, "DISTANCE");
  const ParsedExpr* distance_call = nullptr;
  for (const ParsedExpr* d : distance_calls) {
    if (d->children.size() == 2 &&
        d->children[1]->kind == ParsedExprKind::kVectorLiteral) {
      distance_call = d;
      break;
    }
  }
  if (match_call == nullptr && knn_call == nullptr &&
      distance_call == nullptr) {
    return false;
  }

  if ((*plan)->kind() != LogicalOpKind::kScan) {
    return Status::BindError(
        "hybrid search (MATCH/KNN/distance) requires a single-table query "
        "without joins");
  }
  auto* scan = static_cast<LogicalScan*>(plan->get());
  const std::string& alias = scan->alias();
  std::shared_ptr<const TableSearchIndexes> indexes =
      catalog_.GetSearchIndexes(scan->table()->name());
  if (indexes == nullptr) {
    return Status::BindError("table '" + scan->table()->name() +
                             "' has no search indexes attached");
  }

  // Validates that a MATCH/KNN/distance first argument names the indexed
  // pseudo column (optionally alias-qualified).
  auto check_column = [&](const ParsedExpr& call,
                          const std::string& indexed) -> Status {
    if (call.children.empty() ||
        call.children[0]->kind != ParsedExprKind::kColumn) {
      return Status::BindError(call.column +
                               "() first argument must be a column");
    }
    const ParsedExpr& col = *call.children[0];
    if (!col.table.empty() && !EqualsIgnoreCase(col.table, alias)) {
      return Status::BindError("column '" + col.table + "." + col.column +
                               "' does not belong to '" + alias + "'");
    }
    if (indexed.empty() || !EqualsIgnoreCase(col.column, indexed)) {
      return Status::BindError("column '" + col.column + "' of table '" +
                               scan->table()->name() +
                               "' has no attached search index");
    }
    return Status::OK();
  };

  LogicalOpPtr text_child;
  if (match_call != nullptr) {
    AGORA_RETURN_IF_ERROR(check_column(*match_call, indexes->text_column));
    if (indexes->text_index == nullptr) {
      return Status::BindError("table '" + scan->table()->name() +
                               "' has no inverted index");
    }
    if (match_call->children.size() != 2 ||
        match_call->children[1]->kind != ParsedExprKind::kLiteral ||
        match_call->children[1]->literal.type() != TypeId::kString) {
      return Status::BindError(
          "MATCH(column, 'query') takes a column and a string");
    }
    text_child = std::make_shared<LogicalTextMatch>(
        alias, indexes->text_column,
        match_call->children[1]->literal.string_value(),
        indexes->text_index);
  }

  // Fused k: KNN's explicit k wins, else LIMIT+OFFSET, else 10.
  std::vector<double> query_vector;
  size_t k = sel.limit >= 0
                 ? static_cast<size_t>(sel.limit + sel.offset)
                 : 10;
  if (knn_call != nullptr) {
    AGORA_RETURN_IF_ERROR(check_column(*knn_call, indexes->vector_column));
    if (knn_call->children.size() != 3 ||
        knn_call->children[1]->kind != ParsedExprKind::kVectorLiteral ||
        knn_call->children[2]->kind != ParsedExprKind::kLiteral ||
        knn_call->children[2]->literal.type() != TypeId::kInt64) {
      return Status::BindError(
          "KNN(column, [v1, ...], k) takes a column, a vector literal and "
          "an integer k");
    }
    int64_t knn_k = knn_call->children[2]->literal.int64_value();
    if (knn_k <= 0) return Status::BindError("KNN k must be positive");
    k = static_cast<size_t>(knn_k);
    query_vector = knn_call->children[1]->vector_values;
  }
  if (distance_call != nullptr) {
    AGORA_RETURN_IF_ERROR(
        check_column(*distance_call, indexes->vector_column));
    if (knn_call == nullptr) {
      query_vector = distance_call->children[1]->vector_values;
    } else if (distance_call->children[1]->vector_values != query_vector) {
      return Status::BindError(
          "distance() vector literal must match the KNN() query vector");
    }
  }

  LogicalOpPtr vector_child;
  if (!query_vector.empty() || knn_call != nullptr ||
      distance_call != nullptr) {
    if (indexes->flat_index == nullptr) {
      return Status::BindError("table '" + scan->table()->name() +
                               "' has no vector index");
    }
    if (query_vector.size() != indexes->flat_index->dim()) {
      return Status::BindError(
          "query vector has dimension " +
          std::to_string(query_vector.size()) + ", index expects " +
          std::to_string(indexes->flat_index->dim()));
    }
    Vecf vec(query_vector.size());
    for (size_t i = 0; i < query_vector.size(); ++i) {
      vec[i] = static_cast<float>(query_vector[i]);
    }
    vector_child = std::make_shared<LogicalVectorTopK>(
        alias, indexes->vector_column, std::move(vec), k,
        indexes->flat_index, indexes->ivf_index, indexes->hnsw_index);
  }
  hybrid_query_vector_ = std::move(query_vector);

  // Fusion configuration from score('method', ...) calls; all occurrences
  // must agree.
  FusionParams params;
  bool configured = false;
  for (const ParsedExpr* call : FindCallsInSelect(sel, "SCORE")) {
    if (call->children.empty()) continue;
    FusionParams p;
    AGORA_RETURN_IF_ERROR(ParseFusionConfig(*call, &p));
    if (configured &&
        (p.fusion != params.fusion || p.rrf_k != params.rrf_k ||
         p.keyword_weight != params.keyword_weight ||
         p.vector_weight != params.vector_weight)) {
      return Status::BindError(
          "conflicting score() fusion configurations in one query");
    }
    params = p;
    configured = true;
  }

  // Residual attribute filter, bound against the scan schema (column
  // indexes equal the table's column order, which is what the fusion
  // operator evaluates row chunks against).
  ExprPtr filter;
  if (!residual.empty()) {
    ParsedExprPtr folded = residual[0];
    for (size_t i = 1; i < residual.size(); ++i) {
      folded = MakeParsedBinary("AND", std::move(folded), residual[i]);
    }
    if (ContainsAggregate(*folded)) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    AGORA_ASSIGN_OR_RETURN(filter,
                           BindScalarExpr(folded, (*plan)->schema()));
    if (filter->result_type() != TypeId::kBool) {
      return Status::TypeError("WHERE clause must be BOOLEAN");
    }
  }

  *plan = std::make_shared<LogicalScoreFusion>(
      scan->table(), alias, k, params, HybridExecOptions{},
      std::move(filter), std::move(text_child), std::move(vector_child));
  return true;
}

Result<LogicalOpPtr> Binder::BindSelect(const SelectStatement& sel) {
  if (!sel.union_parts.empty()) return BindUnion(sel);
  return BindSelectCore(sel, /*bind_order_limit=*/true);
}

Result<LogicalOpPtr> Binder::BindUnion(const SelectStatement& sel) {
  // Bind every branch core; ORDER BY/LIMIT stay at this level.
  std::vector<LogicalOpPtr> branches;
  AGORA_ASSIGN_OR_RETURN(LogicalOpPtr first,
                         BindSelectCore(sel, /*bind_order_limit=*/false));
  branches.push_back(std::move(first));
  bool need_distinct = false;
  for (const SelectStatement::UnionPart& part : sel.union_parts) {
    if (!part.all) need_distinct = true;
    AGORA_ASSIGN_OR_RETURN(LogicalOpPtr branch,
                           BindSelectCore(*part.select, false));
    branches.push_back(std::move(branch));
  }

  // Schema alignment: equal arity; differing column types must share a
  // common numeric type, enforced via cast projections. Output names come
  // from the first branch.
  const Schema& head = branches[0]->schema();
  for (size_t b = 1; b < branches.size(); ++b) {
    const Schema& other = branches[b]->schema();
    if (other.num_fields() != head.num_fields()) {
      return Status::BindError(
          "UNION branches have different column counts (" +
          std::to_string(head.num_fields()) + " vs " +
          std::to_string(other.num_fields()) + ")");
    }
  }
  // Target type per column.
  std::vector<TypeId> target(head.num_fields());
  for (size_t c = 0; c < head.num_fields(); ++c) {
    TypeId t = head.field(c).type;
    for (size_t b = 1; b < branches.size(); ++b) {
      TypeId other = branches[b]->schema().field(c).type;
      if (other == t) continue;
      TypeId common = CommonNumericType(t, other);
      if (common == TypeId::kInvalid) {
        return Status::TypeError(
            "UNION column " + std::to_string(c + 1) + " mixes " +
            std::string(TypeIdToString(t)) + " and " +
            std::string(TypeIdToString(other)));
      }
      t = common;
    }
    target[c] = t;
  }
  for (size_t b = 0; b < branches.size(); ++b) {
    const Schema& schema = branches[b]->schema();
    bool needs_cast = false;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (schema.field(c).type != target[c]) needs_cast = true;
    }
    if (!needs_cast) continue;
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      ExprPtr ref = MakeColumnRef(c, schema.field(c).type,
                                  head.field(c).name);
      if (schema.field(c).type != target[c]) {
        ref = std::make_shared<CastExpr>(std::move(ref), target[c]);
      }
      exprs.push_back(std::move(ref));
      names.push_back(head.field(c).name);
    }
    branches[b] = std::make_shared<LogicalProject>(branches[b],
                                                   std::move(exprs),
                                                   std::move(names));
  }

  LogicalOpPtr plan = std::make_shared<LogicalUnion>(std::move(branches));
  if (need_distinct) {
    plan = std::make_shared<LogicalDistinct>(plan);
  }

  // ORDER BY over the union output: positional or output-name references.
  if (!sel.order_by.empty()) {
    const Schema& schema = plan->schema();
    std::vector<SortKey> keys;
    for (const OrderByItem& item : sel.order_by) {
      if (item.expr->kind == ParsedExprKind::kLiteral &&
          item.expr->literal.type() == TypeId::kInt64) {
        int64_t pos = item.expr->literal.int64_value();
        if (pos < 1 || pos > static_cast<int64_t>(schema.num_fields())) {
          return Status::BindError("ORDER BY position " +
                                   std::to_string(pos) + " out of range");
        }
        keys.push_back(SortKey{
            MakeColumnRef(static_cast<size_t>(pos - 1),
                          schema.field(pos - 1).type,
                          schema.field(pos - 1).name),
            item.descending});
        continue;
      }
      AGORA_ASSIGN_OR_RETURN(ExprPtr bound,
                             BindScalarExpr(item.expr, schema));
      keys.push_back(SortKey{std::move(bound), item.descending});
    }
    plan = std::make_shared<LogicalSort>(std::move(plan), std::move(keys));
  }
  if (sel.limit >= 0 || sel.offset > 0) {
    plan = std::make_shared<LogicalLimit>(std::move(plan), sel.limit,
                                          sel.offset);
  }
  return plan;
}

Result<LogicalOpPtr> Binder::BindSelectCore(const SelectStatement& sel,
                                            bool bind_order_limit) {
  AGORA_ASSIGN_OR_RETURN(LogicalOpPtr plan, BindFromClause(sel));
  // Hybrid search: MATCH()/KNN() conjuncts replace the scan with a
  // ScoreFusion subtree that also consumes the residual WHERE filter.
  hybrid_query_vector_.clear();
  AGORA_ASSIGN_OR_RETURN(bool is_hybrid, TryBindHybrid(sel, &plan));
  const Schema input_schema = plan->schema();

  // WHERE (already consumed by the fusion operator for hybrid queries).
  if (!is_hybrid && sel.where != nullptr) {
    if (ContainsAggregate(*sel.where)) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    AGORA_ASSIGN_OR_RETURN(ExprPtr pred,
                           BindScalarExpr(sel.where, input_schema));
    if (pred->result_type() != TypeId::kBool) {
      return Status::TypeError("WHERE clause must be BOOLEAN");
    }
    plan = std::make_shared<LogicalFilter>(std::move(plan), std::move(pred));
  }

  // Determine whether aggregation is required.
  bool has_agg = !sel.group_by.empty();
  for (const SelectItem& item : sel.items) {
    if (!item.is_star && ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (sel.having != nullptr) has_agg = true;

  std::vector<ExprPtr> project_exprs;
  std::vector<std::string> project_names;
  // Sort keys are always bound against the pre-projection plan (the
  // aggregate output for GROUP BY queries) so a single Sort node below the
  // Project carries them. Positional and alias references resolve to the
  // corresponding project expressions.
  std::vector<SortKey> sort_keys;

  // Resolves one ORDER BY item given a binder for "anything else".
  auto resolve_order =
      [&](const OrderByItem& item,
          const std::function<Result<ExprPtr>(const ParsedExprPtr&)>& bind)
      -> Result<ExprPtr> {
    if (item.expr->kind == ParsedExprKind::kLiteral &&
        item.expr->literal.type() == TypeId::kInt64) {
      int64_t pos = item.expr->literal.int64_value();
      if (pos < 1 || pos > static_cast<int64_t>(project_exprs.size())) {
        return Status::BindError("ORDER BY position " + std::to_string(pos) +
                                 " out of range");
      }
      return project_exprs[static_cast<size_t>(pos - 1)];
    }
    if (item.expr->kind == ParsedExprKind::kColumn &&
        item.expr->table.empty()) {
      for (size_t i = 0; i < project_names.size(); ++i) {
        if (EqualsIgnoreCase(project_names[i], item.expr->column)) {
          return project_exprs[i];
        }
      }
    }
    return bind(item.expr);
  };

  if (has_agg) {
    // Bind GROUP BY expressions against the pre-aggregation schema.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (const ParsedExprPtr& g : sel.group_by) {
      if (ContainsAggregate(*g)) {
        return Status::BindError("aggregates are not allowed in GROUP BY");
      }
      AGORA_ASSIGN_OR_RETURN(ExprPtr bound, BindScalarExpr(g, input_schema));
      group_names.push_back(DeriveName(*g));
      group_exprs.push_back(std::move(bound));
    }
    std::vector<AggregateSpec> specs;
    AggBindingContext agg_ctx{&input_schema, &group_exprs, &specs};

    // Bind select items in aggregate mode: references become columns of
    // the future aggregate output.
    for (const SelectItem& item : sel.items) {
      if (item.is_star) {
        return Status::BindError(
            "'*' cannot be used with GROUP BY/aggregates");
      }
      AGORA_ASSIGN_OR_RETURN(ExprPtr bound,
                             BindExpr(item.expr, input_schema, &agg_ctx));
      project_names.push_back(item.alias.empty() ? DeriveName(*item.expr)
                                                 : item.alias);
      project_exprs.push_back(std::move(bound));
    }
    ExprPtr having;
    if (sel.having != nullptr) {
      AGORA_ASSIGN_OR_RETURN(having,
                             BindExpr(sel.having, input_schema, &agg_ctx));
      if (having->result_type() != TypeId::kBool) {
        return Status::TypeError("HAVING clause must be BOOLEAN");
      }
    }
    // ORDER BY may reference aliases, positions, group expressions or new
    // aggregates; binding happens before the aggregate node is built so
    // new specs still land in it.
    if (bind_order_limit) {
      for (const OrderByItem& item : sel.order_by) {
        AGORA_ASSIGN_OR_RETURN(
            ExprPtr key,
            resolve_order(item, [&](const ParsedExprPtr& e) {
              return BindExpr(e, input_schema, &agg_ctx);
            }));
        sort_keys.push_back(SortKey{std::move(key), item.descending});
      }
    }
    plan = std::make_shared<LogicalAggregate>(std::move(plan),
                                              std::move(group_exprs),
                                              std::move(specs),
                                              std::move(group_names));
    if (having != nullptr) {
      plan = std::make_shared<LogicalFilter>(std::move(plan),
                                             std::move(having));
    }
  } else {
    // Plain projection; '*' expands to every input column.
    for (const SelectItem& item : sel.items) {
      if (item.is_star) {
        for (size_t i = 0; i < input_schema.num_fields(); ++i) {
          const Field& f = input_schema.field(i);
          project_exprs.push_back(MakeColumnRef(i, f.type, f.name));
          size_t dot = f.name.rfind('.');
          project_names.push_back(
              dot == std::string::npos ? f.name : f.name.substr(dot + 1));
        }
        continue;
      }
      AGORA_ASSIGN_OR_RETURN(ExprPtr bound,
                             BindScalarExpr(item.expr, plan->schema()));
      project_names.push_back(item.alias.empty() ? DeriveName(*item.expr)
                                                 : item.alias);
      project_exprs.push_back(std::move(bound));
    }
    if (bind_order_limit) {
      for (const OrderByItem& item : sel.order_by) {
        AGORA_ASSIGN_OR_RETURN(
            ExprPtr key,
            resolve_order(item, [&](const ParsedExprPtr& e) {
              return BindScalarExpr(e, plan->schema());
            }));
        sort_keys.push_back(SortKey{std::move(key), item.descending});
      }
    }
  }

  if (!sort_keys.empty()) {
    plan = std::make_shared<LogicalSort>(std::move(plan),
                                         std::move(sort_keys));
  }
  plan = std::make_shared<LogicalProject>(std::move(plan),
                                          std::move(project_exprs),
                                          std::move(project_names));
  if (sel.distinct) {
    plan = std::make_shared<LogicalDistinct>(std::move(plan));
  }
  if (bind_order_limit && (sel.limit >= 0 || sel.offset > 0)) {
    plan = std::make_shared<LogicalLimit>(std::move(plan), sel.limit,
                                          sel.offset);
  }
  return plan;
}

}  // namespace agora
