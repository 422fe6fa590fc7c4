#include "expr/expr_rewrite.h"

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

namespace agora {

namespace {

/// Rebuilds `e` with children transformed by `recurse`. The callback owns
/// per-node decisions; this handles reconstruction for every node kind.
ExprPtr Rebuild(const ExprPtr& e,
                const std::function<ExprPtr(const ExprPtr&)>& recurse) {
  switch (e->kind()) {
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
      return e;
    case ExprKind::kComparison: {
      const auto* n = static_cast<const ComparisonExpr*>(e.get());
      return std::make_shared<ComparisonExpr>(n->op(), recurse(n->left()),
                                              recurse(n->right()));
    }
    case ExprKind::kArithmetic: {
      const auto* n = static_cast<const ArithmeticExpr*>(e.get());
      return std::make_shared<ArithmeticExpr>(n->op(), recurse(n->left()),
                                              recurse(n->right()),
                                              n->result_type());
    }
    case ExprKind::kLogical: {
      const auto* n = static_cast<const LogicalExpr*>(e.get());
      std::vector<ExprPtr> children;
      children.reserve(n->children().size());
      for (const auto& c : n->children()) children.push_back(recurse(c));
      return std::make_shared<LogicalExpr>(n->op(), std::move(children));
    }
    case ExprKind::kNot: {
      const auto* n = static_cast<const NotExpr*>(e.get());
      return std::make_shared<NotExpr>(recurse(n->child()));
    }
    case ExprKind::kIsNull: {
      const auto* n = static_cast<const IsNullExpr*>(e.get());
      return std::make_shared<IsNullExpr>(recurse(n->child()), n->negated());
    }
    case ExprKind::kLike: {
      const auto* n = static_cast<const LikeExpr*>(e.get());
      return std::make_shared<LikeExpr>(recurse(n->child()), n->pattern(),
                                        n->negated());
    }
    case ExprKind::kInList: {
      const auto* n = static_cast<const InListExpr*>(e.get());
      return std::make_shared<InListExpr>(recurse(n->child()), n->values(),
                                          n->negated());
    }
    case ExprKind::kCast: {
      const auto* n = static_cast<const CastExpr*>(e.get());
      return std::make_shared<CastExpr>(recurse(n->child()),
                                        n->result_type());
    }
    case ExprKind::kFunction: {
      const auto* n = static_cast<const FunctionExpr*>(e.get());
      return std::make_shared<FunctionExpr>(n->func(), recurse(n->arg()),
                                            n->result_type());
    }
    case ExprKind::kCase: {
      const auto* n = static_cast<const CaseExpr*>(e.get());
      std::vector<ExprPtr> conds, results;
      for (const auto& c : n->conditions()) conds.push_back(recurse(c));
      for (const auto& r : n->results()) results.push_back(recurse(r));
      ExprPtr else_result =
          n->else_result() ? recurse(n->else_result()) : nullptr;
      return std::make_shared<CaseExpr>(std::move(conds), std::move(results),
                                        std::move(else_result),
                                        n->result_type());
    }
  }
  return e;
}

/// True when `e` cannot fail on any row: a comparison of column
/// references and literals on the same side of the string/number divide
/// (the kernel rejects a mix), or IN over a column.
bool CannotFail(const Expr& e) {
  auto leaf = [](const ExprPtr& x) {
    return x->kind() == ExprKind::kColumnRef ||
           x->kind() == ExprKind::kLiteral;
  };
  if (e.kind() == ExprKind::kComparison) {
    const auto& cmp = static_cast<const ComparisonExpr&>(e);
    return leaf(cmp.left()) && leaf(cmp.right()) &&
           (cmp.left()->result_type() == TypeId::kString) ==
               (cmp.right()->result_type() == TypeId::kString);
  }
  return e.kind() == ExprKind::kInList &&
         static_cast<const InListExpr&>(e).child()->kind() ==
             ExprKind::kColumnRef;
}

}  // namespace

ExprPtr RemapColumns(const ExprPtr& e,
                     const std::function<size_t(size_t)>& fn) {
  if (e->kind() == ExprKind::kColumnRef) {
    const auto* ref = static_cast<const ColumnRefExpr*>(e.get());
    return std::make_shared<ColumnRefExpr>(fn(ref->index()),
                                           ref->result_type(), ref->name());
  }
  std::function<ExprPtr(const ExprPtr&)> recurse =
      [&fn, &recurse](const ExprPtr& child) {
        if (child->kind() == ExprKind::kColumnRef) {
          const auto* ref = static_cast<const ColumnRefExpr*>(child.get());
          return ExprPtr(std::make_shared<ColumnRefExpr>(
              fn(ref->index()), ref->result_type(), ref->name()));
        }
        return Rebuild(child, recurse);
      };
  return Rebuild(e, recurse);
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& e) {
  std::vector<ExprPtr> out;
  if (e == nullptr) return out;
  if (e->kind() == ExprKind::kLogical) {
    const auto* n = static_cast<const LogicalExpr*>(e.get());
    if (n->op() == LogicalOp::kAnd) {
      for (const auto& c : n->children()) {
        std::vector<ExprPtr> sub = SplitConjuncts(c);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      return out;
    }
  }
  out.push_back(e);
  return out;
}

std::optional<ColumnLiteral> MatchColumnLiteral(const Expr& e) {
  if (e.kind() != ExprKind::kComparison) return std::nullopt;
  const auto& cmp = static_cast<const ComparisonExpr&>(e);
  const Expr* col = cmp.left().get();
  const Expr* lit = cmp.right().get();
  CompareOp op = cmp.op();
  if (col->kind() == ExprKind::kLiteral) {
    std::swap(col, lit);
    op = SwapCompareOp(op);
  }
  if (col->kind() != ExprKind::kColumnRef ||
      lit->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  return ColumnLiteral{static_cast<const ColumnRefExpr*>(col), op,
                       &static_cast<const LiteralExpr*>(lit)->value()};
}

bool FoldRange(const ColumnLiteral& m, int64_t* lo, int64_t* hi) {
  const TypeId type = m.column->result_type();
  const Value& v = *m.literal;
  if ((type != TypeId::kInt64 && type != TypeId::kDate) || v.is_null() ||
      v.type() != type) {
    return false;
  }
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t c = v.int64_value();
  *lo = kMin;
  *hi = kMax;
  switch (m.op) {
    case CompareOp::kEq:
      *lo = c;
      *hi = c;
      break;
    case CompareOp::kLt:
      if (c == kMin) std::swap(*lo, *hi);  // nothing is below INT64_MIN
      else *hi = c - 1;
      break;
    case CompareOp::kLe:
      *hi = c;
      break;
    case CompareOp::kGt:
      if (c == kMax) std::swap(*lo, *hi);  // nothing is above INT64_MAX
      else *lo = c + 1;
      break;
    case CompareOp::kGe:
      *lo = c;
      break;
    case CompareOp::kNe:
      return false;
  }
  return true;
}

ScanOrder OrderScanConjuncts(std::vector<ExprPtr> conjuncts) {
  ScanOrder order;
  std::vector<ExprPtr> rest;
  const ColumnRefExpr* column = nullptr;  // the range's column
  size_t i = 0;
  for (; i < conjuncts.size() && CannotFail(*conjuncts[i]); ++i) {
    const std::optional<ColumnLiteral> m = MatchColumnLiteral(*conjuncts[i]);
    int64_t lo = 0;
    int64_t hi = 0;
    if (m.has_value() && FoldRange(*m, &lo, &hi) &&
        (column == nullptr || m->column->index() == column->index())) {
      column = m->column;
      order.conjuncts.push_back(std::move(conjuncts[i]));
    } else {
      rest.push_back(std::move(conjuncts[i]));
    }
  }
  order.range = order.conjuncts.size();
  std::vector<ExprPtr>& out = order.conjuncts;
  out.insert(out.end(), std::make_move_iterator(rest.begin()),
             std::make_move_iterator(rest.end()));
  out.insert(out.end(), std::make_move_iterator(conjuncts.begin() + i),
             std::make_move_iterator(conjuncts.end()));
  return order;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  if (conjuncts.size() == 1) return conjuncts[0];
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(conjuncts));
}

bool RefsWithin(const ExprPtr& e, size_t lo, size_t hi) {
  std::vector<size_t> refs;
  e->CollectColumnRefs(&refs);
  for (size_t r : refs) {
    if (r < lo || r >= hi) return false;
  }
  return true;
}

namespace {

/// True if `e` is a BOOLEAN literal equal to `value` (NULL never matches).
bool IsBoolLiteral(const ExprPtr& e, bool value) {
  if (e->kind() != ExprKind::kLiteral) return false;
  const Value& v = static_cast<const LiteralExpr*>(e.get())->value();
  return !v.is_null() && v.type() == TypeId::kBool && v.bool_value() == value;
}

/// Kleene-correct simplification of AND/OR children against TRUE/FALSE
/// literals left behind by per-branch constant folding:
///   AND: a FALSE child dominates (even over NULL); TRUE children drop.
///   OR:  a TRUE child dominates; FALSE children drop.
/// Only applies when every child is statically BOOLEAN (or an untyped
/// NULL literal) so ill-typed trees keep their runtime type errors.
ExprPtr SimplifyLogical(const ExprPtr& e) {
  const auto* n = static_cast<const LogicalExpr*>(e.get());
  const bool is_and = n->op() == LogicalOp::kAnd;
  for (const ExprPtr& c : n->children()) {
    bool untyped_null = c->kind() == ExprKind::kLiteral &&
                        static_cast<const LiteralExpr*>(c.get())
                            ->value().is_null();
    if (c->result_type() != TypeId::kBool && !untyped_null) return e;
  }
  std::vector<ExprPtr> kept;
  for (const ExprPtr& c : n->children()) {
    if (IsBoolLiteral(c, !is_and)) {
      return MakeLiteral(Value::Bool(!is_and));  // dominant literal
    }
    if (!IsBoolLiteral(c, is_and)) kept.push_back(c);  // drop identities
  }
  if (kept.size() == n->children().size()) return e;
  if (kept.empty()) return MakeLiteral(Value::Bool(is_and));
  return std::make_shared<LogicalExpr>(n->op(), std::move(kept));
}

}  // namespace

ExprPtr FoldConstants(const ExprPtr& e) {
  if (e->kind() == ExprKind::kLiteral) return e;
  std::function<ExprPtr(const ExprPtr&)> recurse =
      [&recurse](const ExprPtr& child) { return FoldConstants(child); };
  ExprPtr rebuilt = Rebuild(e, recurse);
  if (rebuilt->kind() != ExprKind::kColumnRef && rebuilt->IsConstant()) {
    auto v = rebuilt->EvaluateScalar();
    if (v.ok()) return MakeLiteral(std::move(*v));
  }
  if (rebuilt->kind() == ExprKind::kLogical) {
    return SimplifyLogical(rebuilt);
  }
  return rebuilt;
}

namespace {

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() == TypeId::kDouble) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.Compare(b) == 0;
}

/// ExprEquals for the node itself, children aside.
bool SameNode(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind() || a.result_type() != b.result_type()) {
    return false;
  }
  switch (a.kind()) {
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(a).index() ==
             static_cast<const ColumnRefExpr&>(b).index();
    case ExprKind::kLiteral:
      return SameValue(static_cast<const LiteralExpr&>(a).value(),
                       static_cast<const LiteralExpr&>(b).value());
    case ExprKind::kComparison:
      return static_cast<const ComparisonExpr&>(a).op() ==
             static_cast<const ComparisonExpr&>(b).op();
    case ExprKind::kArithmetic:
      return static_cast<const ArithmeticExpr&>(a).op() ==
             static_cast<const ArithmeticExpr&>(b).op();
    case ExprKind::kLogical:
      return static_cast<const LogicalExpr&>(a).op() ==
             static_cast<const LogicalExpr&>(b).op();
    case ExprKind::kNot:
    case ExprKind::kCast:
      return true;
    case ExprKind::kIsNull:
      return static_cast<const IsNullExpr&>(a).negated() ==
             static_cast<const IsNullExpr&>(b).negated();
    case ExprKind::kLike: {
      const auto& x = static_cast<const LikeExpr&>(a);
      const auto& y = static_cast<const LikeExpr&>(b);
      return x.negated() == y.negated() && x.pattern() == y.pattern();
    }
    case ExprKind::kInList: {
      const auto& x = static_cast<const InListExpr&>(a);
      const auto& y = static_cast<const InListExpr&>(b);
      if (x.negated() != y.negated() ||
          x.values().size() != y.values().size()) {
        return false;
      }
      for (size_t i = 0; i < x.values().size(); ++i) {
        if (!SameValue(x.values()[i], y.values()[i])) return false;
      }
      return true;
    }
    case ExprKind::kFunction:
      return static_cast<const FunctionExpr&>(a).func() ==
             static_cast<const FunctionExpr&>(b).func();
    case ExprKind::kCase: {
      const auto& x = static_cast<const CaseExpr&>(a);
      const auto& y = static_cast<const CaseExpr&>(b);
      return x.conditions().size() == y.conditions().size() &&
             (x.else_result() == nullptr) == (y.else_result() == nullptr);
    }
  }
  return false;
}

}  // namespace

bool ExprEquals(const Expr& a, const Expr& b) {
  if (!SameNode(a, b)) return false;
  const std::vector<ExprPtr> ac = a.Children();
  const std::vector<ExprPtr> bc = b.Children();
  if (ac.size() != bc.size()) return false;
  for (size_t i = 0; i < ac.size(); ++i) {
    if (!ExprEquals(*ac[i], *bc[i])) return false;
  }
  return true;
}

SharedEvalPlan PlanSharedEvaluation(const std::vector<ExprPtr>& exprs,
                                    size_t input_width) {
  // Value numbering: nodes[j] is the first occurrence of each distinct
  // subtree, in post-order (children first), and uses[j] counts the
  // parents and top-level expressions that refer to it. A repeated
  // subtree's children are numbered once, with its first occurrence.
  // Column refs read the input directly and nested literals are free
  // constants, so neither is numbered.
  std::vector<ExprPtr> nodes;
  std::vector<size_t> uses;
  std::vector<bool> top;
  auto find = [&nodes](const Expr& e) {
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (ExprEquals(*nodes[j], e)) return j;
    }
    return SIZE_MAX;
  };
  std::function<size_t(const ExprPtr&)> number = [&](const ExprPtr& e) {
    size_t j = find(*e);
    if (j != SIZE_MAX) {
      uses[j]++;
      return j;
    }
    // A CASE branch only runs for the rows that take it (an error such
    // as BIGINT overflow is raised for those rows alone), so nothing
    // inside a CASE is numbered: a step would run it over every row.
    // The CASE may still read a step the other expressions produce.
    for (const ExprPtr& child : e->Children()) {
      if (e->kind() != ExprKind::kCase &&
          child->kind() != ExprKind::kColumnRef &&
          child->kind() != ExprKind::kLiteral) {
        number(child);
      }
    }
    nodes.push_back(e);
    uses.push_back(1);
    top.push_back(false);
    return nodes.size() - 1;
  };

  SharedEvalPlan plan;
  plan.columns.assign(exprs.size(), SIZE_MAX);
  std::vector<size_t> node_of(exprs.size(), SIZE_MAX);
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i] == nullptr) continue;
    if (exprs[i]->kind() == ExprKind::kColumnRef) {
      plan.columns[i] =
          static_cast<const ColumnRefExpr&>(*exprs[i]).index();
      continue;
    }
    node_of[i] = number(exprs[i]);
    top[node_of[i]] = true;
  }

  // Steps in post-order, so a step only refers to earlier steps.
  std::vector<size_t> column_of(nodes.size(), SIZE_MAX);
  std::function<ExprPtr(const ExprPtr&)> rewrite = [&](const ExprPtr& e) {
    if (e->kind() == ExprKind::kColumnRef || e->kind() == ExprKind::kLiteral) {
      return e;
    }
    size_t j = find(*e);
    if (j != SIZE_MAX && column_of[j] != SIZE_MAX) {
      return MakeColumnRef(column_of[j], e->result_type());
    }
    return Rebuild(e, rewrite);
  };
  for (size_t j = 0; j < nodes.size(); ++j) {
    if (!top[j] && uses[j] < 2) continue;
    plan.steps.push_back(Rebuild(nodes[j], rewrite));
    column_of[j] = input_width + plan.steps.size() - 1;
  }
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (node_of[i] != SIZE_MAX) plan.columns[i] = column_of[node_of[i]];
  }
  return plan;
}

}  // namespace agora
