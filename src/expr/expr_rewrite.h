#ifndef AGORA_EXPR_EXPR_REWRITE_H_
#define AGORA_EXPR_EXPR_REWRITE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "expr/expr.h"

namespace agora {

/// Deep-copies `e`, applying `fn` to every column index. Used to move
/// predicates across operators whose input column numbering differs
/// (e.g. below a join, or from a join output onto one side).
ExprPtr RemapColumns(const ExprPtr& e, const std::function<size_t(size_t)>& fn);

/// Flattens a tree of ANDs into its conjuncts. A non-AND expression is a
/// single conjunct.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& e);

/// A comparison between a column reference and a literal, read with the
/// column on the left: `5 > x` reads as `x < 5`.
struct ColumnLiteral {
  const ColumnRefExpr* column = nullptr;
  CompareOp op = CompareOp::kEq;
  const Value* literal = nullptr;  // owned by the matched expression
};

/// Matches `column op literal` in either operand order; nullopt for any
/// other expression. Callers apply their own type rules.
std::optional<ColumnLiteral> MatchColumnLiteral(const Expr& e);

/// Folds `m` on a BIGINT or DATE column, whose literal is a non-NULL
/// value of the column's type, into the inclusive range [*lo, *hi] of
/// values it accepts; *lo > *hi when it accepts none. Returns false for
/// any other comparison (`<>`, a DOUBLE literal, a string).
bool FoldRange(const ColumnLiteral& m, int64_t* lo, int64_t* hi);

/// The order a scan runs its conjuncts in, and how many of them, at the
/// front, fold into its leading range.
struct ScanOrder {
  std::vector<ExprPtr> conjuncts;
  size_t range = 0;
};

/// The conjuncts that fold (FoldRange) onto the column of the first one
/// that folds move to the front, in their SQL order, so they become one
/// range; the others keep their SQL order. A conjunct moves only past
/// conjuncts that cannot fail: comparisons between column references and
/// literals, and IN over a column. Nothing moves past one that can
/// (arithmetic that can overflow, a cast), so the rows that reach it, and
/// whether the query fails, do not change.
ScanOrder OrderScanConjuncts(std::vector<ExprPtr> conjuncts);

/// Rebuilds an AND tree from conjuncts. Empty input returns nullptr; a
/// single conjunct is returned as-is.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// True if every column referenced by `e` lies in [lo, hi).
bool RefsWithin(const ExprPtr& e, size_t lo, size_t hi);

/// Folds constant subtrees into literals (bottom-up). Returns the original
/// node when nothing changed or folding failed (e.g. division by zero is
/// left for runtime NULL semantics).
ExprPtr FoldConstants(const ExprPtr& e);

/// True if `a` and `b` are the same bound expression: same node kinds,
/// operators, result types, column indexes and literal values (doubles
/// compared bit for bit), recursively.
bool ExprEquals(const Expr& a, const Expr& b);

/// How to evaluate several expressions over one chunk so that each
/// distinct subexpression is computed once (common-subexpression
/// elimination by structural equality, ExprEquals).
struct SharedEvalPlan {
  /// Evaluated in order over the input columns followed by the results
  /// of the earlier steps: step i becomes column `input_width + i`, and
  /// refers to shared subexpressions through those columns.
  std::vector<ExprPtr> steps;
  /// The column holding each input expression's value (SIZE_MAX for a
  /// null expression): an input column for a bare column reference,
  /// else the column of its step.
  std::vector<size_t> columns;
};

/// Plans `exprs` (entries may be null) over an input of `input_width`
/// columns. Every distinct non-leaf expression that occurs twice, as a
/// whole expression or inside one (other than inside a CASE, whose
/// branches run only for the rows that take them), gets a step of its
/// own.
SharedEvalPlan PlanSharedEvaluation(const std::vector<ExprPtr>& exprs,
                                    size_t input_width);

}  // namespace agora

#endif  // AGORA_EXPR_EXPR_REWRITE_H_
