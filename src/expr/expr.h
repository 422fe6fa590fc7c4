#ifndef AGORA_EXPR_EXPR_H_
#define AGORA_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"
#include "types/schema.h"
#include "types/value.h"

namespace agora {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Expression node kinds.
enum class ExprKind {
  kColumnRef,
  kLiteral,
  kComparison,
  kArithmetic,
  kLogical,
  kNot,
  kIsNull,
  kLike,
  kInList,
  kCast,
  kFunction,
  kCase,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class LogicalOp { kAnd, kOr };

std::string_view CompareOpToString(CompareOp op);
std::string_view ArithOpToString(ArithOp op);

/// Flips the operand order: a < b  <=>  b > a.
CompareOp SwapCompareOp(CompareOp op);
/// Logical negation: a < b  <=>  !(a >= b).
CompareOp NegateCompareOp(CompareOp op);

/// Counters filled in by the vectorized evaluator; the caller (an
/// operator) folds them into its ExecStats slot. Lives here because the
/// expr layer must not depend on exec.
struct ExprCounters {
  /// Sum of batch sizes processed by non-leaf expression kernels.
  int64_t rows_evaluated = 0;
  /// Kernel invocations that ran under a narrowed selection vector
  /// (fewer rows touched than the chunk holds).
  int64_t sel_hits = 0;
};

/// Input to vectorized evaluation: the chunk, an optional selection
/// vector naming the live rows (ascending chunk-row indexes), and
/// optional counters. With a selection of k rows, EvalBatch produces a
/// *dense* k-row output — result row i corresponds to chunk row sel[i].
/// Without one, all chunk rows are evaluated in order.
///
/// `live`, when set, marks which of the NumRows() result rows are used:
/// a CASE branch is evaluated over every row but only the rows that take
/// it are kept, so an error a row can raise (BIGINT overflow) is raised
/// only for rows marked live. Other rows still get a value.
struct EvalContext {
  const Chunk* chunk = nullptr;
  const std::vector<uint32_t>* sel = nullptr;
  ExprCounters* counters = nullptr;
  const uint8_t* live = nullptr;

  /// Number of rows this evaluation produces.
  size_t NumRows() const { return sel ? sel->size() : chunk->num_rows(); }
};

/// A set of live rows of one chunk, as refined by filter predicates.
/// `all == true` means every row (rows is ignored); otherwise `rows`
/// holds the surviving chunk-row indexes in ascending order.
struct Selection {
  std::vector<uint32_t> rows;
  bool all = true;

  size_t Count(size_t chunk_rows) const {
    return all ? chunk_rows : rows.size();
  }
};

/// Base class for bound (executable) expressions. Expressions are
/// immutable after construction and shared via ExprPtr; Clone produces a
/// deep copy for rewrites that change children.
///
/// Evaluation is vectorized: `EvalBatch` computes the expression for the
/// rows named by the EvalContext and returns a column of results, which
/// may use the constant vector form. SQL three-valued logic is honored
/// (NULL propagates through comparisons/arithmetic; AND/OR use Kleene
/// semantics).
class Expr {
 public:
  explicit Expr(ExprKind kind, TypeId result_type)
      : kind_(kind), result_type_(result_type) {}
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  TypeId result_type() const { return result_type_; }

  /// Vectorized evaluation of the context's live rows into `out`
  /// (freshly sized, possibly constant-form or buffer-sharing).
  virtual Status EvalBatch(const EvalContext& ctx,
                           ColumnVector* out) const = 0;

  /// Filter form of EvalBatch for predicates: writes keep[i] = 1 where
  /// the context's row i is TRUE and 0 where it is FALSE or NULL,
  /// counting exactly what EvalBatch counts. Returns false, evaluating
  /// nothing, when the node has no filter kernel; RefineSelection then
  /// reads EvalBatch's BOOLEAN vector instead.
  virtual Result<bool> EvalFilter(const EvalContext& ctx,
                                  uint8_t* keep) const;

  /// Evaluates every row of `chunk` into a non-constant `out` vector
  /// (a dictionary column stays encoded). Wrapper over EvalBatch for
  /// callers that need dense per-row output.
  Status Evaluate(const Chunk& chunk, ColumnVector* out) const;

  /// SQL-ish rendering for plans and diagnostics.
  virtual std::string ToString() const = 0;

  virtual ExprPtr Clone() const = 0;

  /// Direct children (empty for leaves).
  virtual std::vector<ExprPtr> Children() const { return {}; }

  /// Appends every column index referenced in this subtree to `out`.
  void CollectColumnRefs(std::vector<size_t>* out) const;

  /// True if the subtree references no columns (evaluable at plan time).
  bool IsConstant() const;

  /// Evaluates a constant expression to a single value.
  Result<Value> EvaluateScalar() const;

 protected:
  ExprKind kind_;
  TypeId result_type_;
};

/// Narrows `sel` to the rows of `chunk` where `pred` evaluates to TRUE
/// (filter semantics: NULL rejects). AND conjuncts short-circuit by
/// iterative refinement — each conjunct evaluates only rows its
/// predecessors kept; OR takes the union of per-child acceptances,
/// evaluating each child only over rows no earlier child accepted.
/// `counters` may be null.
Status RefineSelection(const Expr& pred, const Chunk& chunk, Selection* sel,
                       ExprCounters* counters);

/// Reference to column `index` of the operator's input schema.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(size_t index, TypeId type, std::string name)
      : Expr(ExprKind::kColumnRef, type),
        index_(index),
        name_(std::move(name)) {}

  size_t index() const { return index_; }
  const std::string& name() const { return name_; }
  void set_index(size_t index) { index_ = index; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<ColumnRefExpr>(index_, result_type_, name_);
  }

 private:
  size_t index_;
  std::string name_;
};

/// A constant value.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral, value.type()), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<LiteralExpr>(value_);
  }

 private:
  Value value_;
};

/// Binary comparison producing BOOLEAN (NULL if either side is NULL).
/// A numeric comparison, as a filter, writes the keep-mask directly
/// without a BOOLEAN vector.
class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kComparison, TypeId::kBool),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  Result<bool> EvalFilter(const EvalContext& ctx,
                          uint8_t* keep) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<ComparisonExpr>(op_, left_->Clone(),
                                            right_->Clone());
  }
  std::vector<ExprPtr> Children() const override { return {left_, right_}; }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Binary arithmetic. Result type is the common numeric type of the
/// operands; division by zero yields NULL (SQL-permissive mode). BIGINT
/// overflow (including INT64_MIN / -1) fails with OutOfRange.
class ArithmeticExpr : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right, TypeId result_type)
      : Expr(ExprKind::kArithmetic, result_type),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<ArithmeticExpr>(op_, left_->Clone(),
                                            right_->Clone(), result_type_);
  }
  std::vector<ExprPtr> Children() const override { return {left_, right_}; }

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// N-ary AND/OR with Kleene three-valued semantics.
class LogicalExpr : public Expr {
 public:
  LogicalExpr(LogicalOp op, std::vector<ExprPtr> children)
      : Expr(ExprKind::kLogical, TypeId::kBool),
        op_(op),
        children_(std::move(children)) {}

  LogicalOp op() const { return op_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;
  std::vector<ExprPtr> Children() const override { return children_; }

 private:
  LogicalOp op_;
  std::vector<ExprPtr> children_;
};

/// NOT child (NULL stays NULL).
class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr child)
      : Expr(ExprKind::kNot, TypeId::kBool), child_(std::move(child)) {}

  const ExprPtr& child() const { return child_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<NotExpr>(child_->Clone());
  }
  std::vector<ExprPtr> Children() const override { return {child_}; }

 private:
  ExprPtr child_;
};

/// child IS [NOT] NULL — never yields NULL itself.
class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr child, bool negated)
      : Expr(ExprKind::kIsNull, TypeId::kBool),
        child_(std::move(child)),
        negated_(negated) {}

  const ExprPtr& child() const { return child_; }
  bool negated() const { return negated_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<IsNullExpr>(child_->Clone(), negated_);
  }
  std::vector<ExprPtr> Children() const override { return {child_}; }

 private:
  ExprPtr child_;
  bool negated_;
};

/// child LIKE 'pattern' ('%' and '_' wildcards).
class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr child, std::string pattern, bool negated)
      : Expr(ExprKind::kLike, TypeId::kBool),
        child_(std::move(child)),
        pattern_(std::move(pattern)),
        negated_(negated) {}

  const ExprPtr& child() const { return child_; }
  const std::string& pattern() const { return pattern_; }
  bool negated() const { return negated_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<LikeExpr>(child_->Clone(), pattern_, negated_);
  }
  std::vector<ExprPtr> Children() const override { return {child_}; }

 private:
  ExprPtr child_;
  std::string pattern_;
  bool negated_;
};

/// child IN (v1, v2, ...) over literal values.
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr child, std::vector<Value> values, bool negated)
      : Expr(ExprKind::kInList, TypeId::kBool),
        child_(std::move(child)),
        values_(std::move(values)),
        negated_(negated),
        candidates_(PrepareCandidates(values_)) {}

  /// The candidate list split by physical type once per expression, so
  /// the batch kernel compares unboxed values (Value::Compare semantics:
  /// numbers match across BIGINT/DOUBLE, strings only strings).
  struct Candidates {
    std::vector<int64_t> ints;  // BOOLEAN, BIGINT and DATE candidates
    std::vector<double> doubles;
    std::vector<std::string> strings;
    bool has_null = false;
  };

  const ExprPtr& child() const { return child_; }
  const std::vector<Value>& values() const { return values_; }
  bool negated() const { return negated_; }
  const Candidates& candidates() const { return candidates_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  Result<bool> EvalFilter(const EvalContext& ctx,
                          uint8_t* keep) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<InListExpr>(child_->Clone(), values_, negated_);
  }
  std::vector<ExprPtr> Children() const override { return {child_}; }

 private:
  static Candidates PrepareCandidates(const std::vector<Value>& values);

  ExprPtr child_;
  std::vector<Value> values_;
  bool negated_;
  Candidates candidates_;
};

/// CAST(child AS type).
class CastExpr : public Expr {
 public:
  CastExpr(ExprPtr child, TypeId target)
      : Expr(ExprKind::kCast, target), child_(std::move(child)) {}

  const ExprPtr& child() const { return child_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<CastExpr>(child_->Clone(), result_type_);
  }
  std::vector<ExprPtr> Children() const override { return {child_}; }

 private:
  ExprPtr child_;
};

/// Built-in scalar functions.
enum class ScalarFunc {
  kAbs,     // numeric -> numeric
  kLower,   // string -> string
  kUpper,   // string -> string
  kLength,  // string -> int64
  kYear,    // date -> int64
  kMonth,   // date -> int64
  kSqrt,    // numeric -> double
  kFloor,   // numeric -> double
  kCeil,    // numeric -> double
};

/// Resolves a function name ("ABS", "lower", ...) to its enum; returns
/// false if unknown.
bool LookupScalarFunc(const std::string& name, ScalarFunc* out);
/// Result type of `func` applied to an argument of `arg_type`; kInvalid on
/// a type mismatch.
TypeId ScalarFuncResultType(ScalarFunc func, TypeId arg_type);
std::string_view ScalarFuncToString(ScalarFunc func);

/// Unary scalar function application.
class FunctionExpr : public Expr {
 public:
  FunctionExpr(ScalarFunc func, ExprPtr arg, TypeId result_type)
      : Expr(ExprKind::kFunction, result_type),
        func_(func),
        arg_(std::move(arg)) {}

  ScalarFunc func() const { return func_; }
  const ExprPtr& arg() const { return arg_; }

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_shared<FunctionExpr>(func_, arg_->Clone(), result_type_);
  }
  std::vector<ExprPtr> Children() const override { return {arg_}; }

 private:
  ScalarFunc func_;
  ExprPtr arg_;
};

/// CASE WHEN c1 THEN r1 [WHEN ...] [ELSE e] END.
class CaseExpr : public Expr {
 public:
  CaseExpr(std::vector<ExprPtr> conditions, std::vector<ExprPtr> results,
           ExprPtr else_result, TypeId result_type)
      : Expr(ExprKind::kCase, result_type),
        conditions_(std::move(conditions)),
        results_(std::move(results)),
        else_result_(std::move(else_result)) {}

  Status EvalBatch(const EvalContext& ctx, ColumnVector* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;
  std::vector<ExprPtr> Children() const override;

  const std::vector<ExprPtr>& conditions() const { return conditions_; }
  const std::vector<ExprPtr>& results() const { return results_; }
  const ExprPtr& else_result() const { return else_result_; }

 private:
  std::vector<ExprPtr> conditions_;
  std::vector<ExprPtr> results_;
  ExprPtr else_result_;  // may be null (implicit ELSE NULL)
};

// -- Convenience builders (tests, hand-built plans) ----------------------

ExprPtr MakeColumnRef(size_t index, TypeId type, std::string name = "");
ExprPtr MakeLiteral(Value v);
ExprPtr MakeCompare(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeArith(ArithOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeAnd(ExprPtr l, ExprPtr r);
ExprPtr MakeOr(ExprPtr l, ExprPtr r);
ExprPtr MakeNot(ExprPtr e);

}  // namespace agora

#endif  // AGORA_EXPR_EXPR_H_
