// Tests for the expression tree: vectorized evaluation, three-valued
// logic, constant folding and rewrite helpers. Runs under `ctest -L
// expr` (and in the ASan/UBSan CI legs).
//
// The ExprOracle* suites pit the batch kernels against a retained
// row-at-a-time oracle (Value-level recursion, written here and never
// shared with the engine) over randomized chunks, so a kernel that
// diverges on any row/type/NULL combination fails with the offending
// cell. Every arithmetic and comparison operator runs over every operand
// shape the kernels specialize on (flat x flat, flat x constant,
// constant x flat, constant x constant), with and without selections,
// over NaN, signed zeros, all-NULL and NULL-free columns. The Selection*
// suites pin the selection-vector contract: results under a selection
// equal the gathered-then-evaluated oracle, including the
// empty/full/singleton edges, and RefineSelection keeps exactly the rows
// the oracle calls TRUE while counting what EvalBatch counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "engine/database.h"
#include "expr/expr.h"
#include "expr/expr_rewrite.h"

namespace agora {
namespace {

// A two-column test chunk: a BIGINT (with one NULL) and a VARCHAR.
Chunk MakeChunk() {
  Schema schema({{"n", TypeId::kInt64, true}, {"s", TypeId::kString, true}});
  Chunk chunk(schema);
  chunk.AppendRow({Value::Int64(1), Value::String("apple")});
  chunk.AppendRow({Value::Int64(2), Value::String("banana")});
  chunk.AppendRow({Value::Null(), Value::String("cherry")});
  chunk.AppendRow({Value::Int64(4), Value::Null()});
  return chunk;
}

TEST(ExprTest, ColumnRefAndLiteral) {
  Chunk chunk = MakeChunk();
  ColumnVector out;
  ASSERT_TRUE(MakeColumnRef(0, TypeId::kInt64, "n")
                  ->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out.GetInt64(1), 2);
  EXPECT_TRUE(out.IsNull(2));

  ASSERT_TRUE(MakeLiteral(Value::Int64(7))->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.GetInt64(3), 7);
}

TEST(ExprTest, ComparisonWithNullPropagation) {
  Chunk chunk = MakeChunk();
  ExprPtr cmp = MakeCompare(CompareOp::kGt,
                            MakeColumnRef(0, TypeId::kInt64, "n"),
                            MakeLiteral(Value::Int64(1)));
  ColumnVector out;
  ASSERT_TRUE(cmp->Evaluate(chunk, &out).ok());
  EXPECT_FALSE(out.GetBool(0));
  EXPECT_TRUE(out.GetBool(1));
  EXPECT_TRUE(out.IsNull(2));  // NULL > 1 is NULL
  EXPECT_TRUE(out.GetBool(3));
}

TEST(ExprTest, StringComparison) {
  Chunk chunk = MakeChunk();
  ExprPtr cmp = MakeCompare(CompareOp::kLt,
                            MakeColumnRef(1, TypeId::kString, "s"),
                            MakeLiteral(Value::String("banana")));
  ColumnVector out;
  ASSERT_TRUE(cmp->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.GetBool(0));   // apple < banana
  EXPECT_FALSE(out.GetBool(1));  // banana < banana
  EXPECT_TRUE(out.IsNull(3));    // NULL string
}

TEST(ExprTest, MixedTypeComparisonRejected) {
  Chunk chunk = MakeChunk();
  ExprPtr cmp = MakeCompare(CompareOp::kEq,
                            MakeColumnRef(0, TypeId::kInt64, "n"),
                            MakeColumnRef(1, TypeId::kString, "s"));
  ColumnVector out;
  EXPECT_EQ(cmp->Evaluate(chunk, &out).code(), StatusCode::kTypeError);
}

TEST(ExprTest, ArithmeticIntAndDouble) {
  Chunk chunk = MakeChunk();
  // n * 2 + 1
  ExprPtr expr = MakeArith(
      ArithOp::kAdd,
      MakeArith(ArithOp::kMul, MakeColumnRef(0, TypeId::kInt64, "n"),
                MakeLiteral(Value::Int64(2))),
      MakeLiteral(Value::Int64(1)));
  EXPECT_EQ(expr->result_type(), TypeId::kInt64);
  ColumnVector out;
  ASSERT_TRUE(expr->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out.GetInt64(0), 3);
  EXPECT_EQ(out.GetInt64(1), 5);
  EXPECT_TRUE(out.IsNull(2));

  // n / 2.0 promotes to double.
  ExprPtr div = MakeArith(ArithOp::kDiv, MakeColumnRef(0, TypeId::kInt64, "n"),
                          MakeLiteral(Value::Double(2.0)));
  EXPECT_EQ(div->result_type(), TypeId::kDouble);
  ASSERT_TRUE(div->Evaluate(chunk, &out).ok());
  EXPECT_DOUBLE_EQ(out.GetDouble(1), 1.0);
}

TEST(ExprTest, DivisionAndModuloByZeroYieldNull) {
  Chunk chunk = MakeChunk();
  ExprPtr div = MakeArith(ArithOp::kDiv, MakeColumnRef(0, TypeId::kInt64, "n"),
                          MakeLiteral(Value::Int64(0)));
  ColumnVector out;
  ASSERT_TRUE(div->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.IsNull(0));
  ExprPtr mod = MakeArith(ArithOp::kMod, MakeColumnRef(0, TypeId::kInt64, "n"),
                          MakeLiteral(Value::Int64(0)));
  ASSERT_TRUE(mod->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.IsNull(1));
}

TEST(ExprTest, KleeneLogic) {
  Chunk chunk = MakeChunk();
  ExprPtr is_two = MakeCompare(CompareOp::kEq,
                               MakeColumnRef(0, TypeId::kInt64, "n"),
                               MakeLiteral(Value::Int64(2)));
  ExprPtr null_cmp = MakeCompare(CompareOp::kEq,
                                 MakeColumnRef(0, TypeId::kInt64, "n"),
                                 MakeLiteral(Value::Null(TypeId::kInt64)));
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  ColumnVector out;
  ASSERT_TRUE(MakeAnd(is_two, null_cmp)->Evaluate(chunk, &out).ok());
  EXPECT_FALSE(out.GetBool(0));  // false AND null
  EXPECT_TRUE(out.IsNull(1));    // true AND null
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  ASSERT_TRUE(MakeOr(is_two, null_cmp)->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.IsNull(0));   // false OR null
  EXPECT_TRUE(out.GetBool(1));  // true OR null
}

TEST(ExprTest, NotAndIsNull) {
  Chunk chunk = MakeChunk();
  ExprPtr is_null =
      std::make_shared<IsNullExpr>(MakeColumnRef(0, TypeId::kInt64, "n"),
                                   /*negated=*/false);
  ColumnVector out;
  ASSERT_TRUE(is_null->Evaluate(chunk, &out).ok());
  EXPECT_FALSE(out.GetBool(0));
  EXPECT_TRUE(out.GetBool(2));
  ASSERT_TRUE(MakeNot(is_null)->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.GetBool(0));
  EXPECT_FALSE(out.GetBool(2));
}

TEST(ExprTest, InListWithNullSemantics) {
  Chunk chunk = MakeChunk();
  // n IN (1, NULL): 1 -> TRUE; 2 -> NULL (because of the NULL element).
  ExprPtr in = std::make_shared<InListExpr>(
      MakeColumnRef(0, TypeId::kInt64, "n"),
      std::vector<Value>{Value::Int64(1), Value::Null()}, false);
  ColumnVector out;
  ASSERT_TRUE(in->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.GetBool(0));
  EXPECT_TRUE(out.IsNull(1));
  EXPECT_TRUE(out.IsNull(2));  // NULL probe
}

TEST(ExprTest, CaseExpression) {
  Chunk chunk = MakeChunk();
  std::vector<ExprPtr> conds = {MakeCompare(
      CompareOp::kGe, MakeColumnRef(0, TypeId::kInt64, "n"),
      MakeLiteral(Value::Int64(2)))};
  std::vector<ExprPtr> results = {MakeLiteral(Value::String("big"))};
  ExprPtr case_expr = std::make_shared<CaseExpr>(
      conds, results, MakeLiteral(Value::String("small")), TypeId::kString);
  ColumnVector out;
  ASSERT_TRUE(case_expr->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out.GetString(0), "small");
  EXPECT_EQ(out.GetString(1), "big");
  EXPECT_EQ(out.GetString(2), "small");  // NULL condition -> else
}

TEST(ExprTest, ScalarFunctionsVectorized) {
  Chunk chunk = MakeChunk();
  ExprPtr upper = std::make_shared<FunctionExpr>(
      ScalarFunc::kUpper, MakeColumnRef(1, TypeId::kString, "s"),
      TypeId::kString);
  ColumnVector out;
  ASSERT_TRUE(upper->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out.GetString(0), "APPLE");
  EXPECT_TRUE(out.IsNull(3));

  ExprPtr sqrt_expr = std::make_shared<FunctionExpr>(
      ScalarFunc::kSqrt, MakeLiteral(Value::Int64(-4)), TypeId::kDouble);
  ASSERT_TRUE(sqrt_expr->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.IsNull(0));  // sqrt of negative
}

TEST(ExprTest, ToStringRendering) {
  ExprPtr e = MakeAnd(
      MakeCompare(CompareOp::kLt, MakeColumnRef(0, TypeId::kInt64, "a"),
                  MakeLiteral(Value::Int64(5))),
      std::make_shared<LikeExpr>(MakeColumnRef(1, TypeId::kString, "b"),
                                 "x%", false));
  EXPECT_EQ(e->ToString(), "((a < 5) AND b LIKE 'x%')");
}

TEST(ExprRewriteTest, FoldConstants) {
  // (2 + 3) * n stays, constant subtree folds.
  ExprPtr expr = MakeArith(
      ArithOp::kMul,
      MakeArith(ArithOp::kAdd, MakeLiteral(Value::Int64(2)),
                MakeLiteral(Value::Int64(3))),
      MakeColumnRef(0, TypeId::kInt64, "n"));
  ExprPtr folded = FoldConstants(expr);
  EXPECT_EQ(folded->ToString(), "(5 * n)");

  // Fully constant expression folds to a literal.
  ExprPtr all_const = MakeCompare(CompareOp::kGt,
                                  MakeLiteral(Value::Int64(7)),
                                  MakeLiteral(Value::Int64(3)));
  ExprPtr lit = FoldConstants(all_const);
  ASSERT_EQ(lit->kind(), ExprKind::kLiteral);
  EXPECT_TRUE(static_cast<const LiteralExpr*>(lit.get())
                  ->value().bool_value());
}

TEST(ExprRewriteTest, SplitAndCombineConjuncts) {
  ExprPtr a = MakeCompare(CompareOp::kEq, MakeColumnRef(0, TypeId::kInt64, "a"),
                          MakeLiteral(Value::Int64(1)));
  ExprPtr b = MakeCompare(CompareOp::kEq, MakeColumnRef(1, TypeId::kInt64, "b"),
                          MakeLiteral(Value::Int64(2)));
  ExprPtr c = MakeCompare(CompareOp::kEq, MakeColumnRef(2, TypeId::kInt64, "c"),
                          MakeLiteral(Value::Int64(3)));
  ExprPtr tree = MakeAnd(MakeAnd(a, b), c);
  auto conjuncts = SplitConjuncts(tree);
  ASSERT_EQ(conjuncts.size(), 3u);
  // ORs are not split.
  auto or_conjuncts = SplitConjuncts(MakeOr(a, b));
  EXPECT_EQ(or_conjuncts.size(), 1u);
  // Combine round trip.
  EXPECT_EQ(CombineConjuncts({}), nullptr);
  EXPECT_EQ(CombineConjuncts({a}), a);
  ExprPtr recombined = CombineConjuncts(conjuncts);
  EXPECT_EQ(SplitConjuncts(recombined).size(), 3u);
}

TEST(ExprRewriteTest, RemapColumnsRewritesEveryRef) {
  ExprPtr expr = MakeAnd(
      MakeCompare(CompareOp::kEq, MakeColumnRef(3, TypeId::kInt64, "x"),
                  MakeColumnRef(5, TypeId::kInt64, "y")),
      std::make_shared<IsNullExpr>(MakeColumnRef(4, TypeId::kString, "z"),
                                   true));
  ExprPtr remapped = RemapColumns(expr, [](size_t i) { return i - 3; });
  std::vector<size_t> refs;
  remapped->CollectColumnRefs(&refs);
  std::sort(refs.begin(), refs.end());
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0], 0u);
  EXPECT_EQ(refs[1], 1u);
  EXPECT_EQ(refs[2], 2u);
  // The original is untouched.
  refs.clear();
  expr->CollectColumnRefs(&refs);
  std::sort(refs.begin(), refs.end());
  EXPECT_EQ(refs[0], 3u);
}

TEST(ExprRewriteTest, RefsWithin) {
  ExprPtr expr = MakeCompare(CompareOp::kEq,
                             MakeColumnRef(2, TypeId::kInt64, "a"),
                             MakeColumnRef(4, TypeId::kInt64, "b"));
  EXPECT_TRUE(RefsWithin(expr, 0, 5));
  EXPECT_TRUE(RefsWithin(expr, 2, 5));
  EXPECT_FALSE(RefsWithin(expr, 0, 4));
  EXPECT_FALSE(RefsWithin(expr, 3, 5));
  EXPECT_TRUE(RefsWithin(MakeLiteral(Value::Int64(1)), 0, 0));
}

TEST(ExprTest, CloneIsDeep) {
  ExprPtr original = MakeCompare(CompareOp::kLt,
                                 MakeColumnRef(0, TypeId::kInt64, "a"),
                                 MakeLiteral(Value::Int64(10)));
  ExprPtr clone = original->Clone();
  EXPECT_NE(original.get(), clone.get());
  EXPECT_EQ(original->ToString(), clone->ToString());
}

TEST(ExprTest, EvaluateScalar) {
  ExprPtr expr = MakeArith(ArithOp::kMul, MakeLiteral(Value::Int64(6)),
                           MakeLiteral(Value::Int64(7)));
  auto v = expr->EvaluateScalar();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64_value(), 42);
  // Non-constant expressions are rejected.
  EXPECT_FALSE(MakeColumnRef(0, TypeId::kInt64, "a")
                   ->EvaluateScalar().ok());
}

// ---------------------------------------------------------------------
// Row-at-a-time oracle: independent Value-level recursion over one row.
// Deliberately written in the dumbest possible style; the vectorized
// kernels must agree with it cell-for-cell.

Value OracleEval(const Expr& e, const Chunk& chunk, size_t row);

Value OracleCompare(const ComparisonExpr& e, const Chunk& chunk, size_t row) {
  Value l = OracleEval(*e.left(), chunk, row);
  Value r = OracleEval(*e.right(), chunk, row);
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
  int c = l.Compare(r);
  switch (e.op()) {
    case CompareOp::kEq: return Value::Bool(c == 0);
    case CompareOp::kNe: return Value::Bool(c != 0);
    case CompareOp::kLt: return Value::Bool(c < 0);
    case CompareOp::kLe: return Value::Bool(c <= 0);
    case CompareOp::kGt: return Value::Bool(c > 0);
    case CompareOp::kGe: return Value::Bool(c >= 0);
  }
  return Value::Null(TypeId::kBool);
}

Value OracleArith(const ArithmeticExpr& e, const Chunk& chunk, size_t row) {
  Value l = OracleEval(*e.left(), chunk, row);
  Value r = OracleEval(*e.right(), chunk, row);
  TypeId t = e.result_type();
  if (l.is_null() || r.is_null()) return Value::Null(t);
  if (t == TypeId::kDouble) {
    double a = l.AsDouble(), b = r.AsDouble();
    switch (e.op()) {
      case ArithOp::kAdd: return Value::Double(a + b);
      case ArithOp::kSub: return Value::Double(a - b);
      case ArithOp::kMul: return Value::Double(a * b);
      case ArithOp::kDiv:
        return b == 0 ? Value::Null(t) : Value::Double(a / b);
      case ArithOp::kMod:
        return b == 0 ? Value::Null(t) : Value::Double(std::fmod(a, b));
    }
  }
  // BIGINT: the randomized chunks never overflow (the kernels' overflow
  // errors have tests of their own); x % -1 is 0, even for INT64_MIN.
  int64_t a = l.int64_value(), b = r.int64_value();
  int64_t out = 0;
  bool overflow = false;
  switch (e.op()) {
    case ArithOp::kAdd:
      overflow = __builtin_add_overflow(a, b, &out);
      break;
    case ArithOp::kSub:
      overflow = __builtin_sub_overflow(a, b, &out);
      break;
    case ArithOp::kMul:
      overflow = __builtin_mul_overflow(a, b, &out);
      break;
    case ArithOp::kDiv:
      if (b == 0) return Value::Null(t);
      overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
      out = overflow ? 0 : a / b;
      break;
    case ArithOp::kMod:
      if (b == 0) return Value::Null(t);
      out = b == -1 ? 0 : a % b;
      break;
  }
  if (overflow) ADD_FAILURE() << "oracle input overflows: " << e.ToString();
  return Value::Int64(out);
}

Value OracleEval(const Expr& e, const Chunk& chunk, size_t row) {
  switch (e.kind()) {
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      return chunk.column(ref.index()).GetValue(row);
    }
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value();
    case ExprKind::kComparison:
      return OracleCompare(static_cast<const ComparisonExpr&>(e), chunk, row);
    case ExprKind::kArithmetic:
      return OracleArith(static_cast<const ArithmeticExpr&>(e), chunk, row);
    case ExprKind::kLogical: {
      const auto& n = static_cast<const LogicalExpr&>(e);
      bool is_and = n.op() == LogicalOp::kAnd;
      bool saw_null = false;
      for (const ExprPtr& c : n.children()) {
        Value v = OracleEval(*c, chunk, row);
        if (v.is_null()) {
          saw_null = true;
        } else if (v.bool_value() != is_and) {
          return Value::Bool(!is_and);  // dominant FALSE (AND) / TRUE (OR)
        }
      }
      if (saw_null) return Value::Null(TypeId::kBool);
      return Value::Bool(is_and);
    }
    case ExprKind::kNot: {
      Value v = OracleEval(*static_cast<const NotExpr&>(e).child(), chunk,
                           row);
      return v.is_null() ? Value::Null(TypeId::kBool)
                         : Value::Bool(!v.bool_value());
    }
    case ExprKind::kInList: {
      // SQL: a match is TRUE (FALSE under NOT IN); no match is NULL when
      // the list holds a NULL, else FALSE (TRUE under NOT IN).
      const auto& n = static_cast<const InListExpr&>(e);
      Value v = OracleEval(*n.child(), chunk, row);
      if (v.is_null()) return Value::Null(TypeId::kBool);
      bool list_has_null = false;
      for (const Value& c : n.values()) {
        if (c.is_null()) {
          list_has_null = true;
        } else if (v.Compare(c) == 0) {
          return Value::Bool(!n.negated());
        }
      }
      if (list_has_null) return Value::Null(TypeId::kBool);
      return Value::Bool(n.negated());
    }
    case ExprKind::kCase: {
      // The first TRUE condition's result, else the ELSE (or NULL); a
      // BIGINT result in a DOUBLE CASE reads as a double.
      const auto& n = static_cast<const CaseExpr&>(e);
      const ExprPtr* pick = n.else_result() ? &n.else_result() : nullptr;
      for (size_t b = 0; b < n.conditions().size(); ++b) {
        Value c = OracleEval(*n.conditions()[b], chunk, row);
        if (!c.is_null() && c.bool_value()) {
          pick = &n.results()[b];
          break;
        }
      }
      if (pick == nullptr) return Value::Null(n.result_type());
      Value v = OracleEval(**pick, chunk, row);
      if (v.is_null()) return Value::Null(n.result_type());
      if (n.result_type() == TypeId::kDouble) return Value::Double(v.AsDouble());
      return v;
    }
    default:
      ADD_FAILURE() << "oracle does not model " << e.ToString();
      return Value::Null();
  }
}

/// Cell equality for the oracle checks: NULL matches NULL, doubles match
/// bit for bit (so -0.0 differs from 0.0) except that any NaN matches any
/// NaN, everything else by Value::Compare.
::testing::AssertionResult SameCell(const Value& want, const Value& have) {
  if (want.is_null() != have.is_null()) {
    return ::testing::AssertionFailure()
           << "oracle=" << want.ToString() << " kernel=" << have.ToString();
  }
  if (want.is_null()) return ::testing::AssertionSuccess();
  if (want.type() == TypeId::kDouble || have.type() == TypeId::kDouble) {
    const double x = want.AsDouble();
    const double y = have.AsDouble();
    if ((std::isnan(x) && std::isnan(y)) ||
        std::memcmp(&x, &y, sizeof(double)) == 0) {
      return ::testing::AssertionSuccess();
    }
  } else if (want.Compare(have) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "oracle=" << want.ToString() << " kernel=" << have.ToString();
}

/// Kernel output for every row must equal the oracle's value.
void ExpectMatchesOracle(const ExprPtr& e, const Chunk& chunk) {
  ColumnVector out;
  ASSERT_TRUE(e->Evaluate(chunk, &out).ok()) << e->ToString();
  ASSERT_EQ(out.size(), chunk.num_rows()) << e->ToString();
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    // Exact: vectorization must not change float results.
    ASSERT_TRUE(SameCell(OracleEval(*e, chunk, r), out.GetValue(r)))
        << e->ToString() << " row " << r;
  }
}

/// Randomized chunk spanning every kernel type: two BIGINT columns (one
/// nullable, values include 0 for div/mod-by-zero), a nullable DOUBLE,
/// and two nullable VARCHARs from a small vocabulary (so equality hits).
/// Size is off the 2048 block boundary on purpose.
Chunk MakeRandomChunk(uint32_t seed, size_t rows = 2048 + 37) {
  Schema schema({{"a", TypeId::kInt64, true},
                 {"b", TypeId::kInt64, false},
                 {"x", TypeId::kDouble, true},
                 {"s", TypeId::kString, true},
                 {"t", TypeId::kString, true}});
  Chunk chunk(schema);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> ints(-6, 6);
  std::uniform_real_distribution<double> reals(-8.0, 8.0);
  std::uniform_int_distribution<int> pct(0, 99);
  const char* vocab[] = {"ant", "bee", "cat", "dog", "eel"};
  for (size_t r = 0; r < rows; ++r) {
    Value a = pct(rng) < 15 ? Value::Null() : Value::Int64(ints(rng));
    Value b = Value::Int64(ints(rng));
    Value x = pct(rng) < 15 ? Value::Null() : Value::Double(reals(rng));
    Value s = pct(rng) < 15 ? Value::Null()
                            : Value::String(vocab[pct(rng) % 5]);
    Value t = pct(rng) < 15 ? Value::Null()
                            : Value::String(vocab[pct(rng) % 5]);
    chunk.AppendRow({a, b, x, s, t});
  }
  return chunk;
}

ExprPtr ColA() { return MakeColumnRef(0, TypeId::kInt64, "a"); }
ExprPtr ColB() { return MakeColumnRef(1, TypeId::kInt64, "b"); }
ExprPtr ColX() { return MakeColumnRef(2, TypeId::kDouble, "x"); }
ExprPtr ColS() { return MakeColumnRef(3, TypeId::kString, "s"); }
ExprPtr ColT() { return MakeColumnRef(4, TypeId::kString, "t"); }

constexpr CompareOp kAllCompareOps[] = {CompareOp::kEq, CompareOp::kNe,
                                        CompareOp::kLt, CompareOp::kLe,
                                        CompareOp::kGt, CompareOp::kGe};
constexpr ArithOp kAllArithOps[] = {ArithOp::kAdd, ArithOp::kSub,
                                    ArithOp::kMul, ArithOp::kDiv,
                                    ArithOp::kMod};

TEST(ExprOracleTest, ComparisonsAcrossTypes) {
  Chunk chunk = MakeRandomChunk(1);
  for (CompareOp op : kAllCompareOps) {
    // int-int, int-double promotion, double-double, string-string;
    // column-column and column-constant operand shapes.
    ExpectMatchesOracle(MakeCompare(op, ColA(), ColB()), chunk);
    ExpectMatchesOracle(MakeCompare(op, ColA(), ColX()), chunk);
    ExpectMatchesOracle(MakeCompare(op, ColX(), ColA()), chunk);
    ExpectMatchesOracle(
        MakeCompare(op, ColX(), MakeLiteral(Value::Double(1.5))), chunk);
    ExpectMatchesOracle(
        MakeCompare(op, ColA(), MakeLiteral(Value::Int64(2))), chunk);
    ExpectMatchesOracle(MakeCompare(op, ColS(), ColT()), chunk);
    ExpectMatchesOracle(
        MakeCompare(op, ColS(), MakeLiteral(Value::String("cat"))), chunk);
    // NULL constant operand nulls every row.
    ExpectMatchesOracle(
        MakeCompare(op, ColA(), MakeLiteral(Value::Null(TypeId::kInt64))),
        chunk);
  }
}

ExprPtr In(ExprPtr child, std::vector<Value> list, bool negated = false) {
  return std::make_shared<InListExpr>(std::move(child), std::move(list),
                                      negated);
}

TEST(ExprOracleTest, InListAcrossTypes) {
  Chunk chunk = MakeRandomChunk(7);
  const Value null = Value::Null();
  for (bool negated : {false, true}) {
    // Typed kernels: BIGINT, DOUBLE and VARCHAR children.
    ExpectMatchesOracle(In(ColA(), {Value::Int64(1), Value::Int64(-3)},
                           negated),
                        chunk);
    ExpectMatchesOracle(In(ColS(), {Value::String("cat"),
                                    Value::String("eel")},
                           negated),
                        chunk);
    ExpectMatchesOracle(In(ColX(), {Value::Double(1.5), Value::Int64(2)},
                           negated),
                        chunk);
    // A NULL in the list turns every non-match NULL.
    ExpectMatchesOracle(In(ColB(), {Value::Int64(0), null}, negated), chunk);
    ExpectMatchesOracle(In(ColT(), {null, Value::String("dog")}, negated),
                        chunk);
    ExpectMatchesOracle(In(ColA(), {null}, negated), chunk);
    // Mixed BIGINT/DOUBLE literals compare numerically; a string literal
    // never matches a number (and vice versa).
    ExpectMatchesOracle(In(ColB(), {Value::Double(2.0), Value::Double(2.5),
                                    Value::Int64(-4), Value::String("3")},
                           negated),
                        chunk);
    ExpectMatchesOracle(In(ColS(), {Value::Int64(1), Value::String("ant")},
                           negated),
                        chunk);
    // Constant children fold to one answer for every row.
    ExpectMatchesOracle(In(MakeLiteral(Value::Int64(2)),
                           {Value::Double(2.0), null}, negated),
                        chunk);
    ExpectMatchesOracle(In(MakeLiteral(Value::String("bee")),
                           {Value::String("ant"), null}, negated),
                        chunk);
    ExpectMatchesOracle(In(MakeLiteral(Value::Null(TypeId::kInt64)),
                           {Value::Int64(1)}, negated),
                        chunk);
  }
}

TEST(ExprOracleTest, InListDoublesFollowValueCompare) {
  // Exact, signed-zero and NaN cases: Value::Compare treats -0.0 == 0.0
  // and a NaN as equal to everything, and the typed kernel must agree.
  Schema schema({{"x", TypeId::kDouble, true}, {"a", TypeId::kInt64, true}});
  Chunk chunk(schema);
  const double xs[] = {0.0, -0.0, 2.0, 2.5, std::nan(""), -7.0};
  for (double x : xs) chunk.AppendRow({Value::Double(x), Value::Int64(2)});
  chunk.AppendRow({Value::Null(), Value::Null()});
  ExprPtr x = MakeColumnRef(0, TypeId::kDouble, "x");
  ExprPtr a = MakeColumnRef(1, TypeId::kInt64, "a");
  for (bool negated : {false, true}) {
    ExpectMatchesOracle(In(x, {Value::Int64(0), Value::Int64(2)}, negated),
                        chunk);
    ExpectMatchesOracle(In(x, {Value::Double(-0.0)}, negated), chunk);
    ExpectMatchesOracle(In(a, {Value::Double(std::nan(""))}, negated), chunk);
    ExpectMatchesOracle(In(a, {Value::Double(2.0)}, negated), chunk);
  }
}

TEST(ExprOracleTest, ArithmeticAcrossTypes) {
  Chunk chunk = MakeRandomChunk(2);
  for (ArithOp op : kAllArithOps) {
    ExpectMatchesOracle(MakeArith(op, ColA(), ColB()), chunk);  // int path
    ExpectMatchesOracle(MakeArith(op, ColX(), ColA()), chunk);  // promoted
    ExpectMatchesOracle(MakeArith(op, ColX(), MakeLiteral(Value::Double(2.5))),
                        chunk);
    // Constant zero divisor: every row must go NULL, not trap.
    ExpectMatchesOracle(MakeArith(op, ColA(), MakeLiteral(Value::Int64(0))),
                        chunk);
  }
}

TEST(ExprOracleTest, NestedPredicates) {
  Chunk chunk = MakeRandomChunk(3);
  ExprPtr p = MakeCompare(CompareOp::kGt, ColA(), MakeLiteral(Value::Int64(0)));
  ExprPtr q = MakeCompare(CompareOp::kLt, ColX(), MakeLiteral(Value::Double(1.0)));
  ExprPtr s = MakeCompare(CompareOp::kEq, ColS(), ColT());
  ExpectMatchesOracle(MakeAnd(p, q), chunk);
  ExpectMatchesOracle(MakeOr(p, q), chunk);
  ExpectMatchesOracle(MakeNot(MakeOr(p, s)), chunk);
  ExpectMatchesOracle(MakeAnd(MakeOr(p, q), MakeNot(s)), chunk);
  ExpectMatchesOracle(MakeOr(MakeAnd(p, MakeNot(q)), MakeAnd(s, q)), chunk);
}

TEST(ExprOracleTest, TriStateTruthTables) {
  // One row per (left, right) combination of {TRUE, FALSE, NULL}; the
  // kernels must reproduce the full Kleene tables for AND/OR and the
  // involution for NOT.
  Schema schema({{"l", TypeId::kBool, true}, {"r", TypeId::kBool, true}});
  Chunk chunk(schema);
  const Value states[] = {Value::Bool(true), Value::Bool(false),
                          Value::Null(TypeId::kBool)};
  for (const Value& l : states) {
    for (const Value& r : states) {
      chunk.AppendRow({l, r});
    }
  }
  ExprPtr l = MakeColumnRef(0, TypeId::kBool, "l");
  ExprPtr r = MakeColumnRef(1, TypeId::kBool, "r");
  ExpectMatchesOracle(MakeAnd(l, r), chunk);
  ExpectMatchesOracle(MakeOr(l, r), chunk);
  ExpectMatchesOracle(MakeNot(l), chunk);
  ExpectMatchesOracle(MakeNot(MakeAnd(l, MakeNot(r))), chunk);

  // Spot-check the corners that distinguish Kleene from binary logic.
  ColumnVector out;
  ASSERT_TRUE(MakeAnd(l, r)->Evaluate(chunk, &out).ok());
  EXPECT_FALSE(out.GetBool(5));  // FALSE AND NULL = FALSE
  EXPECT_TRUE(out.IsNull(2));    // TRUE AND NULL = NULL
  ASSERT_TRUE(MakeOr(l, r)->Evaluate(chunk, &out).ok());
  EXPECT_TRUE(out.GetBool(2));  // TRUE OR NULL = TRUE
  EXPECT_TRUE(out.IsNull(5));   // FALSE OR NULL = NULL
}

// ---------------------------------------------------------------------
// Selection-vector contract: EvalBatch under ctx.sel must equal "gather
// the selected rows, then evaluate densely", and RefineSelection must
// keep exactly the TRUE rows of the predicate.

void ExpectSelectedEval(const ExprPtr& e, const Chunk& chunk,
                        const std::vector<uint32_t>& sel) {
  EvalContext ctx;
  ctx.chunk = &chunk;
  ctx.sel = &sel;
  ColumnVector got;
  ASSERT_TRUE(e->EvalBatch(ctx, &got).ok()) << e->ToString();
  got.Flatten();
  ASSERT_EQ(got.size(), sel.size()) << e->ToString();
  for (size_t i = 0; i < sel.size(); ++i) {
    ASSERT_TRUE(SameCell(OracleEval(*e, chunk, sel[i]), got.GetValue(i)))
        << e->ToString() << " #" << i;
  }
}

TEST(SelectionTest, EvalUnderSelectionEdgeCases) {
  Chunk chunk = MakeRandomChunk(4, 512);
  ExprPtr pred = MakeAnd(
      MakeCompare(CompareOp::kGt, ColA(), MakeLiteral(Value::Int64(0))),
      MakeCompare(CompareOp::kLt, ColX(), ColB()));
  ExprPtr proj = MakeArith(ArithOp::kMul, ColA(), ColB());

  std::vector<uint32_t> empty;
  std::vector<uint32_t> singleton = {17};
  std::vector<uint32_t> full(chunk.num_rows());
  for (size_t i = 0; i < full.size(); ++i) full[i] = static_cast<uint32_t>(i);
  std::vector<uint32_t> stride;
  for (uint32_t i = 0; i < chunk.num_rows(); i += 7) stride.push_back(i);

  for (const auto* sel : {&empty, &singleton, &full, &stride}) {
    ExpectSelectedEval(pred, chunk, *sel);
    ExpectSelectedEval(proj, chunk, *sel);
    ExpectSelectedEval(ColS(), chunk, *sel);
    ExpectSelectedEval(MakeLiteral(Value::Int64(9)), chunk, *sel);
  }
}

TEST(SelectionTest, RefineSelectionMatchesBruteForce) {
  Chunk chunk = MakeRandomChunk(5, 1024);
  ExprPtr p = MakeCompare(CompareOp::kGt, ColA(), MakeLiteral(Value::Int64(-1)));
  ExprPtr q = MakeCompare(CompareOp::kLe, ColX(), MakeLiteral(Value::Double(3.0)));
  ExprPtr s = MakeCompare(CompareOp::kNe, ColS(), ColT());
  std::vector<ExprPtr> preds = {
      p, MakeAnd(p, q), MakeOr(p, q), MakeAnd(MakeOr(p, s), q),
      MakeOr(MakeAnd(p, q), MakeNot(s)),
      // Constant predicates: TRUE keeps everything, FALSE/NULL drop all.
      MakeLiteral(Value::Bool(true)), MakeLiteral(Value::Bool(false)),
      MakeLiteral(Value::Null(TypeId::kBool))};
  for (const ExprPtr& pred : preds) {
    Selection sel;
    ASSERT_TRUE(
        RefineSelection(*pred, chunk, &sel, /*counters=*/nullptr).ok())
        << pred->ToString();
    std::vector<uint32_t> got = sel.rows;
    if (sel.all) {
      got.resize(chunk.num_rows());
      for (size_t i = 0; i < got.size(); ++i) {
        got[i] = static_cast<uint32_t>(i);
      }
    }
    std::vector<uint32_t> want;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      Value v = OracleEval(*pred, chunk, r);
      if (!v.is_null() && v.bool_value()) {
        want.push_back(static_cast<uint32_t>(r));
      }
    }
    ASSERT_EQ(got, want) << pred->ToString();
  }
}

TEST(SelectionTest, RefineSelectionStartsFromNarrowedSelection) {
  Chunk chunk = MakeRandomChunk(6, 512);
  ExprPtr pred = MakeOr(
      MakeCompare(CompareOp::kEq, ColS(), MakeLiteral(Value::String("bee"))),
      MakeCompare(CompareOp::kGt, ColB(), MakeLiteral(Value::Int64(3))));
  Selection sel;
  sel.all = false;
  for (uint32_t i = 0; i < chunk.num_rows(); i += 3) sel.rows.push_back(i);
  std::vector<uint32_t> start = sel.rows;
  ExprCounters counters;
  ASSERT_TRUE(RefineSelection(*pred, chunk, &sel, &counters).ok());
  ASSERT_FALSE(sel.all);
  std::vector<uint32_t> want;
  for (uint32_t r : start) {
    Value v = OracleEval(*pred, chunk, r);
    if (!v.is_null() && v.bool_value()) want.push_back(r);
  }
  EXPECT_EQ(sel.rows, want);
  // The OR branches evaluated under narrowed selections.
  EXPECT_GT(counters.sel_hits, 0);
  EXPECT_GT(counters.rows_evaluated, 0);
}

TEST(ExprTest, LiteralEvalIsConstantForm) {
  Chunk chunk = MakeRandomChunk(7, 64);
  EvalContext ctx;
  ctx.chunk = &chunk;
  ColumnVector out;
  ASSERT_TRUE(MakeLiteral(Value::Int64(42))->EvalBatch(ctx, &out).ok());
  EXPECT_TRUE(out.is_constant());
  EXPECT_EQ(out.size(), chunk.num_rows());
  EXPECT_EQ(out.GetInt64(63), 42);
  out.Flatten();
  EXPECT_FALSE(out.is_constant());
  ASSERT_EQ(out.size(), chunk.num_rows());
  EXPECT_EQ(out.GetInt64(63), 42);

  // NULL literal: constant, all-null, still sized to the batch.
  ASSERT_TRUE(MakeLiteral(Value::Null())->EvalBatch(ctx, &out).ok());
  EXPECT_TRUE(out.is_constant());
  EXPECT_TRUE(out.IsNull(63));
}

// ---------------------------------------------------------------------
// Every operand shape. The numeric kernels instantiate one loop per
// (left, right) reader pair (flat, flat under a selection, constant;
// int64 or int64 read as double) and fill validity with one memset when
// no operand has a NULL, so each shape and each NULL profile runs against
// the oracle, densely and under selections.

/// Edge-case chunk: BIGINT i (no NULLs), DOUBLE d (NaN, +-0.0, infinity,
/// NULLs), DATE dt (NULLs), DOUBLE z (all NULL), DOUBLE w (no NULLs, with
/// NaN and -0.0) and a dictionary-encoded VARCHAR s (NULLs).
Chunk MakeEdgeChunk(uint32_t seed, size_t rows = 700) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pct(0, 99);
  const double specials[] = {0.0,  -0.0, std::nan(""),
                             1.5,  -2.0, 3.0,
                             std::numeric_limits<double>::infinity(), -7.25};
  const char* vocab[] = {"ant", "bee", "cat", "dog"};
  ColumnVector i(TypeId::kInt64), d(TypeId::kDouble), dt(TypeId::kDate);
  ColumnVector z(TypeId::kDouble), w(TypeId::kDouble);
  ColumnVector s = ColumnVector::MakeDictionary();
  for (size_t r = 0; r < rows; ++r) {
    i.AppendInt64(static_cast<int64_t>(rng() % 13) - 6);
    if (pct(rng) < 15) {
      d.AppendNull();
    } else {
      d.AppendDouble(specials[rng() % 8]);
    }
    if (pct(rng) < 10) {
      dt.AppendNull();
    } else {
      dt.AppendInt64(9000 + static_cast<int64_t>(rng() % 5));
    }
    z.AppendNull();
    w.AppendDouble(specials[rng() % 8]);
    if (pct(rng) < 15) {
      s.AppendNull();
    } else {
      s.AppendString(vocab[rng() % 4]);
    }
  }
  Chunk chunk;
  for (ColumnVector* col : {&i, &d, &dt, &z, &w, &s}) {
    chunk.AddColumn(std::move(*col));
  }
  return chunk;
}

ExprPtr EdgeI() { return MakeColumnRef(0, TypeId::kInt64, "i"); }
ExprPtr EdgeD() { return MakeColumnRef(1, TypeId::kDouble, "d"); }
ExprPtr EdgeDate() { return MakeColumnRef(2, TypeId::kDate, "dt"); }
ExprPtr EdgeZ() { return MakeColumnRef(3, TypeId::kDouble, "z"); }
ExprPtr EdgeW() { return MakeColumnRef(4, TypeId::kDouble, "w"); }
ExprPtr EdgeS() { return MakeColumnRef(5, TypeId::kString, "s"); }
ExprPtr Lit(Value v) { return MakeLiteral(std::move(v)); }

/// Operand pairs covering every shape and numeric type mix of a binary
/// numeric kernel.
std::vector<std::pair<ExprPtr, ExprPtr>> ShapePairs() {
  return {
      // flat x flat: int/int, double/double, int/double, date/double,
      // NULL-free/NULL-free, all-NULL.
      {EdgeI(), EdgeI()},
      {EdgeD(), EdgeW()},
      {EdgeI(), EdgeD()},
      {EdgeDate(), EdgeW()},
      {EdgeW(), EdgeI()},
      {EdgeZ(), EdgeD()},
      // flat x constant: int column vs double literal, double column vs
      // int literal, date column vs double literal, NULL literal.
      {EdgeI(), Lit(Value::Double(2.5))},
      {EdgeD(), Lit(Value::Int64(2))},
      {EdgeW(), Lit(Value::Double(-0.0))},
      {EdgeDate(), Lit(Value::Double(9002.5))},
      {EdgeI(), Lit(Value::Int64(-3))},
      {EdgeD(), Lit(Value::Null(TypeId::kDouble))},
      // constant x flat (`1 - x`), including a NaN constant.
      {Lit(Value::Int64(1)), EdgeD()},
      {Lit(Value::Int64(1)), EdgeI()},
      {Lit(Value::Double(std::nan(""))), EdgeW()},
      {Lit(Value::Null(TypeId::kInt64)), EdgeI()},
      // constant x constant, and a materialized operand.
      {Lit(Value::Int64(7)), Lit(Value::Double(2.0))},
      {Lit(Value::Int64(-7)), Lit(Value::Int64(-1))},
      {MakeArith(ArithOp::kSub, Lit(Value::Int64(1)), EdgeD()), EdgeW()},
  };
}

/// Selections over `rows` rows: strided, a contiguous range, a singleton
/// and empty.
std::vector<std::vector<uint32_t>> TestSelections(size_t rows) {
  std::vector<uint32_t> strided, range;
  for (uint32_t r = 1; r < rows; r += 3) strided.push_back(r);
  for (uint32_t r = 100; r < 400 && r < rows; ++r) range.push_back(r);
  return {strided, range, {static_cast<uint32_t>(rows / 2)}, {}};
}

TEST(ExprOracleTest, ArithmeticEveryShape) {
  Chunk chunk = MakeEdgeChunk(11);
  for (ArithOp op : kAllArithOps) {
    for (const auto& [l, r] : ShapePairs()) {
      ExprPtr e = MakeArith(op, l, r);
      ExpectMatchesOracle(e, chunk);
      for (const auto& sel : TestSelections(chunk.num_rows())) {
        ExpectSelectedEval(e, chunk, sel);
      }
    }
  }
}

TEST(ExprOracleTest, ComparisonEveryShape) {
  Chunk chunk = MakeEdgeChunk(12);
  for (CompareOp op : kAllCompareOps) {
    for (const auto& [l, r] : ShapePairs()) {
      ExprPtr e = MakeCompare(op, l, r);
      ExpectMatchesOracle(e, chunk);
      for (const auto& sel : TestSelections(chunk.num_rows())) {
        ExpectSelectedEval(e, chunk, sel);
      }
    }
    // Dictionary column against a constant and against itself.
    ExpectMatchesOracle(MakeCompare(op, EdgeS(), Lit(Value::String("bee"))),
                        chunk);
    ExpectMatchesOracle(MakeCompare(op, Lit(Value::String("cat")), EdgeS()),
                        chunk);
    ExpectMatchesOracle(MakeCompare(op, EdgeS(), EdgeS()), chunk);
  }
}

TEST(ExprOracleTest, CaseAcrossShapes) {
  Chunk chunk = MakeEdgeChunk(13);
  ExprPtr pos = MakeCompare(CompareOp::kGt, EdgeI(), Lit(Value::Int64(0)));
  ExprPtr dneg = MakeCompare(CompareOp::kLt, EdgeD(), Lit(Value::Int64(0)));
  auto make_case = [](std::vector<ExprPtr> conds, std::vector<ExprPtr> results,
                      ExprPtr else_result, TypeId type) {
    return std::make_shared<CaseExpr>(std::move(conds), std::move(results),
                                      std::move(else_result), type);
  };
  std::vector<ExprPtr> cases = {
      // Q14's shape: a DOUBLE expression, else a DOUBLE constant.
      make_case({pos}, {MakeArith(ArithOp::kMul, EdgeW(), EdgeD())},
                Lit(Value::Double(0.0)), TypeId::kDouble),
      // Q12's shape: BIGINT constants.
      make_case({MakeOr(pos, dneg)}, {Lit(Value::Int64(1))},
                Lit(Value::Int64(0)), TypeId::kInt64),
      // A BIGINT branch promoted into a DOUBLE CASE; no ELSE.
      make_case({dneg, pos}, {EdgeI(), EdgeD()}, nullptr, TypeId::kDouble),
      // An untyped NULL ELSE and a NULL-valued condition column.
      make_case({MakeCompare(CompareOp::kEq, EdgeZ(), EdgeZ())},
                {Lit(Value::Int64(5))}, Lit(Value::Null()), TypeId::kInt64),
      // Strings: a dictionary column and a constant.
      make_case({pos}, {EdgeS()}, Lit(Value::String("none")),
                TypeId::kString),
      // DATE results.
      make_case({dneg}, {EdgeDate()}, nullptr, TypeId::kDate),
  };
  for (const ExprPtr& e : cases) {
    ExpectMatchesOracle(e, chunk);
    for (const auto& sel : TestSelections(chunk.num_rows())) {
      ExpectSelectedEval(e, chunk, sel);
    }
  }
}

/// RefineSelection from `start` must keep exactly the rows of `start` the
/// oracle calls TRUE.
void ExpectRefineMatchesOracle(const ExprPtr& pred, const Chunk& chunk,
                               const Selection& start) {
  Selection sel = start;
  ASSERT_TRUE(RefineSelection(*pred, chunk, &sel, nullptr).ok())
      << pred->ToString();
  auto rows_of = [&chunk](const Selection& s) {
    std::vector<uint32_t> rows = s.rows;
    if (s.all) {
      rows.resize(chunk.num_rows());
      for (size_t i = 0; i < rows.size(); ++i) {
        rows[i] = static_cast<uint32_t>(i);
      }
    }
    return rows;
  };
  std::vector<uint32_t> want;
  for (uint32_t r : rows_of(start)) {
    Value v = OracleEval(*pred, chunk, r);
    if (!v.is_null() && v.bool_value()) want.push_back(r);
  }
  ASSERT_EQ(rows_of(sel), want) << pred->ToString();
}

std::vector<Selection> RefineStarts(size_t rows) {
  std::vector<Selection> starts(1);  // all rows
  for (const auto& rows_sel : TestSelections(rows)) {
    Selection s;
    s.all = false;
    s.rows = rows_sel;
    starts.push_back(std::move(s));
  }
  return starts;
}

TEST(SelectionTest, RefineEveryComparisonMatchesOracle) {
  Chunk chunk = MakeEdgeChunk(14);
  for (CompareOp op : kAllCompareOps) {
    std::vector<ExprPtr> preds;
    for (const auto& [l, r] : ShapePairs()) preds.push_back(MakeCompare(op, l, r));
    preds.push_back(MakeCompare(op, EdgeS(), Lit(Value::String("bee"))));
    preds.push_back(MakeCompare(op, EdgeS(), EdgeS()));
    for (const ExprPtr& pred : preds) {
      for (const Selection& start : RefineStarts(chunk.num_rows())) {
        ExpectRefineMatchesOracle(pred, chunk, start);
      }
    }
  }
}

TEST(SelectionTest, DictionaryAndNumericInUnderNarrowedSelection) {
  Chunk chunk = MakeEdgeChunk(15);
  const Value null = Value::Null();
  std::vector<ExprPtr> preds;
  for (bool negated : {false, true}) {
    preds.push_back(In(EdgeS(), {Value::String("ant"), Value::String("dog")},
                       negated));
    preds.push_back(In(EdgeS(), {Value::String("cat"), null}, negated));
    preds.push_back(In(EdgeI(), {Value::Int64(2), Value::Double(-3.0)},
                       negated));
    preds.push_back(In(EdgeD(), {Value::Double(-0.0), Value::Int64(3)},
                       negated));
    preds.push_back(In(EdgeW(), {Value::Double(1.5), null}, negated));
    preds.push_back(In(EdgeZ(), {Value::Double(1.5)}, negated));
  }
  preds.push_back(MakeCompare(CompareOp::kEq, EdgeS(),
                              Lit(Value::String("dog"))));
  preds.push_back(MakeCompare(CompareOp::kNe, Lit(Value::String("ant")),
                              EdgeS()));
  for (const ExprPtr& pred : preds) {
    for (const Selection& start : RefineStarts(chunk.num_rows())) {
      ExpectRefineMatchesOracle(pred, chunk, start);
    }
    for (const auto& sel : TestSelections(chunk.num_rows())) {
      ExpectSelectedEval(pred, chunk, sel);
    }
  }
}

TEST(SelectionTest, FilterKernelsCountLikeEvalBatch) {
  // RefineSelection counts exactly what evaluating the predicate into a
  // BOOLEAN vector counts, whether a numeric comparison writes the
  // keep-mask itself or the mask is read off EvalBatch (strings, IN).
  Chunk chunk = MakeEdgeChunk(16);
  std::vector<ExprPtr> preds = {
      MakeCompare(CompareOp::kLe, EdgeDate(), Lit(Value::Double(9002.5))),
      MakeCompare(CompareOp::kLt, EdgeI(), EdgeD()),
      MakeCompare(CompareOp::kGt,
                  MakeArith(ArithOp::kMul, EdgeW(), Lit(Value::Int64(2))),
                  EdgeD()),
      MakeCompare(CompareOp::kEq, EdgeS(), Lit(Value::String("cat"))),
      In(EdgeS(), {Value::String("ant")}),
      In(EdgeI(), {Value::Int64(1), Value::Int64(2)}),
  };
  for (const ExprPtr& pred : preds) {
    for (const Selection& start : RefineStarts(chunk.num_rows())) {
      ExprCounters refined;
      Selection sel = start;
      ASSERT_TRUE(RefineSelection(*pred, chunk, &sel, &refined).ok());
      ExprCounters evaluated;
      EvalContext ctx;
      ctx.chunk = &chunk;
      ctx.sel = start.all ? nullptr : &start.rows;
      ctx.counters = &evaluated;
      ColumnVector out;
      ASSERT_TRUE(pred->EvalBatch(ctx, &out).ok());
      EXPECT_EQ(refined.rows_evaluated, evaluated.rows_evaluated)
          << pred->ToString();
      EXPECT_EQ(refined.sel_hits, evaluated.sel_hits) << pred->ToString();
    }
  }
}

// ---------------------------------------------------------------------
// BIGINT overflow: the kernels check + - * with __builtin_*_overflow and
// catch INT64_MIN / -1 before it can trap; INT64_MIN % -1 is 0.

Chunk MakeExtremeChunk() {
  Schema schema({{"a", TypeId::kInt64, true}, {"b", TypeId::kInt64, true}});
  Chunk chunk(schema);
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  chunk.AppendRow({Value::Int64(kMin), Value::Int64(-1)});
  chunk.AppendRow({Value::Int64(kMax), Value::Int64(1)});
  chunk.AppendRow({Value::Int64(5), Value::Int64(-1)});
  chunk.AppendRow({Value::Null(), Value::Int64(-1)});
  return chunk;
}

TEST(ExprTest, BigintOverflowFailsAndMinModMinusOneIsZero) {
  Chunk chunk = MakeExtremeChunk();
  ExprPtr a = MakeColumnRef(0, TypeId::kInt64, "a");
  ExprPtr b = MakeColumnRef(1, TypeId::kInt64, "b");
  ColumnVector out;
  // a % b: every row's divisor is +-1, so every valid row is 0.
  ASSERT_TRUE(MakeArith(ArithOp::kMod, a, b)->Evaluate(chunk, &out).ok());
  EXPECT_EQ(out.GetInt64(0), 0);
  EXPECT_EQ(out.GetInt64(1), 0);
  EXPECT_EQ(out.GetInt64(2), 0);
  EXPECT_TRUE(out.IsNull(3));
  const auto out_of_range = [&](ArithOp op, ExprPtr l, ExprPtr r) {
    ColumnVector res;
    Status st = MakeArith(op, std::move(l), std::move(r))->Evaluate(chunk, &res);
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
    EXPECT_NE(st.message().find("BIGINT out of range"), std::string::npos);
  };
  out_of_range(ArithOp::kDiv, a, b);                         // INT64_MIN / -1
  out_of_range(ArithOp::kAdd, a, Lit(Value::Int64(1)));      // INT64_MAX + 1
  out_of_range(ArithOp::kSub, a, Lit(Value::Int64(1)));      // INT64_MIN - 1
  out_of_range(ArithOp::kMul, a, b);                         // INT64_MIN * -1
  out_of_range(ArithOp::kMul, Lit(Value::Int64(2)), a);      // const x flat
  out_of_range(ArithOp::kSub, Lit(Value::Int64(0)), a);      // 0 - INT64_MIN
  ColumnVector abs_out;
  EXPECT_EQ(std::make_shared<FunctionExpr>(ScalarFunc::kAbs, a, TypeId::kInt64)
                ->Evaluate(chunk, &abs_out)
                .code(),
            StatusCode::kOutOfRange);  // ABS(INT64_MIN)
  // Constant folding goes through the same kernel.
  ColumnVector folded;
  EXPECT_EQ(MakeArith(ArithOp::kAdd,
                      Lit(Value::Int64(std::numeric_limits<int64_t>::max())),
                      Lit(Value::Int64(1)))
                ->Evaluate(chunk, &folded)
                .code(),
            StatusCode::kOutOfRange);

  // Only evaluated, valid rows can overflow: a selection that skips the
  // extreme rows, and a NULL row, do not fail.
  EvalContext ctx;
  ctx.chunk = &chunk;
  std::vector<uint32_t> tame = {2, 3};
  ctx.sel = &tame;
  ASSERT_TRUE(MakeArith(ArithOp::kDiv, a, b)->EvalBatch(ctx, &out).ok());
  EXPECT_EQ(out.GetInt64(0), -5);
  EXPECT_TRUE(out.IsNull(1));
  ASSERT_TRUE(
      MakeArith(ArithOp::kSub, Lit(Value::Int64(0)), a)->EvalBatch(ctx, &out)
          .ok());
  EXPECT_EQ(out.GetInt64(0), -5);
}

TEST(ExprTest, BigintOverflowThroughDatabase) {
  // Used to kill the process with SIGFPE (and the server with it).
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a BIGINT, b BIGINT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t VALUES (-9223372036854775807, -1)").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET a = a - 1").ok());
  auto mod = db.Execute("SELECT a % b FROM t");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_EQ(mod->data().column(0).GetInt64(0), 0);
  auto div = db.Execute("SELECT a / b FROM t");
  EXPECT_EQ(div.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(db.Execute("SELECT a - 1 FROM t").status().code(),
            StatusCode::kOutOfRange);
  // A BIGINT SUM whose total does not fit fails; AVG reads its double sum.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (-1, 0)").ok());
  EXPECT_EQ(db.Execute("SELECT SUM(a) FROM t").status().code(),
            StatusCode::kOutOfRange);
  auto avg = db.Execute("SELECT AVG(a) FROM t");
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  EXPECT_TRUE(db.Execute("SELECT SUM(b) FROM t").ok());
}

TEST(ExprTest, BigintSumChecksOnlyTheTotal) {
  // The running sum of [INT64_MAX, 1, -1] leaves the BIGINT range after
  // the second row, but the total fits: the answer must not depend on
  // where the rows are split between partial sums (threads, morsels).
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE s (g VARCHAR, v BIGINT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO s VALUES ('x', 9223372036854775807), "
                         "('x', 1), ('y', -5), ('x', -1)")
                  .ok());
  auto total = db.Execute("SELECT SUM(v) FROM s WHERE g = 'x'");
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(total->data().column(0).GetInt64(0),
            std::numeric_limits<int64_t>::max());
  auto grouped = db.Execute("SELECT g, SUM(v) FROM s GROUP BY g ORDER BY g");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->data().column(1).GetInt64(0),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(grouped->data().column(1).GetInt64(1), -5);
  // Past the range in total, at either end, it fails.
  ASSERT_TRUE(db.Execute("INSERT INTO s VALUES ('x', 1)").ok());
  EXPECT_EQ(db.Execute("SELECT g, SUM(v) FROM s GROUP BY g").status().code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(
      db.Execute("INSERT INTO s VALUES ('y', -9223372036854775807)").ok());
  EXPECT_EQ(db.Execute("SELECT SUM(v) FROM s WHERE g = 'y'").status().code(),
            StatusCode::kOutOfRange);
}

TEST(ExprTest, CastDoubleToBigintOutsideTheRangeFails) {
  // CAST(DOUBLE AS BIGINT) truncates [-2^63, 2^63); NaN, the infinities
  // and everything else outside used to come back as INT64_MIN.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT, d DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 1e30), (2, -1e30), "
                         "(3, 1e300), (4, 9223372036854775808.0), "
                         "(5, -9223372036854775808.0), "
                         "(6, 9223372036854774784.0), (7, -2.9)")
                  .ok());
  // Evaluated per row.
  for (const char* query :
       {"SELECT CAST(d AS BIGINT) FROM t WHERE id = 1",
        "SELECT CAST(d AS BIGINT) FROM t WHERE id = 2",
        "SELECT CAST(d * d AS BIGINT) FROM t WHERE id = 3",
        "SELECT CAST(d * d - d * d AS BIGINT) FROM t WHERE id = 3",
        "SELECT CAST(d AS BIGINT) FROM t WHERE id = 4",
        "SELECT CAST(d AS BIGINT) FROM t"}) {
    EXPECT_EQ(db.Execute(query).status().code(), StatusCode::kOutOfRange)
        << query;
  }
  auto fits = db.Execute(
      "SELECT CAST(d AS BIGINT) FROM t WHERE id >= 5 ORDER BY id");
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->data().column(0).GetInt64(0),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(fits->data().column(0).GetInt64(1), 9223372036854774784);
  EXPECT_EQ(fits->data().column(0).GetInt64(2), -2);
  // A CASE branch a row does not take does not fail on that row.
  auto guarded = db.Execute(
      "SELECT CASE WHEN ABS(d) < 1e18 THEN CAST(d AS BIGINT) ELSE -1 END "
      "FROM t ORDER BY id");
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  EXPECT_EQ(guarded->data().column(0).GetInt64(0), -1);
  EXPECT_EQ(guarded->data().column(0).GetInt64(6), -2);

  // Constant casts: the planner's fold leaves a failing cast unfolded,
  // and executing it fails the same way.
  for (const char* query :
       {"SELECT CAST(1e30 AS BIGINT) FROM t",
        "SELECT CAST(-1e30 AS BIGINT) FROM t",
        "SELECT CAST(1e300 * 1e300 AS BIGINT) FROM t",
        "SELECT CAST(1e300 * 1e300 - 1e300 * 1e300 AS BIGINT) FROM t"}) {
    EXPECT_EQ(db.Execute(query).status().code(), StatusCode::kOutOfRange)
        << query;
  }
  const auto cast = [](double v) {
    return std::make_shared<CastExpr>(Lit(Value::Double(v)), TypeId::kInt64);
  };
  ExprPtr folded = FoldConstants(cast(-2.9));
  ASSERT_EQ(folded->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*folded).value().int64_value(),
            -2);
  for (double bad : {1e30, -1e30, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(), 0x1p63}) {
    ExprPtr kept = FoldConstants(cast(bad));
    EXPECT_EQ(kept->kind(), ExprKind::kCast) << bad;
    EXPECT_EQ(kept->EvaluateScalar().status().code(), StatusCode::kOutOfRange)
        << bad;
  }
}

TEST(ExprTest, CaseBranchNotTakenDoesNotOverflow) {
  // A CASE branch is computed over every row, but a row that does not
  // take it must not fail on it: only what SQL evaluates for a row can
  // raise that row's error.
  Chunk chunk = MakeExtremeChunk();  // a: MIN, MAX, 5, NULL; b: -1, 1, -1, -1
  ExprPtr a = MakeColumnRef(0, TypeId::kInt64, "a");
  ExprPtr b = MakeColumnRef(1, TypeId::kInt64, "b");
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const ExprPtr big = Lit(Value::Int64(1000000000000000));
  auto case_of = [](std::vector<ExprPtr> conds, std::vector<ExprPtr> results,
                    ExprPtr otherwise) {
    return std::make_shared<CaseExpr>(std::move(conds), std::move(results),
                                      std::move(otherwise), TypeId::kInt64);
  };
  auto lt = [](ExprPtr l, int64_t v) {
    return MakeCompare(CompareOp::kLt, std::move(l), Lit(Value::Int64(v)));
  };
  auto eval = [&](const ExprPtr& e, const std::vector<uint32_t>* sel,
                  ColumnVector* out) {
    EvalContext ctx;
    ctx.chunk = &chunk;
    ctx.sel = sel;
    return e->EvalBatch(ctx, out);
  };
  const std::vector<uint32_t> rows23 = {2, 3};
  const std::vector<uint32_t> rows12 = {1, 2};
  ColumnVector out;

  // CASE WHEN a < 1000 THEN a * 10^15 ELSE a END: MIN * 10^15 overflows
  // but row 0 takes it, so it fails there, and not under a selection
  // that leaves row 0 out (MAX takes the ELSE).
  ExprPtr scaled =
      case_of({lt(a, 1000)}, {MakeArith(ArithOp::kMul, a, big)}, a);
  EXPECT_EQ(eval(scaled, nullptr, &out).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(eval(scaled, &rows12, &out).ok());
  out.FlattenConstant();
  EXPECT_EQ(out.GetInt64(0), kMax);
  EXPECT_EQ(out.GetInt64(1), 5 * 1000000000000000);

  // CASE WHEN b <> -1 THEN a / b END: INT64_MIN / -1 is not taken.
  ExprPtr guarded_div =
      case_of({MakeCompare(CompareOp::kNe, b, Lit(Value::Int64(-1)))},
              {MakeArith(ArithOp::kDiv, a, b)}, nullptr);
  ASSERT_TRUE(eval(guarded_div, nullptr, &out).ok());
  EXPECT_TRUE(out.IsNull(0));
  EXPECT_EQ(out.GetInt64(1), kMax);
  EXPECT_TRUE(out.IsNull(2));

  // A later WHEN runs only on rows no earlier WHEN took: a / b > 0 is
  // never evaluated for b = -1.
  ExprPtr guarded_cond = case_of(
      {MakeCompare(CompareOp::kEq, b, Lit(Value::Int64(-1))),
       MakeCompare(CompareOp::kGt, MakeArith(ArithOp::kDiv, a, b),
                   Lit(Value::Int64(0)))},
      {Lit(Value::Int64(0)), Lit(Value::Int64(1))}, Lit(Value::Int64(2)));
  ASSERT_TRUE(eval(guarded_cond, nullptr, &out).ok());
  out.FlattenConstant();
  EXPECT_EQ(out.GetInt64(0), 0);
  EXPECT_EQ(out.GetInt64(1), 1);

  // The ELSE, ABS, a nested CASE and a folded constant obey the same rule.
  ExprPtr guarded_else = case_of(
      {MakeCompare(CompareOp::kGt, a, Lit(Value::Int64(kMin)))},
      {std::make_shared<FunctionExpr>(ScalarFunc::kAbs, a, TypeId::kInt64)},
      MakeArith(ArithOp::kSub, a, Lit(Value::Int64(1))));
  ASSERT_TRUE(eval(guarded_else, &rows12, &out).ok());
  out.FlattenConstant();
  EXPECT_EQ(out.GetInt64(0), kMax);
  EXPECT_EQ(out.GetInt64(1), 5);
  EXPECT_EQ(eval(guarded_else, nullptr, &out).code(),
            StatusCode::kOutOfRange);  // row 0 takes MIN - 1
  ExprPtr nested = case_of(
      {lt(a, 1000)},
      {case_of({lt(b, 0)}, {Lit(Value::Int64(0))},
               MakeArith(ArithOp::kMul, a, big))},
      Lit(Value::Int64(7)));
  ASSERT_TRUE(eval(nested, nullptr, &out).ok());
  out.FlattenConstant();
  EXPECT_EQ(out.GetInt64(0), 0);
  EXPECT_EQ(out.GetInt64(1), 7);
  ExprPtr folded_branch = case_of(
      {lt(a, 0)},
      {MakeArith(ArithOp::kAdd, Lit(Value::Int64(kMax)), Lit(Value::Int64(1)))},
      Lit(Value::Int64(0)));
  ASSERT_TRUE(eval(folded_branch, &rows23, &out).ok());
  EXPECT_EQ(eval(folded_branch, nullptr, &out).code(),
            StatusCode::kOutOfRange);
}

TEST(ExprTest, CaseGuardedOverflowThroughDatabase) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a BIGINT, b BIGINT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1000000, 2), (7, -1)").ok());
  auto scaled = db.Execute(
      "SELECT CASE WHEN a < 1000 THEN a * 1000000000000000 ELSE a END "
      "FROM t");
  ASSERT_TRUE(scaled.ok()) << scaled.status().ToString();
  EXPECT_EQ(scaled->data().column(0).GetInt64(0), 1000000);
  EXPECT_EQ(scaled->data().column(0).GetInt64(1), 7000000000000000);
  ASSERT_TRUE(db.Execute("UPDATE t SET a = -9223372036854775807 - 1 "
                         "WHERE b = -1")
                  .ok());
  auto guarded = db.Execute("SELECT CASE WHEN b <> -1 THEN a / b END FROM t");
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  EXPECT_EQ(guarded->data().column(0).GetInt64(0), 500000);
  EXPECT_TRUE(guarded->data().column(0).IsNull(1));
  // As aggregate inputs: a subexpression repeated inside two CASEs is
  // not hoisted out of them and computed over every row.
  auto sums = db.Execute(
      "SELECT SUM(CASE WHEN b > 0 THEN a * 1000000000000 END), "
      "SUM(CASE WHEN b > 1 THEN a * 1000000000000 END) FROM t");
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  EXPECT_EQ(sums->data().column(0).GetInt64(0), 1000000000000000000);
  EXPECT_EQ(sums->data().column(1).GetInt64(0), 1000000000000000000);
}

// ---------------------------------------------------------------------
// Shared evaluation (aggregate inputs): each distinct subexpression is
// planned once.

TEST(ExprRewriteTest, ExprEqualsIsStructural) {
  ExprPtr p = MakeColumnRef(0, TypeId::kDouble, "p");
  ExprPtr d = MakeColumnRef(1, TypeId::kDouble, "d");
  auto disc = [&] {
    return MakeArith(ArithOp::kMul, p,
                     MakeArith(ArithOp::kSub, Lit(Value::Int64(1)), d));
  };
  EXPECT_TRUE(ExprEquals(*disc(), *disc()));
  EXPECT_FALSE(ExprEquals(*disc(), *MakeArith(ArithOp::kMul, d, p)));
  EXPECT_FALSE(ExprEquals(*MakeColumnRef(0, TypeId::kDouble, "x"),
                          *MakeColumnRef(1, TypeId::kDouble, "x")));
  // Literals compare by type and bits: 1 is not 1.0, -0.0 is not 0.0.
  EXPECT_FALSE(ExprEquals(*Lit(Value::Int64(1)), *Lit(Value::Double(1.0))));
  EXPECT_FALSE(ExprEquals(*Lit(Value::Double(-0.0)), *Lit(Value::Double(0.0))));
  EXPECT_TRUE(ExprEquals(*Lit(Value::Double(std::nan(""))),
                         *Lit(Value::Double(std::nan("")))));
  EXPECT_FALSE(ExprEquals(*In(p, {Value::Int64(1)}),
                          *In(p, {Value::Int64(1)}, /*negated=*/true)));
}

TEST(ExprRewriteTest, SharedEvaluationComputesEachSubexpressionOnce) {
  // Q1's aggregate inputs over [quantity, price, discount, tax].
  ExprPtr qty = MakeColumnRef(0, TypeId::kDouble, "q");
  ExprPtr price = MakeColumnRef(1, TypeId::kDouble, "p");
  ExprPtr disc = MakeColumnRef(2, TypeId::kDouble, "d");
  ExprPtr tax = MakeColumnRef(3, TypeId::kDouble, "t");
  auto disc_price = [&] {
    return MakeArith(ArithOp::kMul, price,
                     MakeArith(ArithOp::kSub, Lit(Value::Int64(1)), disc));
  };
  ExprPtr charge = MakeArith(ArithOp::kMul, disc_price(),
                             MakeArith(ArithOp::kAdd, Lit(Value::Int64(1)), tax));
  std::vector<ExprPtr> args = {qty,   price, disc_price(), charge,
                               qty,   price, disc,         nullptr};
  SharedEvalPlan plan = PlanSharedEvaluation(args, 4);
  // Two steps: price * (1 - d), then that column * (1 + t).
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.columns,
            (std::vector<size_t>{0, 1, 4, 5, 0, 1, 2, SIZE_MAX}));
  EXPECT_TRUE(ExprEquals(*plan.steps[0], *disc_price()));
  EXPECT_EQ(plan.steps[1]->ToString(), "(#4 * (1 + t))");

  // Nothing inside a CASE is hoisted, but a CASE reads a step that other
  // inputs produce.
  auto case_of = [](ExprPtr result) {
    return std::make_shared<CaseExpr>(
        std::vector<ExprPtr>{
            MakeCompare(CompareOp::kGt, MakeColumnRef(2, TypeId::kDouble, "d"),
                        Lit(Value::Double(0.05)))},
        std::vector<ExprPtr>{std::move(result)}, nullptr, TypeId::kDouble);
  };
  SharedEvalPlan in_case =
      PlanSharedEvaluation({case_of(disc_price()), case_of(charge)}, 4);
  EXPECT_EQ(in_case.steps.size(), 2u);  // just the two CASEs
  SharedEvalPlan beside_case =
      PlanSharedEvaluation({disc_price(), case_of(disc_price())}, 4);
  ASSERT_EQ(beside_case.steps.size(), 2u);
  EXPECT_TRUE(ExprEquals(*beside_case.steps[0], *disc_price()));
  EXPECT_EQ(beside_case.steps[1]->ToString(),
            case_of(MakeColumnRef(4, TypeId::kDouble))->ToString());

  // Evaluating the plan gives the same columns as evaluating each input.
  Chunk chunk = MakeEdgeChunk(17);
  Chunk input;
  for (size_t c : {1, 4, 1, 4}) input.AddColumn(chunk.column(c));
  Chunk ext = input;
  for (const ExprPtr& step : plan.steps) {
    ColumnVector col;
    ASSERT_TRUE(step->Evaluate(ext, &col).ok());
    ext.AddColumn(std::move(col));
  }
  for (size_t a = 0; a + 1 < args.size(); ++a) {
    ColumnVector want;
    ASSERT_TRUE(args[a]->Evaluate(input, &want).ok());
    const ColumnVector& got = ext.column(plan.columns[a]);
    for (size_t r = 0; r < input.num_rows(); ++r) {
      ASSERT_TRUE(SameCell(want.GetValue(r), got.GetValue(r)))
          << args[a]->ToString() << " row " << r;
    }
  }
}

TEST(ExprRewriteTest, LogicalIdentitySimplification) {
  ExprPtr pred = MakeCompare(CompareOp::kGt,
                             MakeColumnRef(0, TypeId::kInt64, "n"),
                             MakeLiteral(Value::Int64(1)));
  // TRUE drops out of AND; FALSE dominates it.
  ExprPtr t = MakeLiteral(Value::Bool(true));
  ExprPtr f = MakeLiteral(Value::Bool(false));
  ExprPtr and_true = FoldConstants(MakeAnd(pred, t));
  EXPECT_EQ(SplitConjuncts(and_true).size(), 1u);
  EXPECT_NE(and_true->ToString().find("(n > 1)"), std::string::npos);
  ExprPtr and_false = FoldConstants(MakeAnd(pred, f));
  ASSERT_EQ(and_false->kind(), ExprKind::kLiteral);
  EXPECT_FALSE(static_cast<const LiteralExpr*>(and_false.get())
                   ->value().bool_value());
  // FALSE drops out of OR; TRUE dominates it.
  ExprPtr or_true = FoldConstants(MakeOr(pred, t));
  ASSERT_EQ(or_true->kind(), ExprKind::kLiteral);
  EXPECT_TRUE(static_cast<const LiteralExpr*>(or_true.get())
                  ->value().bool_value());
  ExprPtr or_false = FoldConstants(MakeOr(pred, f));
  EXPECT_NE(or_false->ToString().find("(n > 1)"), std::string::npos);
  // NULL children survive (AND(pred, NULL) is not pred).
  ExprPtr and_null =
      FoldConstants(MakeAnd(pred, MakeLiteral(Value::Null(TypeId::kBool))));
  EXPECT_EQ(and_null->kind(), ExprKind::kLogical);
}

}  // namespace
}  // namespace agora
