// Tests for the expression tree: vectorized evaluation, three-valued
// logic, constant folding and rewrite helpers. Runs under `ctest -L
// expr` (and in the ASan/UBSan CI legs).
//
// The ExprOracle* suites pit the batch kernels against a retained
// row-at-a-time oracle (Value-level recursion, written here and never
// shared with the engine) over randomized chunks, so a kernel that
// diverges on any row/type/NULL combination fails with the offending
// cell. The Selection* suites pin the selection-vector contract:
// results under a selection equal the gathered-then-evaluated oracle,
// including the empty/full/singleton edges.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

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
  int64_t a = l.int64_value(), b = r.int64_value();
  switch (e.op()) {
    case ArithOp::kAdd: return Value::Int64(a + b);
    case ArithOp::kSub: return Value::Int64(a - b);
    case ArithOp::kMul: return Value::Int64(a * b);
    case ArithOp::kDiv: return b == 0 ? Value::Null(t) : Value::Int64(a / b);
    case ArithOp::kMod: return b == 0 ? Value::Null(t) : Value::Int64(a % b);
  }
  return Value::Null(t);
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
    default:
      ADD_FAILURE() << "oracle does not model " << e.ToString();
      return Value::Null();
  }
}

/// Kernel output for every row must equal the oracle's value.
void ExpectMatchesOracle(const ExprPtr& e, const Chunk& chunk) {
  ColumnVector out;
  ASSERT_TRUE(e->Evaluate(chunk, &out).ok()) << e->ToString();
  ASSERT_EQ(out.size(), chunk.num_rows()) << e->ToString();
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    Value want = OracleEval(*e, chunk, r);
    Value got = out.GetValue(r);
    ASSERT_EQ(want.is_null(), got.is_null())
        << e->ToString() << " row " << r << ": oracle=" << want.ToString()
        << " kernel=" << got.ToString();
    if (want.is_null()) continue;
    if (want.type() == TypeId::kDouble) {
      // Exact: vectorization must not change float results.
      ASSERT_EQ(want.AsDouble(), got.AsDouble())
          << e->ToString() << " row " << r;
    } else {
      ASSERT_EQ(want.Compare(got), 0)
          << e->ToString() << " row " << r << ": oracle=" << want.ToString()
          << " kernel=" << got.ToString();
    }
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
    Value want = OracleEval(*e, chunk, sel[i]);
    Value have = got.GetValue(i);
    ASSERT_EQ(want.is_null(), have.is_null()) << e->ToString() << " #" << i;
    if (!want.is_null()) {
      ASSERT_EQ(want.Compare(have), 0)
          << e->ToString() << " #" << i << ": oracle=" << want.ToString()
          << " kernel=" << have.ToString();
    }
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
