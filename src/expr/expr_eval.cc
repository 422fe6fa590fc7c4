#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "expr/expr.h"

// Vectorized expression kernels. The design (DESIGN.md "Vectorized
// expressions"):
//
//  * Operands are *bound*, not copied: a column ref borrows the chunk
//    column and the context's selection vector, a literal becomes a
//    one-physical-row constant vector, anything else is materialized
//    dense by recursing into EvalBatch.
//  * Kernels dispatch once per batch on (type class, operator) and run
//    branch-minimized loops over raw arrays. The per-row indirection
//    branches (selection? constant?) are loop-invariant, so the
//    compiler unswitches them.
//  * NULLs are handled by writing validity and payload unconditionally:
//    null rows get payload 0 / "" exactly like AppendNull would, so
//    results are byte-identical to the row-at-a-time evaluator.

namespace agora {

namespace {

void CountBatch(const EvalContext& ctx, size_t n) {
  if (ctx.counters == nullptr) return;
  ctx.counters->rows_evaluated += static_cast<int64_t>(n);
  if (ctx.sel != nullptr && n < ctx.chunk->num_rows()) {
    ctx.counters->sel_hits++;
  }
}

/// One bound operand of a batch kernel: a borrowed (or materialized)
/// vector plus the row indirection needed to read it.
struct Operand {
  ColumnVector storage;  // owns the result when materialized
  const ColumnVector* vec = nullptr;
  const uint32_t* sel = nullptr;  // chunk-row indirection, or nullptr
  bool constant = false;
  bool const_null = false;
};

Status BindOperand(const Expr& expr, const EvalContext& ctx, Operand* op) {
  if (expr.kind() == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(expr);
    if (ref.index() >= ctx.chunk->num_columns()) {
      return Status::Internal("column ref #" + std::to_string(ref.index()) +
                              " out of range (chunk has " +
                              std::to_string(ctx.chunk->num_columns()) +
                              " columns)");
    }
    op->vec = &ctx.chunk->column(ref.index());
    op->sel = ctx.sel != nullptr ? ctx.sel->data() : nullptr;
  } else {
    AGORA_RETURN_IF_ERROR(expr.EvalBatch(ctx, &op->storage));
    op->vec = &op->storage;
    op->sel = nullptr;
  }
  if (op->vec->is_constant()) {
    op->constant = true;
    op->sel = nullptr;
    op->const_null = op->vec->IsNull(0);
  }
  return Status::OK();
}

// Readers fetch one operand's row values through the operand's
// indirection. All branches are loop-invariant. The per-row accessors
// are forced inline: they sit in every kernel's inner loop, and GCC's
// size heuristics otherwise outline them once enough kernels use a
// reader, turning each row into a call.
#define AGORA_ROW_ACCESSOR [[gnu::always_inline]] inline

struct IntReader {
  const uint8_t* validity = nullptr;
  const int64_t* data = nullptr;
  const uint32_t* sel = nullptr;
  bool constant = false;
  bool const_null = false;
  int64_t const_val = 0;

  explicit IntReader(const Operand& op) : constant(op.constant) {
    if (constant) {
      const_null = op.const_null;
      const_val = const_null ? 0 : op.vec->GetInt64(0);
    } else {
      validity = op.vec->validity_data();
      data = op.vec->int64_data();
      sel = op.sel;
    }
  }
  AGORA_ROW_ACCESSOR size_t Idx(size_t i) const {
    return sel != nullptr ? sel[i] : i;
  }
  AGORA_ROW_ACCESSOR bool Null(size_t i) const {
    return constant ? const_null : validity[Idx(i)] == 0;
  }
  AGORA_ROW_ACCESSOR int64_t Get(size_t i) const {
    return constant ? const_val : data[Idx(i)];
  }
};

struct NumReader {
  const uint8_t* validity = nullptr;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint32_t* sel = nullptr;
  bool is_double = false;
  bool constant = false;
  bool const_null = false;
  double const_val = 0;

  explicit NumReader(const Operand& op) : constant(op.constant) {
    is_double = op.vec->type() == TypeId::kDouble;
    if (constant) {
      const_null = op.const_null;
      const_val = const_null ? 0 : op.vec->GetNumeric(0);
    } else {
      validity = op.vec->validity_data();
      if (is_double) {
        doubles = op.vec->double_data();
      } else {
        ints = op.vec->int64_data();
      }
      sel = op.sel;
    }
  }
  AGORA_ROW_ACCESSOR size_t Idx(size_t i) const {
    return sel != nullptr ? sel[i] : i;
  }
  AGORA_ROW_ACCESSOR bool Null(size_t i) const {
    return constant ? const_null : validity[Idx(i)] == 0;
  }
  AGORA_ROW_ACCESSOR double Get(size_t i) const {
    if (constant) return const_val;
    size_t p = Idx(i);
    return is_double ? doubles[p] : static_cast<double>(ints[p]);
  }
};

/// Reads flat strings, or a dictionary column's entries through its
/// codes (row i is data[codes[Idx(i)]]).
struct StrReader {
  const uint8_t* validity = nullptr;
  const std::string* data = nullptr;  // flat strings or dictionary entries
  const uint32_t* codes = nullptr;    // dictionary form only
  const uint32_t* sel = nullptr;
  bool constant = false;
  bool const_null = false;
  const std::string* const_val = nullptr;

  explicit StrReader(const Operand& op) : constant(op.constant) {
    if (constant) {
      const_null = op.const_null;
      const_val = const_null ? nullptr : &op.vec->GetString(0);
    } else {
      validity = op.vec->validity_data();
      if (op.vec->is_dictionary()) {
        data = op.vec->dictionary().entries().data();
        codes = op.vec->codes_data();
      } else {
        data = op.vec->string_data().data();
      }
      sel = op.sel;
    }
  }
  /// Reads `strings` row by row, with `valid` as validity.
  StrReader(const std::string* strings, const uint8_t* valid)
      : validity(valid), data(strings) {}

  AGORA_ROW_ACCESSOR size_t Idx(size_t i) const {
    return sel != nullptr ? sel[i] : i;
  }
  AGORA_ROW_ACCESSOR bool Null(size_t i) const {
    return constant ? const_null : validity[Idx(i)] == 0;
  }
  AGORA_ROW_ACCESSOR const std::string& Get(size_t i) const {
    if (constant) return *const_val;
    size_t p = Idx(i);
    return data[codes != nullptr ? codes[p] : p];
  }
};

/// Dictionary path of a string predicate. When `op` is a dictionary
/// column and the batch has at least as many rows as the dictionary has
/// entries, runs `entry_kernel(entries, k, ov, ob)` once over the k
/// entries (a StrReader with every entry valid) and maps the answers
/// over the rows' codes; a NULL row stays NULL. Returns false, writing
/// nothing, when the per-row kernel should run instead.
template <typename EntryKernel>
bool EvalOverDictionary(const Operand& op, size_t n, uint8_t* ov,
                        int64_t* ob, const EntryKernel& entry_kernel) {
  if (op.constant || !op.vec->is_dictionary()) return false;
  const Dictionary& dict = op.vec->dictionary();
  const size_t k = dict.size();
  if (n < k) return false;
  // One spare slot so the code of a NULL row (0) always indexes safely.
  std::vector<uint8_t> all_valid(k + 1, 1);
  std::vector<uint8_t> entry_ov(k + 1, 0);
  std::vector<int64_t> entry_ob(k + 1, 0);
  StrReader entries(dict.entries().data(), all_valid.data());
  entry_kernel(entries, k, entry_ov.data(), entry_ob.data());
  const uint8_t* validity = op.vec->validity_data();
  const uint32_t* codes = op.vec->codes_data();
  for (size_t i = 0; i < n; ++i) {
    const size_t p = op.sel != nullptr ? op.sel[i] : i;
    const bool valid = validity[p] != 0;
    const uint32_t code = valid ? codes[p] : 0;
    ov[i] = valid ? entry_ov[code] : 0;
    ob[i] = valid ? entry_ob[code] : 0;
  }
  return true;
}

// Comparison functors reproduce the legacy three-way semantics exactly:
// cmp = a < b ? -1 : (a > b ? 1 : 0), so a NaN operand compares "equal"
// to everything. Every op is therefore spelled via operator< only.
struct CmpEq {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return !(a < b) && !(b < a);
  }
};
struct CmpNe {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return (a < b) || (b < a);
  }
};
struct CmpLt {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a < b;
  }
};
struct CmpLe {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return !(b < a);
  }
};
struct CmpGt {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return b < a;
  }
};
struct CmpGe {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return !(a < b);
  }
};

/// Numeric comparison: payload reads are safe on null rows (they hold
/// 0), so validity and result are computed without per-row branches.
template <typename Cmp, typename Reader>
void CompareLoopNum(const Reader& l, const Reader& r, size_t n, uint8_t* ov,
                    int64_t* ob) {
  Cmp cmp;
  for (size_t i = 0; i < n; ++i) {
    bool valid = !l.Null(i) & !r.Null(i);
    bool res = cmp(l.Get(i), r.Get(i));
    ov[i] = valid ? 1 : 0;
    ob[i] = (valid & res) ? 1 : 0;
  }
}

/// String comparison: a constant-null operand has no payload to read,
/// so the compare is guarded by validity.
template <typename Cmp>
void CompareLoopStr(const StrReader& l, const StrReader& r, size_t n,
                    uint8_t* ov, int64_t* ob) {
  Cmp cmp;
  for (size_t i = 0; i < n; ++i) {
    bool valid = !l.Null(i) && !r.Null(i);
    ov[i] = valid ? 1 : 0;
    ob[i] = (valid && cmp(l.Get(i), r.Get(i))) ? 1 : 0;
  }
}

template <typename Reader>
void DispatchCompareNum(CompareOp op, const Reader& l, const Reader& r,
                        size_t n, uint8_t* ov, int64_t* ob) {
  switch (op) {
    case CompareOp::kEq:
      CompareLoopNum<CmpEq>(l, r, n, ov, ob);
      break;
    case CompareOp::kNe:
      CompareLoopNum<CmpNe>(l, r, n, ov, ob);
      break;
    case CompareOp::kLt:
      CompareLoopNum<CmpLt>(l, r, n, ov, ob);
      break;
    case CompareOp::kLe:
      CompareLoopNum<CmpLe>(l, r, n, ov, ob);
      break;
    case CompareOp::kGt:
      CompareLoopNum<CmpGt>(l, r, n, ov, ob);
      break;
    case CompareOp::kGe:
      CompareLoopNum<CmpGe>(l, r, n, ov, ob);
      break;
  }
}

void DispatchCompareStr(CompareOp op, const StrReader& l, const StrReader& r,
                        size_t n, uint8_t* ov, int64_t* ob) {
  switch (op) {
    case CompareOp::kEq:
      CompareLoopStr<CmpEq>(l, r, n, ov, ob);
      break;
    case CompareOp::kNe:
      CompareLoopStr<CmpNe>(l, r, n, ov, ob);
      break;
    case CompareOp::kLt:
      CompareLoopStr<CmpLt>(l, r, n, ov, ob);
      break;
    case CompareOp::kLe:
      CompareLoopStr<CmpLe>(l, r, n, ov, ob);
      break;
    case CompareOp::kGt:
      CompareLoopStr<CmpGt>(l, r, n, ov, ob);
      break;
    case CompareOp::kGe:
      CompareLoopStr<CmpGe>(l, r, n, ov, ob);
      break;
  }
}

/// Arithmetic loop: `fn(a, b, &res)` computes one value and returns
/// false to signal NULL (division by zero).
template <typename Reader, typename T, typename Fn>
void ArithLoop(const Reader& l, const Reader& r, size_t n, uint8_t* ov,
               T* od, Fn fn) {
  for (size_t i = 0; i < n; ++i) {
    T res = 0;
    bool valid = !l.Null(i) & !r.Null(i);
    valid = valid && fn(l.Get(i), r.Get(i), &res);
    ov[i] = valid ? 1 : 0;
    od[i] = valid ? res : T(0);
  }
}

template <typename Reader, typename T>
void DispatchArith(ArithOp op, const Reader& l, const Reader& r, size_t n,
                   uint8_t* ov, T* od) {
  switch (op) {
    case ArithOp::kAdd:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        *res = a + b;
        return true;
      });
      break;
    case ArithOp::kSub:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        *res = a - b;
        return true;
      });
      break;
    case ArithOp::kMul:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        *res = a * b;
        return true;
      });
      break;
    case ArithOp::kDiv:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        if (b == 0) return false;
        *res = a / b;
        return true;
      });
      break;
    case ArithOp::kMod:
      ArithLoop(l, r, n, ov, od, [](T a, T b, T* res) {
        if (b == 0) return false;
        if constexpr (std::is_same_v<T, double>) {
          *res = std::fmod(a, b);
        } else {
          *res = a % b;
        }
        return true;
      });
      break;
  }
}

/// Writes a one-physical-row kernel answer as an `n`-row constant.
ColumnVector BoolConstant(uint8_t ov, int64_t ob, size_t n) {
  Value v = ov != 0 ? Value::Bool(ob != 0) : Value::Null(TypeId::kBool);
  return ColumnVector::MakeConstant(TypeId::kBool, v, n);
}

/// Runs `kernel(k, ov, ob)` over the operand's rows: once into a
/// constant result for a constant operand, else into a fresh BOOLEAN
/// vector of `n` rows.
template <typename Kernel>
void EvalBoolKernel(const Operand& c, size_t n, ColumnVector* out,
                    const Kernel& kernel) {
  if (c.constant) {
    uint8_t ov = 0;
    int64_t ob = 0;
    kernel(1, &ov, &ob);
    *out = BoolConstant(ov, ob, n);
    return;
  }
  *out = ColumnVector(TypeId::kBool);
  out->ResizeForOverwrite(n);
  kernel(n, out->mutable_validity_data(), out->mutable_int64_data());
}

/// IN-list membership over one operand's rows with Value::Compare
/// semantics: `found(v)` tests a non-NULL row against the candidates.
/// A match yields !negated; no match yields NULL when the list holds a
/// NULL, else `negated`; a NULL row yields NULL.
template <typename Reader, typename Found>
void InListLoop(const Reader& r, size_t k, bool has_null, bool negated,
                const Found& found, uint8_t* ov, int64_t* ob) {
  for (size_t i = 0; i < k; ++i) {
    if (r.Null(i)) {
      ov[i] = 0;
      ob[i] = 0;
      continue;
    }
    const bool hit = found(r.Get(i));
    const bool valid = hit || !has_null;
    ov[i] = valid ? 1 : 0;
    ob[i] = (valid && hit != negated) ? 1 : 0;
  }
}

/// Numeric equality as Value::Compare decides it (NaN equals anything).
bool NumEqual(double a, double b) { return !(a < b) && !(a > b); }

}  // namespace

Status Expr::Evaluate(const Chunk& chunk, ColumnVector* out) const {
  EvalContext ctx;
  ctx.chunk = &chunk;
  AGORA_RETURN_IF_ERROR(EvalBatch(ctx, out));
  out->FlattenConstant();
  return Status::OK();
}

Status ColumnRefExpr::EvalBatch(const EvalContext& ctx,
                                ColumnVector* out) const {
  if (index_ >= ctx.chunk->num_columns()) {
    return Status::Internal("column ref #" + std::to_string(index_) +
                            " out of range (chunk has " +
                            std::to_string(ctx.chunk->num_columns()) +
                            " columns)");
  }
  const ColumnVector& col = ctx.chunk->column(index_);
  if (ctx.sel == nullptr) {
    *out = col;  // shared buffer, O(1)
    return Status::OK();
  }
  *out = col.Gather(*ctx.sel);
  return Status::OK();
}

Status LiteralExpr::EvalBatch(const EvalContext& ctx,
                              ColumnVector* out) const {
  TypeId type =
      value_.type() == TypeId::kInvalid ? TypeId::kBool : value_.type();
  *out = ColumnVector::MakeConstant(type, value_, ctx.NumRows());
  return Status::OK();
}

Status ComparisonExpr::EvalBatch(const EvalContext& ctx,
                                 ColumnVector* out) const {
  Operand l, r;
  AGORA_RETURN_IF_ERROR(BindOperand(*left_, ctx, &l));
  AGORA_RETURN_IF_ERROR(BindOperand(*right_, ctx, &r));
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);

  bool l_str = l.vec->type() == TypeId::kString;
  bool r_str = r.vec->type() == TypeId::kString;
  if (l_str != r_str) {
    return Status::TypeError(
        "cannot compare " + std::string(TypeIdToString(l.vec->type())) +
        " with " + std::string(TypeIdToString(r.vec->type())));
  }

  auto run = [&](size_t k, uint8_t* ov, int64_t* ob) {
    if (l_str) {
      // A dictionary column against a constant compares each entry once.
      if (r.constant &&
          EvalOverDictionary(l, k, ov, ob,
                             [&](const StrReader& entries, size_t m,
                                 uint8_t* eov, int64_t* eob) {
                               DispatchCompareStr(op_, entries, StrReader(r),
                                                  m, eov, eob);
                             })) {
        return;
      }
      if (l.constant &&
          EvalOverDictionary(r, k, ov, ob,
                             [&](const StrReader& entries, size_t m,
                                 uint8_t* eov, int64_t* eob) {
                               DispatchCompareStr(op_, StrReader(l), entries,
                                                  m, eov, eob);
                             })) {
        return;
      }
      StrReader lr(l), rr(r);
      DispatchCompareStr(op_, lr, rr, k, ov, ob);
    } else if (l.vec->type() == TypeId::kDouble ||
               r.vec->type() == TypeId::kDouble) {
      NumReader lr(l), rr(r);
      DispatchCompareNum(op_, lr, rr, k, ov, ob);
    } else {
      IntReader lr(l), rr(r);
      DispatchCompareNum(op_, lr, rr, k, ov, ob);
    }
  };

  if (l.constant && r.constant) {
    uint8_t ov = 0;
    int64_t ob = 0;
    run(1, &ov, &ob);
    *out = BoolConstant(ov, ob, n);
    return Status::OK();
  }

  *out = ColumnVector(TypeId::kBool);
  out->ResizeForOverwrite(n);
  run(n, out->mutable_validity_data(), out->mutable_int64_data());
  return Status::OK();
}

Status ArithmeticExpr::EvalBatch(const EvalContext& ctx,
                                 ColumnVector* out) const {
  Operand l, r;
  AGORA_RETURN_IF_ERROR(BindOperand(*left_, ctx, &l));
  AGORA_RETURN_IF_ERROR(BindOperand(*right_, ctx, &r));
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);

  if (!IsNumeric(l.vec->type()) || !IsNumeric(r.vec->type())) {
    return Status::TypeError(
        "arithmetic requires numeric operands, got " +
        std::string(TypeIdToString(l.vec->type())) + " and " +
        std::string(TypeIdToString(r.vec->type())));
  }

  auto run = [&](size_t k, ColumnVector* res) {
    *res = ColumnVector(result_type_);
    res->ResizeForOverwrite(k);
    uint8_t* ov = res->mutable_validity_data();
    if (result_type_ == TypeId::kDouble) {
      NumReader lr(l), rr(r);
      DispatchArith(op_, lr, rr, k, ov, res->mutable_double_data());
    } else {
      IntReader lr(l), rr(r);
      DispatchArith(op_, lr, rr, k, ov, res->mutable_int64_data());
    }
  };

  if (l.constant && r.constant) {
    ColumnVector one;
    run(1, &one);
    // agora-lint: allow(expr-per-row-value) one-row constant fold, not a row loop
    *out = ColumnVector::MakeConstant(result_type_, one.GetValue(0), n);
    return Status::OK();
  }

  run(n, out);
  return Status::OK();
}

Status LogicalExpr::EvalBatch(const EvalContext& ctx,
                              ColumnVector* out) const {
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  // Kleene state per row: 0 = false, 1 = true, 2 = null.
  std::vector<uint8_t> state(
      n, op_ == LogicalOp::kAnd ? uint8_t{1} : uint8_t{0});
  bool is_and = op_ == LogicalOp::kAnd;
  auto merge = [is_and](uint8_t* slot, uint8_t v) {
    if (is_and) {
      // false dominates; null beats true.
      if (*slot == 0) return;
      if (v == 0) {
        *slot = 0;
      } else if (v == 2) {
        *slot = 2;
      }
    } else {
      // true dominates; null beats false.
      if (*slot == 1) return;
      if (v == 1) {
        *slot = 1;
      } else if (v == 2) {
        *slot = 2;
      }
    }
  };
  for (const ExprPtr& child : children_) {
    ColumnVector c;
    AGORA_RETURN_IF_ERROR(child->EvalBatch(ctx, &c));
    if (c.type() != TypeId::kBool) {
      return Status::TypeError("logical operand is not BOOLEAN: " +
                               child->ToString());
    }
    if (c.is_constant()) {
      uint8_t v = c.IsNull(0) ? 2 : (c.GetBool(0) ? 1 : 0);
      for (size_t i = 0; i < n; ++i) merge(&state[i], v);
    } else {
      const uint8_t* cv = c.validity_data();
      const int64_t* cb = c.int64_data();
      for (size_t i = 0; i < n; ++i) {
        uint8_t v = cv[i] == 0 ? 2 : (cb[i] != 0 ? 1 : 0);
        merge(&state[i], v);
      }
    }
  }
  *out = ColumnVector(TypeId::kBool);
  out->ResizeForOverwrite(n);
  uint8_t* ov = out->mutable_validity_data();
  int64_t* ob = out->mutable_int64_data();
  for (size_t i = 0; i < n; ++i) {
    ov[i] = state[i] != 2 ? 1 : 0;
    ob[i] = state[i] == 1 ? 1 : 0;
  }
  return Status::OK();
}

Status NotExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  ColumnVector c;
  AGORA_RETURN_IF_ERROR(child_->EvalBatch(ctx, &c));
  if (c.type() != TypeId::kBool) {
    return Status::TypeError("NOT operand is not BOOLEAN");
  }
  size_t n = c.size();
  CountBatch(ctx, n);
  if (c.is_constant()) {
    Value v =
        c.IsNull(0) ? Value::Null(TypeId::kBool) : Value::Bool(!c.GetBool(0));
    *out = ColumnVector::MakeConstant(TypeId::kBool, v, n);
    return Status::OK();
  }
  const uint8_t* cv = c.validity_data();
  const int64_t* cb = c.int64_data();
  *out = ColumnVector(TypeId::kBool);
  out->ResizeForOverwrite(n);
  uint8_t* ov = out->mutable_validity_data();
  int64_t* ob = out->mutable_int64_data();
  for (size_t i = 0; i < n; ++i) {
    bool valid = cv[i] != 0;
    ov[i] = valid ? 1 : 0;
    ob[i] = (valid & (cb[i] == 0)) ? 1 : 0;
  }
  return Status::OK();
}

Status IsNullExpr::EvalBatch(const EvalContext& ctx,
                             ColumnVector* out) const {
  ColumnVector c;
  AGORA_RETURN_IF_ERROR(child_->EvalBatch(ctx, &c));
  size_t n = c.size();
  CountBatch(ctx, n);
  if (c.is_constant()) {
    bool is_null = c.IsNull(0);
    *out = ColumnVector::MakeConstant(
        TypeId::kBool, Value::Bool(negated_ ? !is_null : is_null), n);
    return Status::OK();
  }
  const uint8_t* cv = c.validity_data();
  *out = ColumnVector(TypeId::kBool);
  out->ResizeForOverwrite(n);
  uint8_t* ov = out->mutable_validity_data();
  int64_t* ob = out->mutable_int64_data();
  for (size_t i = 0; i < n; ++i) {
    bool is_null = cv[i] == 0;
    ov[i] = 1;
    ob[i] = (negated_ ? !is_null : is_null) ? 1 : 0;
  }
  return Status::OK();
}

Status LikeExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*child_, ctx, &c));
  if (c.vec->type() != TypeId::kString) {
    return Status::TypeError("LIKE operand is not VARCHAR");
  }
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  auto like = [this](const StrReader& s, size_t k, uint8_t* ov,
                     int64_t* ob) {
    for (size_t i = 0; i < k; ++i) {
      bool valid = !s.Null(i);
      ov[i] = valid ? 1 : 0;
      bool m = valid && LikeMatch(s.Get(i), pattern_);
      ob[i] = (valid && (negated_ ? !m : m)) ? 1 : 0;
    }
  };
  EvalBoolKernel(c, n, out, [&](size_t k, uint8_t* ov, int64_t* ob) {
    if (!EvalOverDictionary(c, k, ov, ob, like)) like(StrReader(c), k, ov, ob);
  });
  return Status::OK();
}

InListExpr::Candidates InListExpr::PrepareCandidates(
    const std::vector<Value>& values) {
  Candidates out;
  for (const Value& v : values) {
    if (v.is_null()) {
      out.has_null = true;
    } else if (v.type() == TypeId::kString) {
      out.strings.push_back(v.string_value());
    } else if (v.type() == TypeId::kDouble) {
      out.doubles.push_back(v.double_value());
    } else {
      out.ints.push_back(v.int64_value());
    }
  }
  return out;
}

Status InListExpr::EvalBatch(const EvalContext& ctx,
                             ColumnVector* out) const {
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*child_, ctx, &c));
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  if (c.constant && n == 0) {
    *out = ColumnVector(TypeId::kBool);
    return Status::OK();
  }
  const Candidates& cand = candidates_;
  auto str_kernel = [&](const StrReader& s, size_t k, uint8_t* ov,
                        int64_t* ob) {
    InListLoop(s, k, cand.has_null, negated_,
               [&](const std::string& v) {
                 return std::find(cand.strings.begin(), cand.strings.end(),
                                  v) != cand.strings.end();
               },
               ov, ob);
  };
  const TypeId type = c.vec->type();
  EvalBoolKernel(c, n, out, [&](size_t k, uint8_t* ov, int64_t* ob) {
    if (type == TypeId::kString) {
      if (!EvalOverDictionary(c, k, ov, ob, str_kernel)) {
        str_kernel(StrReader(c), k, ov, ob);
      }
    } else if (type == TypeId::kDouble) {
      InListLoop(NumReader(c), k, cand.has_null, negated_,
                 [&](double v) {
                   for (int64_t x : cand.ints) {
                     if (NumEqual(v, static_cast<double>(x))) return true;
                   }
                   for (double x : cand.doubles) {
                     if (NumEqual(v, x)) return true;
                   }
                   return false;
                 },
                 ov, ob);
    } else {
      InListLoop(IntReader(c), k, cand.has_null, negated_,
                 [&](int64_t v) {
                   for (int64_t x : cand.ints) {
                     if (v == x) return true;
                   }
                   for (double x : cand.doubles) {
                     if (NumEqual(static_cast<double>(v), x)) return true;
                   }
                   return false;
                 },
                 ov, ob);
    }
  });
  return Status::OK();
}

Status CastExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  ColumnVector c;
  AGORA_RETURN_IF_ERROR(child_->EvalBatch(ctx, &c));
  size_t n = c.size();
  CountBatch(ctx, n);
  if (c.is_constant() && n == 0) {
    *out = ColumnVector(result_type_);
    return Status::OK();
  }
  size_t rows = c.is_constant() ? 1 : n;
  ColumnVector result(result_type_);
  result.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (c.IsNull(i)) {
      result.AppendNull();
      continue;
    }
    // Casts go through the boxed Value conversion table; they are rare
    // on hot paths (the planner folds constant casts).
    // agora-lint: allow(expr-per-row-value) boxed cast conversion path
    auto v = c.GetValue(i).CastTo(result_type_);
    if (!v.ok()) return v.status();
    // agora-lint: allow(expr-per-row-value) boxed cast conversion path
    result.AppendValue(*v);
  }
  if (c.is_constant()) {
    // agora-lint: allow(expr-per-row-value) one-row constant fold, not a row loop
    *out = ColumnVector::MakeConstant(result_type_, result.GetValue(0), n);
  } else {
    *out = std::move(result);
  }
  return Status::OK();
}

Status FunctionExpr::EvalBatch(const EvalContext& ctx,
                               ColumnVector* out) const {
  ColumnVector c;
  AGORA_RETURN_IF_ERROR(arg_->EvalBatch(ctx, &c));
  size_t n = c.size();
  CountBatch(ctx, n);
  if (c.is_constant() && n == 0) {
    *out = ColumnVector(result_type_);
    return Status::OK();
  }
  size_t rows = c.is_constant() ? 1 : n;
  ColumnVector result(result_type_);
  result.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (c.IsNull(i)) {
      result.AppendNull();
      continue;
    }
    switch (func_) {
      case ScalarFunc::kAbs:
        if (result_type_ == TypeId::kDouble) {
          result.AppendDouble(std::fabs(c.GetDouble(i)));
        } else {
          int64_t v = c.GetInt64(i);
          result.AppendInt64(v < 0 ? -v : v);
        }
        break;
      case ScalarFunc::kLower:
        result.AppendString(ToLower(c.GetString(i)));
        break;
      case ScalarFunc::kUpper:
        result.AppendString(ToUpper(c.GetString(i)));
        break;
      case ScalarFunc::kLength:
        result.AppendInt64(static_cast<int64_t>(c.GetString(i).size()));
        break;
      case ScalarFunc::kYear:
        result.AppendInt64(YearOfDate(c.GetInt64(i)));
        break;
      case ScalarFunc::kMonth:
        result.AppendInt64(MonthOfDate(c.GetInt64(i)));
        break;
      case ScalarFunc::kSqrt: {
        double v = c.GetNumeric(i);
        if (v < 0) {
          result.AppendNull();
        } else {
          result.AppendDouble(std::sqrt(v));
        }
        break;
      }
      case ScalarFunc::kFloor:
        result.AppendDouble(std::floor(c.GetNumeric(i)));
        break;
      case ScalarFunc::kCeil:
        result.AppendDouble(std::ceil(c.GetNumeric(i)));
        break;
    }
  }
  if (c.is_constant()) {
    // agora-lint: allow(expr-per-row-value) one-row constant fold, not a row loop
    *out = ColumnVector::MakeConstant(result_type_, result.GetValue(0), n);
  } else {
    *out = std::move(result);
  }
  return Status::OK();
}

Status CaseExpr::EvalBatch(const EvalContext& ctx, ColumnVector* out) const {
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  std::vector<ColumnVector> conds(conditions_.size());
  std::vector<ColumnVector> results(results_.size());
  for (size_t b = 0; b < conditions_.size(); ++b) {
    AGORA_RETURN_IF_ERROR(conditions_[b]->EvalBatch(ctx, &conds[b]));
    AGORA_RETURN_IF_ERROR(results_[b]->EvalBatch(ctx, &results[b]));
  }
  ColumnVector else_col;
  if (else_result_ != nullptr) {
    AGORA_RETURN_IF_ERROR(else_result_->EvalBatch(ctx, &else_col));
  }
  *out = ColumnVector(result_type_);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bool matched = false;
    for (size_t b = 0; b < conds.size(); ++b) {
      if (!conds[b].IsNull(i) && conds[b].GetBool(i)) {
        out->AppendFrom(results[b], i);
        matched = true;
        break;
      }
    }
    if (!matched) {
      if (else_result_ != nullptr) {
        out->AppendFrom(else_col, i);
      } else {
        out->AppendNull();
      }
    }
  }
  return Status::OK();
}

namespace {

Status RefineImpl(const Expr& pred, const Chunk& chunk, Selection* sel,
                  ExprCounters* counters, bool nested) {
  size_t chunk_rows = chunk.num_rows();
  if (pred.kind() == ExprKind::kLogical) {
    const auto& logical = static_cast<const LogicalExpr&>(pred);
    if (logical.op() == LogicalOp::kAnd) {
      // Short-circuit by iterative refinement: each conjunct sees only
      // the rows its predecessors kept.
      for (const ExprPtr& child : logical.children()) {
        AGORA_RETURN_IF_ERROR(
            RefineImpl(*child, chunk, sel, counters, /*nested=*/true));
      }
      return Status::OK();
    }
    // OR: union of per-child acceptances; each child is evaluated only
    // over rows no earlier child accepted. Kleene NULL behaves as
    // reject, which matches filter semantics (keep only TRUE).
    std::vector<uint32_t> remaining;
    if (sel->all) {
      remaining.resize(chunk_rows);
      for (size_t i = 0; i < chunk_rows; ++i) {
        remaining[i] = static_cast<uint32_t>(i);
      }
    } else {
      remaining = sel->rows;
    }
    std::vector<uint32_t> accepted;
    for (const ExprPtr& child : logical.children()) {
      Selection child_sel;
      child_sel.all = false;
      child_sel.rows = remaining;
      AGORA_RETURN_IF_ERROR(
          RefineImpl(*child, chunk, &child_sel, counters, /*nested=*/true));
      if (child_sel.rows.empty()) continue;
      std::vector<uint32_t> merged;
      merged.reserve(accepted.size() + child_sel.rows.size());
      std::merge(accepted.begin(), accepted.end(), child_sel.rows.begin(),
                 child_sel.rows.end(), std::back_inserter(merged));
      accepted = std::move(merged);
      std::vector<uint32_t> rest;
      rest.reserve(remaining.size() - child_sel.rows.size());
      std::set_difference(remaining.begin(), remaining.end(),
                          child_sel.rows.begin(), child_sel.rows.end(),
                          std::back_inserter(rest));
      remaining = std::move(rest);
    }
    if (sel->all && accepted.size() == chunk_rows) return Status::OK();
    sel->all = false;
    sel->rows = std::move(accepted);
    return Status::OK();
  }

  // Generic predicate: evaluate the live rows, keep only TRUE ones.
  EvalContext ctx;
  ctx.chunk = &chunk;
  ctx.sel = sel->all ? nullptr : &sel->rows;
  ctx.counters = counters;
  ColumnVector mask;
  AGORA_RETURN_IF_ERROR(pred.EvalBatch(ctx, &mask));
  if (mask.type() != TypeId::kBool) {
    if (nested) {
      return Status::TypeError("logical operand is not BOOLEAN: " +
                               pred.ToString());
    }
    return Status::TypeError("filter predicate is not BOOLEAN");
  }
  size_t n = ctx.NumRows();
  if (mask.is_constant()) {
    if (n == 0) return Status::OK();
    if (!mask.IsNull(0) && mask.GetBool(0)) return Status::OK();  // all pass
    sel->all = false;
    sel->rows.clear();
    return Status::OK();
  }
  const uint8_t* mv = mask.validity_data();
  const int64_t* mb = mask.int64_data();
  if (sel->all) {
    sel->rows.clear();
    sel->rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (mv[i] != 0 && mb[i] != 0) {
        sel->rows.push_back(static_cast<uint32_t>(i));
      }
    }
    if (sel->rows.size() == n) {
      sel->rows.clear();  // everything passed; stay in "all" form
      return Status::OK();
    }
    sel->all = false;
  } else {
    size_t k = 0;
    for (size_t i = 0; i < sel->rows.size(); ++i) {
      if (mv[i] != 0 && mb[i] != 0) sel->rows[k++] = sel->rows[i];
    }
    sel->rows.resize(k);
  }
  return Status::OK();
}

}  // namespace

Status RefineSelection(const Expr& pred, const Chunk& chunk, Selection* sel,
                       ExprCounters* counters) {
  return RefineImpl(pred, chunk, sel, counters, /*nested=*/false);
}

}  // namespace agora
