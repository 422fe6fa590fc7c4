#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/string_util.h"
#include "expr/expr.h"

// Vectorized expression kernels. The design (DESIGN.md "Vectorized
// expressions"):
//
//  * Operands are *bound*, not copied: a column ref borrows the chunk
//    column and the context's selection vector, a literal is read
//    straight from the LiteralExpr (already converted to the kernel's
//    value type), anything else is materialized dense by recursing into
//    EvalBatch.
//  * Numeric kernels dispatch once per batch on operand shape: each loop
//    is instantiated per (left, right) reader pair, where a reader is a
//    constant, a flat array, or a flat array under a selection, and an
//    int64 array read as double is a reader of its own. The per-row code
//    is therefore one array read per operand and no branch. (A per-row
//    "constant? selection? double?" branch, even a loop-invariant one,
//    is not unswitched by the compiler; it cost ~3.8 ns per row per
//    arithmetic operator.)
//  * Validity is a separate pass: when no operand has a NULL row in the
//    batch it is one memset, otherwise one AND of the operands' validity
//    bytes, followed by a pass that zeroes the payload of NULL rows so
//    they carry payload 0 exactly like AppendNull would.
//  * As a filter, a comparison or a string IN list writes a keep-mask
//    instead of a BOOLEAN vector (Expr::EvalFilter), and RefineSelection
//    compacts the selection by it in place; other predicates are read
//    off their BOOLEAN vector.
//  * A string predicate on a dictionary column (compared with a
//    constant, IN, LIKE) runs once per entry when the batch has at least
//    as many rows as the dictionary has entries, and the answers are
//    mapped through the rows' codes: as a filter, one branch-free byte
//    lookup per row. Smaller batches, and columns decoded to flat form
//    past kMaxDictionaryEntries, compare row by row.
//  * BIGINT overflow fails with OutOfRange, but only on rows the context
//    marks live (EvalContext::live), so a CASE branch that a row does not
//    take never fails on that row.

namespace agora {

namespace {

/// True when some of the context's n rows is live.
bool AnyLive(const EvalContext& ctx, size_t n) {
  if (ctx.live == nullptr) return n != 0;
  return std::find(ctx.live, ctx.live + n, 1) != ctx.live + n;
}

void CountBatch(const EvalContext& ctx, size_t n) {
  if (ctx.counters == nullptr) return;
  ctx.counters->rows_evaluated += static_cast<int64_t>(n);
  if (ctx.sel != nullptr && n < ctx.chunk->num_rows()) {
    ctx.counters->sel_hits++;
  }
}

/// One bound operand of a batch kernel: a borrowed (or materialized)
/// vector plus the row indirection needed to read it, or a constant.
struct Operand {
  ColumnVector storage;  // owns the result when materialized
  const ColumnVector* vec = nullptr;  // flat rows; the constant's vector
  const uint32_t* sel = nullptr;      // chunk-row indirection, or nullptr
  TypeId type = TypeId::kInvalid;
  bool constant = false;
  bool const_null = false;
  // The constant's payload (constant operands only).
  int64_t const_int = 0;
  double const_double = 0;
  const std::string* const_string = nullptr;

  size_t Row(size_t i) const { return sel != nullptr ? sel[i] : i; }

  /// The constant as the kernel's value type (an int64 promotes to
  /// double exactly like a flat int64 operand does).
  template <typename T>
  T ConstAs() const {
    if constexpr (std::is_same_v<T, double>) {
      return type == TypeId::kDouble ? const_double
                                     : static_cast<double>(const_int);
    } else {
      return const_int;
    }
  }

  void SetConstant(const Value& v) {
    constant = true;
    sel = nullptr;
    const_null = v.is_null();
    if (const_null) return;
    if (type == TypeId::kDouble) {
      const_double = v.double_value();
    } else if (type == TypeId::kString) {
      const_string = &v.string_value();
    } else {
      const_int = v.int64_value();
    }
  }
  /// Reads the constant from row 0 of the constant-form `vec`.
  void SetConstantFromVector() {
    constant = true;
    sel = nullptr;
    const_null = vec->IsNull(0);
    if (const_null) return;
    if (type == TypeId::kDouble) {
      const_double = vec->GetDouble(0);
    } else if (type == TypeId::kString) {
      const_string = &vec->GetString(0);
    } else {
      const_int = vec->GetInt64(0);
    }
  }
};

Status BindOperand(const Expr& expr, const EvalContext& ctx, Operand* op) {
  if (expr.kind() == ExprKind::kLiteral) {
    const Value& v = static_cast<const LiteralExpr&>(expr).value();
    // An untyped NULL literal evaluates as BOOLEAN (LiteralExpr).
    op->type = v.type() == TypeId::kInvalid ? TypeId::kBool : v.type();
    op->SetConstant(v);
    return Status::OK();
  }
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
  op->type = op->vec->type();
  if (op->vec->is_constant()) op->SetConstantFromVector();
  return Status::OK();
}

// Readers of the shape-specialized numeric kernels: row i of a constant,
// of a flat array, or of a flat array under a selection, converted to
// the kernel's value type T. The accessors are forced inline: they sit
// in every kernel's inner loop, and GCC's size heuristics otherwise
// outline them once enough kernels use a reader.
#define AGORA_ROW_ACCESSOR [[gnu::always_inline]] inline

template <typename T>
struct ConstRows {
  T value;
  AGORA_ROW_ACCESSOR T operator[](size_t) const { return value; }
};

template <typename In, typename T>
struct FlatRows {
  const In* data;
  AGORA_ROW_ACCESSOR T operator[](size_t i) const {
    return static_cast<T>(data[i]);
  }
};

template <typename In, typename T>
struct SelRows {
  const In* data;
  const uint32_t* sel;
  AGORA_ROW_ACCESSOR T operator[](size_t i) const {
    return static_cast<T>(data[sel[i]]);
  }
};

template <typename In, typename T, typename Fn>
void VisitArray(const In* data, const uint32_t* sel, const Fn& fn) {
  if (sel != nullptr) {
    fn(SelRows<In, T>{data, sel});
  } else {
    fn(FlatRows<In, T>{data});
  }
}

/// Calls `fn(rows)` with the reader of a non-NULL operand's payload as T.
template <typename T, typename Fn>
void VisitRows(const Operand& op, const Fn& fn) {
  if (op.constant) {
    fn(ConstRows<T>{op.ConstAs<T>()});
    return;
  }
  if constexpr (std::is_same_v<T, double>) {
    if (op.type == TypeId::kDouble) {
      VisitArray<double, T>(op.vec->double_data(), op.sel, fn);
      return;
    }
  }
  VisitArray<int64_t, T>(op.vec->int64_data(), op.sel, fn);
}

/// Calls `fn(left_rows, right_rows)`: one instantiation per shape pair.
template <typename T, typename Fn>
void VisitRowPair(const Operand& l, const Operand& r, const Fn& fn) {
  VisitRows<T>(l, [&](const auto& lr) {
    VisitRows<T>(r, [&](const auto& rr) { fn(lr, rr); });
  });
}

/// True when some row the operand reads is NULL. A flat operand scans
/// only the validity bytes from its first to its last row (selections
/// ascend), so a fused scan filter never scans the whole table view.
bool HasNulls(const Operand& op, size_t n) {
  if (op.constant) return op.const_null;
  if (n == 0) return false;
  const uint8_t* valid = op.vec->validity_data();
  const size_t lo = op.Row(0);
  const size_t hi = op.Row(n - 1) + 1;
  return std::memchr(valid + lo, 0, hi - lo) != nullptr;
}

/// Writes the operand's validity to ov[0..n): one memset when no row the
/// operand reads is NULL.
void OperandValidity(const Operand& op, size_t n, uint8_t* ov) {
  if (op.constant || !HasNulls(op, n)) {
    std::fill_n(ov, n, op.const_null ? 0 : 1);
    return;
  }
  VisitArray<uint8_t, uint8_t>(
      op.vec->validity_data(), op.sel, [&](const auto& valid) {
        for (size_t i = 0; i < n; ++i) ov[i] = valid[i];
      });
}

/// Writes the AND of both operands' validity to ov[0..n): one memset
/// when neither has a NULL row. Returns whether any row may be NULL.
bool CombineValidity(const Operand& l, const Operand& r, size_t n,
                     uint8_t* ov) {
  const bool l_nulls = HasNulls(l, n);
  const bool r_nulls = HasNulls(r, n);
  if (!l_nulls && !r_nulls) {
    std::fill_n(ov, n, 1);
    return false;
  }
  if ((l.constant && l_nulls) || (r.constant && r_nulls)) {
    std::fill_n(ov, n, 0);
    return true;
  }
  auto visit = [](const Operand& op, bool nulls, const auto& fn) {
    if (nulls) {
      VisitArray<uint8_t, uint8_t>(op.vec->validity_data(), op.sel, fn);
    } else {
      fn(ConstRows<uint8_t>{1});
    }
  };
  visit(l, l_nulls, [&](const auto& lv) {
    visit(r, r_nulls, [&](const auto& rv) {
      for (size_t i = 0; i < n; ++i) ov[i] = lv[i] & rv[i];
    });
  });
  return true;
}

/// Zeroes the payload of every row ov marks NULL.
template <typename T>
void ZeroNullPayload(const uint8_t* ov, size_t n, T* od) {
  for (size_t i = 0; i < n; ++i) od[i] = ov[i] != 0 ? od[i] : T(0);
}

// Comparison functors reproduce the legacy three-way semantics exactly:
// cmp = a < b ? -1 : (a > b ? 1 : 0), so a NaN operand compares "equal"
// to everything. Every op is therefore spelled via operator< only (and
// `&`/`|` rather than `&&`/`||`, so the numeric loops stay branch-free).
struct CmpEq {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return !(a < b) & !(b < a);
  }
};
struct CmpNe {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return (a < b) | (b < a);
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

/// Calls `fn(cmp)` with the functor of `op`.
template <typename Fn>
void VisitCompareOp(CompareOp op, const Fn& fn) {
  switch (op) {
    case CompareOp::kEq:
      fn(CmpEq{});
      break;
    case CompareOp::kNe:
      fn(CmpNe{});
      break;
    case CompareOp::kLt:
      fn(CmpLt{});
      break;
    case CompareOp::kLe:
      fn(CmpLe{});
      break;
    case CompareOp::kGt:
      fn(CmpGt{});
      break;
    case CompareOp::kGe:
      fn(CmpGe{});
      break;
  }
}

/// Numeric comparison of two non-NULL-constant operands, ignoring
/// validity: res[i] = cmp(l[i], r[i]) (a NULL row reads its payload).
/// Compares as double when either side is DOUBLE, else as int64.
void CompareNumRows(CompareOp op, const Operand& l, const Operand& r,
                    size_t n, uint8_t* res) {
  auto run = [&](auto zero) {
    using T = decltype(zero);
    VisitRowPair<T>(l, r, [&](const auto& lr, const auto& rr) {
      VisitCompareOp(op, [&](auto cmp) {
        // A local trip count: `res` is a byte array, which may alias
        // anything captured by reference.
        const size_t rows = n;
        for (size_t i = 0; i < rows; ++i) res[i] = cmp(lr[i], rr[i]) ? 1 : 0;
      });
    });
  };
  if (l.type == TypeId::kDouble || r.type == TypeId::kDouble) {
    run(0.0);
  } else {
    run(int64_t{0});
  }
}

/// Payload pass of one arithmetic operator over every row (a NULL row
/// reads its payload). Division and modulo by zero clear ov[i]. Returns
/// true when a row `check` marks overflows BIGINT: the int64 +, -, *
/// are checked with __builtin_*_overflow, OR-ed over the batch, and
/// INT64_MIN / -1 is caught before it can trap. INT64_MIN % -1 is 0.
template <typename T, typename L, typename R>
bool ArithRows(ArithOp op, const L& l, const R& r, size_t n, uint8_t* ov,
               const uint8_t* check, T* od) {
  constexpr bool kDouble = std::is_same_v<T, double>;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  bool overflow = false;
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < n; ++i) {
        if constexpr (kDouble) {
          od[i] = l[i] + r[i];
        } else {
          overflow |=
              __builtin_add_overflow(l[i], r[i], &od[i]) & (check[i] != 0);
        }
      }
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < n; ++i) {
        if constexpr (kDouble) {
          od[i] = l[i] - r[i];
        } else {
          overflow |=
              __builtin_sub_overflow(l[i], r[i], &od[i]) & (check[i] != 0);
        }
      }
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < n; ++i) {
        if constexpr (kDouble) {
          od[i] = l[i] * r[i];
        } else {
          overflow |=
              __builtin_mul_overflow(l[i], r[i], &od[i]) & (check[i] != 0);
        }
      }
      break;
    case ArithOp::kDiv:
      for (size_t i = 0; i < n; ++i) {
        const T a = l[i];
        const T b = r[i];
        const bool zero = b == 0;
        ov[i] &= static_cast<uint8_t>(!zero);
        if constexpr (kDouble) {
          od[i] = a / (zero ? 1.0 : b);
        } else {
          const bool min_by_neg = (a == kMin) & (b == -1);
          overflow |= min_by_neg & (check[i] != 0);
          od[i] = a / ((zero | min_by_neg) ? 1 : b);
        }
      }
      break;
    case ArithOp::kMod:
      for (size_t i = 0; i < n; ++i) {
        const T a = l[i];
        const T b = r[i];
        const bool zero = b == 0;
        ov[i] &= static_cast<uint8_t>(!zero);
        if constexpr (kDouble) {
          od[i] = std::fmod(a, zero ? 1.0 : b);
        } else {
          // x % -1 is 0 for every x, and INT64_MIN % -1 would trap.
          od[i] = a % ((zero | (b == -1)) ? 1 : b);
        }
      }
      break;
  }
  return overflow;
}

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
      const_val = op.const_string;
    } else {
      validity = op.vec->validity_data();
      if (op.vec->is_dictionary()) {
        data = op.vec->dictionary().entries().data();
        codes = op.vec->codes_data();
      } else {
        data = op.vec->string_data();
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

/// Where a string kernel writes its answers over n rows: BOOLEAN
/// validity and payload (ov, ob), or, as a filter, `keep` alone: 1 where
/// the answer is TRUE, 0 where it is FALSE or NULL.
struct BoolOut {
  uint8_t* ov = nullptr;
  int64_t* ob = nullptr;
  uint8_t* keep = nullptr;
};

/// Runs `kernel(n, ov, ob)` into `out`: straight into (ov, ob), or, as a
/// filter, into scratch arrays that then fold into `keep`.
template <typename Kernel>
void WriteRows(size_t n, const BoolOut& out, const Kernel& kernel) {
  if (out.keep == nullptr) {
    kernel(n, out.ov, out.ob);
    return;
  }
  std::vector<uint8_t> ov(n);
  std::vector<int64_t> ob(n);
  kernel(n, ov.data(), ob.data());
  for (size_t i = 0; i < n; ++i) out.keep[i] = ov[i] & (ob[i] != 0 ? 1 : 0);
}

/// Dictionary path of a string predicate. When `op` is a dictionary
/// column and the batch has at least as many rows as the dictionary has
/// entries, runs `entry_kernel(entries, k, ov, ob)` once over the k
/// entries (a StrReader with every entry valid) and maps the answers
/// over the rows' codes into `out`; a NULL row stays NULL (keeps 0).
/// Returns false, writing nothing, when the per-row kernel should run
/// instead.
template <typename EntryKernel>
bool EvalOverDictionary(const Operand& op, size_t n, const BoolOut& out,
                        const EntryKernel& entry_kernel) {
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
  if (out.keep != nullptr) {
    // One byte per code, then one branch-free lookup per row; a NULL
    // row reads code 0, whatever its payload, and keeps 0.
    std::vector<uint8_t> entry_keep(k + 1);
    for (size_t c = 0; c <= k; ++c) {
      entry_keep[c] = entry_ov[c] & (entry_ob[c] != 0 ? 1 : 0);
    }
    auto lookup = [&](auto row_of) {
      for (size_t i = 0; i < n; ++i) {
        const size_t p = row_of(i);
        out.keep[i] = validity[p] & entry_keep[codes[p] & (0u - validity[p])];
      }
    };
    if (op.sel != nullptr) {
      lookup([&](size_t i) -> size_t { return op.sel[i]; });
    } else {
      lookup([](size_t i) { return i; });
    }
    return true;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t p = op.Row(i);
    const bool valid = validity[p] != 0;
    const uint32_t code = valid ? codes[p] : 0;
    out.ov[i] = valid ? entry_ov[code] : 0;
    out.ob[i] = valid ? entry_ob[code] : 0;
  }
  return true;
}

/// String comparison: a constant-null operand has no payload to read,
/// so the compare is guarded by validity.
void CompareStrRows(CompareOp op, const StrReader& l, const StrReader& r,
                    size_t n, uint8_t* ov, int64_t* ob) {
  VisitCompareOp(op, [&](auto cmp) {
    for (size_t i = 0; i < n; ++i) {
      bool valid = !l.Null(i) && !r.Null(i);
      ov[i] = valid ? 1 : 0;
      ob[i] = (valid && cmp(l.Get(i), r.Get(i))) ? 1 : 0;
    }
  });
}

/// Writes a one-physical-row kernel answer as an `n`-row constant.
ColumnVector BoolConstant(uint8_t ov, int64_t ob, size_t n) {
  Value v = ov != 0 ? Value::Bool(ob != 0) : Value::Null(TypeId::kBool);
  return ColumnVector::MakeConstant(TypeId::kBool, v, n);
}

/// Runs `kernel(k, ov, ob)` over the rows: once into a constant result
/// when `constant`, else into a fresh BOOLEAN vector of `n` rows.
template <typename Kernel>
void EvalBoolKernel(bool constant, size_t n, ColumnVector* out,
                    const Kernel& kernel) {
  if (constant) {
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

/// Numeric equality as Value::Compare decides it (NaN equals anything).
bool NumEqual(double a, double b) { return !(a < b) && !(a > b); }

/// Binds both comparison operands and rejects a string/number mix.
Status BindCompare(const ComparisonExpr& e, const EvalContext& ctx,
                   Operand* l, Operand* r) {
  AGORA_RETURN_IF_ERROR(BindOperand(*e.left(), ctx, l));
  AGORA_RETURN_IF_ERROR(BindOperand(*e.right(), ctx, r));
  CountBatch(ctx, ctx.NumRows());
  if ((l->type == TypeId::kString) != (r->type == TypeId::kString)) {
    return Status::TypeError(
        "cannot compare " + std::string(TypeIdToString(l->type)) + " with " +
        std::string(TypeIdToString(r->type)));
  }
  return Status::OK();
}

/// String comparison kernel over k rows (k = 1 for two constants): a
/// dictionary column against a constant compares each entry once.
void CompareStrKernel(CompareOp op, const Operand& l, const Operand& r,
                      size_t k, const BoolOut& out) {
  if (r.constant &&
      EvalOverDictionary(l, k, out,
                         [&](const StrReader& entries, size_t m,
                             uint8_t* eov, int64_t* eob) {
                           CompareStrRows(op, entries, StrReader(r), m, eov,
                                          eob);
                         })) {
    return;
  }
  if (l.constant &&
      EvalOverDictionary(r, k, out,
                         [&](const StrReader& entries, size_t m,
                             uint8_t* eov, int64_t* eob) {
                           CompareStrRows(op, StrReader(l), entries, m, eov,
                                          eob);
                         })) {
    return;
  }
  WriteRows(k, out, [&](size_t m, uint8_t* ov, int64_t* ob) {
    CompareStrRows(op, StrReader(l), StrReader(r), m, ov, ob);
  });
}

/// Comparison kernel over k rows (k = 1 for two constants) into BOOLEAN
/// validity and payload.
void CompareKernel(CompareOp op, const Operand& l, const Operand& r,
                   size_t k, uint8_t* ov, int64_t* ob) {
  if (l.type == TypeId::kString) {
    CompareStrKernel(op, l, r, k, BoolOut{ov, ob, nullptr});
    return;
  }
  std::vector<uint8_t> res(k);
  CompareNumRows(op, l, r, k, res.data());
  if (CombineValidity(l, r, k, ov)) {
    for (size_t i = 0; i < k; ++i) ob[i] = ov[i] & res[i];
  } else {
    for (size_t i = 0; i < k; ++i) ob[i] = res[i];
  }
}

/// String IN-list kernel over k rows of `c` (see InListKernel): a
/// dictionary column tests each entry once.
void InListStrKernel(const InListExpr& e, const Operand& c, size_t k,
                     const BoolOut& out) {
  const InListExpr::Candidates& cand = e.candidates();
  const bool negated = e.negated();
  auto str_kernel = [&](const StrReader& s, size_t m, uint8_t* sov,
                        int64_t* sob) {
    for (size_t i = 0; i < m; ++i) {
      if (s.Null(i)) {
        sov[i] = 0;
        sob[i] = 0;
        continue;
      }
      const bool hit = std::find(cand.strings.begin(), cand.strings.end(),
                                 s.Get(i)) != cand.strings.end();
      const bool valid = hit || !cand.has_null;
      sov[i] = valid ? 1 : 0;
      sob[i] = (valid && hit != negated) ? 1 : 0;
    }
  };
  if (!EvalOverDictionary(c, k, out, str_kernel)) {
    WriteRows(k, out, [&](size_t m, uint8_t* ov, int64_t* ob) {
      str_kernel(StrReader(c), m, ov, ob);
    });
  }
}

/// IN-list kernel over k rows of `c` with Value::Compare semantics: a
/// match yields !negated; no match yields NULL when the list holds a
/// NULL, else `negated`; a NULL row yields NULL.
void InListKernel(const InListExpr& e, const Operand& c, size_t k,
                  uint8_t* ov, int64_t* ob) {
  const InListExpr::Candidates& cand = e.candidates();
  const bool negated = e.negated();
  if (c.type == TypeId::kString) {
    InListStrKernel(e, c, k, BoolOut{ov, ob, nullptr});
    return;
  }
  // Numbers: hits over every row's payload (a NULL row reads 0), then
  // the row's validity decides.
  std::vector<uint8_t> hit(k);
  auto hits = [&](auto zero) {
    using T = decltype(zero);
    VisitRows<T>(c, [&](const auto& rows) {
      for (size_t i = 0; i < k; ++i) {
        const T v = rows[i];
        bool found = false;
        for (int64_t x : cand.ints) {
          if constexpr (std::is_same_v<T, double>) {
            found = found || NumEqual(v, static_cast<double>(x));
          } else {
            found = found || v == x;
          }
        }
        for (double x : cand.doubles) {
          found = found || NumEqual(static_cast<double>(v), x);
        }
        hit[i] = found ? 1 : 0;
      }
    });
  };
  if (c.type == TypeId::kDouble) {
    hits(0.0);
  } else {
    hits(int64_t{0});
  }
  OperandValidity(c, k, ov);
  for (size_t i = 0; i < k; ++i) {
    const bool h = hit[i] != 0;
    const bool v = ov[i] != 0 && (h || !cand.has_null);
    ov[i] = v ? 1 : 0;
    ob[i] = (v && h != negated) ? 1 : 0;
  }
}

}  // namespace

Result<bool> Expr::EvalFilter(const EvalContext&, uint8_t*) const {
  return false;
}

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
  AGORA_RETURN_IF_ERROR(BindCompare(*this, ctx, &l, &r));
  EvalBoolKernel(l.constant && r.constant, ctx.NumRows(), out,
                 [&](size_t k, uint8_t* ov, int64_t* ob) {
                   CompareKernel(op_, l, r, k, ov, ob);
                 });
  return Status::OK();
}

Result<bool> ComparisonExpr::EvalFilter(const EvalContext& ctx,
                                        uint8_t* keep) const {
  Operand l, r;
  AGORA_RETURN_IF_ERROR(BindCompare(*this, ctx, &l, &r));
  const size_t n = ctx.NumRows();
  if (l.type == TypeId::kString) {
    CompareStrKernel(op_, l, r, n, BoolOut{nullptr, nullptr, keep});
    return true;
  }
  // Numbers: the compare writes the mask directly, and NULL rows are
  // masked out only when the batch has any.
  CompareNumRows(op_, l, r, n, keep);
  std::vector<uint8_t> valid(n);
  if (CombineValidity(l, r, n, valid.data())) {
    for (size_t i = 0; i < n; ++i) keep[i] &= valid[i];
  }
  return true;
}

Status ArithmeticExpr::EvalBatch(const EvalContext& ctx,
                                 ColumnVector* out) const {
  Operand l, r;
  AGORA_RETURN_IF_ERROR(BindOperand(*left_, ctx, &l));
  AGORA_RETURN_IF_ERROR(BindOperand(*right_, ctx, &r));
  size_t n = ctx.NumRows();
  CountBatch(ctx, n);

  if (!IsNumeric(l.type) || !IsNumeric(r.type)) {
    return Status::TypeError(
        "arithmetic requires numeric operands, got " +
        std::string(TypeIdToString(l.type)) + " and " +
        std::string(TypeIdToString(r.type)));
  }
  const bool is_double = result_type_ == TypeId::kDouble;
  if (!is_double && (l.type == TypeId::kDouble || r.type == TypeId::kDouble)) {
    return Status::Internal("integer arithmetic over a DOUBLE operand: " +
                            ToString());
  }

  // Validity first (division clears it further), then the payload.
  const bool folded = l.constant && r.constant;
  auto run = [&](size_t k, ColumnVector* res) -> Status {
    *res = ColumnVector(result_type_);
    res->ResizeForOverwrite(k);
    uint8_t* ov = res->mutable_validity_data();
    bool nulls = CombineValidity(l, r, k, ov);
    if (l.const_null || r.const_null) {
      // Every row is NULL: the payload stays 0 from ResizeForOverwrite.
      return Status::OK();
    }
    // BIGINT overflow counts on valid rows, and under a CASE only on live
    // ones (a folded constant stands for all n rows: live if any is).
    std::vector<uint8_t> live_valid;
    const uint8_t* check = ov;
    if (!is_double && folded) {
      live_valid.assign(1, ov[0] & static_cast<uint8_t>(AnyLive(ctx, n)));
      check = live_valid.data();
    } else if (!is_double && ctx.live != nullptr) {
      live_valid.resize(k);
      for (size_t i = 0; i < k; ++i) live_valid[i] = ov[i] & ctx.live[i];
      check = live_valid.data();
    }
    bool overflow = false;
    auto payload = [&](auto* od) {
      using T = std::remove_pointer_t<decltype(od)>;
      VisitRowPair<T>(l, r, [&](const auto& lr, const auto& rr) {
        overflow = ArithRows<T>(op_, lr, rr, k, ov, check, od);
      });
      if (nulls || op_ == ArithOp::kDiv || op_ == ArithOp::kMod) {
        ZeroNullPayload(ov, k, od);
      }
    };
    if (is_double) {
      payload(res->mutable_double_data());
    } else {
      payload(res->mutable_int64_data());
    }
    if (overflow) return Status::OutOfRange("BIGINT out of range");
    return Status::OK();
  };

  if (folded) {
    ColumnVector one;
    AGORA_RETURN_IF_ERROR(run(1, &one));
    // agora-lint: allow(expr-per-row-value) one-row constant fold, not a row loop
    *out = ColumnVector::MakeConstant(result_type_, one.GetValue(0), n);
    return Status::OK();
  }
  return run(n, out);
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
  EvalBoolKernel(c.constant, n, out, [&](size_t k, uint8_t* ov, int64_t* ob) {
    if (!EvalOverDictionary(c, k, BoolOut{ov, ob, nullptr}, like)) {
      like(StrReader(c), k, ov, ob);
    }
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
  EvalBoolKernel(c.constant, n, out, [&](size_t k, uint8_t* ov, int64_t* ob) {
    InListKernel(*this, c, k, ov, ob);
  });
  return Status::OK();
}

Result<bool> InListExpr::EvalFilter(const EvalContext& ctx,
                                    uint8_t* keep) const {
  // Numbers take EvalBatch (decided before binding, which counts).
  if (child_->result_type() != TypeId::kString) return false;
  Operand c;
  AGORA_RETURN_IF_ERROR(BindOperand(*child_, ctx, &c));
  const size_t n = ctx.NumRows();
  CountBatch(ctx, n);
  if (c.type != TypeId::kString) {
    return Status::Internal("non-string operand in a string IN list: " +
                            ToString());
  }
  InListStrKernel(*this, c, n, BoolOut{nullptr, nullptr, keep});
  return true;
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
    if (!v.ok()) {
      // An out-of-range value fails only on a live row, like BIGINT
      // overflow; a row that is not live gets NULL.
      const bool live = c.is_constant()
                            ? AnyLive(ctx, n)
                            : ctx.live == nullptr || ctx.live[i] != 0;
      if (live || v.status().code() != StatusCode::kOutOfRange) {
        return v.status();
      }
      result.AppendNull();
      continue;
    }
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
          // ABS(INT64_MIN) overflows; a row that is not live keeps it.
          int64_t v = c.GetInt64(i);
          if (v == std::numeric_limits<int64_t>::min()) {
            const bool live = c.is_constant()
                                  ? AnyLive(ctx, n)
                                  : ctx.live == nullptr || ctx.live[i] != 0;
            if (live) return Status::OutOfRange("BIGINT out of range");
            result.AppendInt64(v);
          } else {
            result.AppendInt64(v < 0 ? -v : v);
          }
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
  // Sources: one per WHEN result, then the ELSE (left default-constructed,
  // i.e. all NULL, when absent). source[i] names the first branch whose
  // condition is TRUE on row i, else the ELSE source.
  const size_t num_sources = results_.size() + 1;
  const auto else_source = static_cast<uint32_t>(results_.size());
  std::vector<ColumnVector> sources(num_sources);
  std::vector<uint32_t> source(n, else_source);
  // Every branch is evaluated over all n rows, but under a context whose
  // live rows are the (live) rows that reach it: a WHEN condition's rows
  // no earlier branch took, a result's rows its condition took. So a
  // row's error is raised only by what SQL evaluates for it.
  std::vector<uint8_t> live(n);
  EvalContext branch_ctx = ctx;
  branch_ctx.live = live.data();
  auto mark_live = [&](uint32_t s) {
    for (size_t i = 0; i < n; ++i) {
      live[i] = static_cast<uint8_t>(source[i] == s) &
                (ctx.live != nullptr ? ctx.live[i] : uint8_t{1});
    }
  };
  for (size_t b = 0; b < conditions_.size(); ++b) {
    ColumnVector cond;
    mark_live(else_source);
    AGORA_RETURN_IF_ERROR(conditions_[b]->EvalBatch(branch_ctx, &cond));
    if (cond.type() != TypeId::kBool) {
      return Status::TypeError("CASE WHEN condition is not BOOLEAN");
    }
    const auto branch = static_cast<uint32_t>(b);
    if (cond.is_constant()) {
      if (!cond.IsNull(0) && cond.GetBool(0)) {
        for (size_t i = 0; i < n; ++i) {
          source[i] = source[i] == else_source ? branch : source[i];
        }
      }
    } else {
      const uint8_t* cv = cond.validity_data();
      const int64_t* cb = cond.int64_data();
      for (size_t i = 0; i < n; ++i) {
        const bool taken =
            (source[i] == else_source) & (cv[i] != 0) & (cb[i] != 0);
        source[i] = taken ? branch : source[i];
      }
    }
    mark_live(branch);
    AGORA_RETURN_IF_ERROR(results_[b]->EvalBatch(branch_ctx, &sources[b]));
  }
  if (else_result_ != nullptr) {
    mark_live(else_source);
    AGORA_RETURN_IF_ERROR(
        else_result_->EvalBatch(branch_ctx, &sources[else_source]));
  }

  // A source contributes nothing when it is absent or a constant NULL
  // (an untyped NULL literal evaluates as BOOLEAN); its rows stay NULL.
  auto all_null = [](const ColumnVector& src) {
    return src.type() == TypeId::kInvalid ||
           (src.is_constant() && src.IsNull(0));
  };
  auto mismatch = [this](const ColumnVector& src) {
    return Status::TypeError(
        "CASE branch of type " + std::string(TypeIdToString(src.type())) +
        " does not fit result type " +
        std::string(TypeIdToString(result_type_)));
  };

  if (result_type_ == TypeId::kString) {
    // Strings: gather each source's rows and scatter them into place.
    *out = ColumnVector::MakeConstant(TypeId::kString,
                                      Value::Null(TypeId::kString), n);
    out->Flatten();
    std::vector<uint32_t> rows;
    for (uint32_t s = 0; s < num_sources; ++s) {
      const ColumnVector& src = sources[s];
      if (all_null(src)) continue;
      if (src.type() != TypeId::kString) return mismatch(src);
      rows.clear();
      for (size_t i = 0; i < n; ++i) {
        if (source[i] == s) rows.push_back(static_cast<uint32_t>(i));
      }
      if (!rows.empty()) out->Scatter(rows, src.Gather(rows));
    }
    return Status::OK();
  }

  // Numbers: one branch-free select pass per source over the rows, with
  // BIGINT results promoted into a DOUBLE CASE.
  *out = ColumnVector(result_type_);
  out->ResizeForOverwrite(n);  // all NULL, payload 0
  uint8_t* ov = out->mutable_validity_data();
  auto fill = [&](auto* od) -> Status {
    using T = std::remove_pointer_t<decltype(od)>;
    for (uint32_t s = 0; s < num_sources; ++s) {
      const ColumnVector& src = sources[s];
      if (all_null(src)) continue;
      if (src.type() == TypeId::kString ||
          (src.type() == TypeId::kDouble && !std::is_same_v<T, double>)) {
        return mismatch(src);
      }
      if (src.is_constant()) {
        const T v = src.type() == TypeId::kDouble
                        ? static_cast<T>(src.GetDouble(0))
                        : static_cast<T>(src.GetInt64(0));
        for (size_t i = 0; i < n; ++i) {
          const bool mine = source[i] == s;
          ov[i] = mine ? 1 : ov[i];
          od[i] = mine ? v : od[i];
        }
        continue;
      }
      const uint8_t* sv = src.validity_data();
      auto copy = [&](const auto& rows) {
        for (size_t i = 0; i < n; ++i) {
          const bool mine = source[i] == s;
          ov[i] = mine ? sv[i] : ov[i];
          od[i] = mine ? (sv[i] != 0 ? rows[i] : T(0)) : od[i];
        }
      };
      if (src.type() == TypeId::kDouble) {
        copy(FlatRows<double, T>{src.double_data()});
      } else {
        copy(FlatRows<int64_t, T>{src.int64_data()});
      }
    }
    return Status::OK();
  };
  if (result_type_ == TypeId::kDouble) return fill(out->mutable_double_data());
  return fill(out->mutable_int64_data());
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

  // Any other predicate: a keep-mask over the live rows, straight from a
  // filter kernel when the node has one, else read off EvalBatch's
  // BOOLEAN vector; then the selection is compacted by it in place.
  EvalContext ctx;
  ctx.chunk = &chunk;
  ctx.sel = sel->all ? nullptr : &sel->rows;
  ctx.counters = counters;
  const size_t n = ctx.NumRows();
  std::vector<uint8_t> keep(n);
  AGORA_ASSIGN_OR_RETURN(bool filtered, pred.EvalFilter(ctx, keep.data()));
  if (!filtered) {
    ColumnVector mask;
    AGORA_RETURN_IF_ERROR(pred.EvalBatch(ctx, &mask));
    if (mask.type() != TypeId::kBool) {
      if (nested) {
        return Status::TypeError("logical operand is not BOOLEAN: " +
                                 pred.ToString());
      }
      return Status::TypeError("filter predicate is not BOOLEAN");
    }
    if (mask.is_constant()) {
      std::fill_n(keep.data(), n,
                  (n != 0 && !mask.IsNull(0) && mask.GetBool(0)) ? 1 : 0);
    } else {
      const uint8_t* mv = mask.validity_data();
      const int64_t* mb = mask.int64_data();
      for (size_t i = 0; i < n; ++i) keep[i] = mv[i] & (mb[i] != 0 ? 1 : 0);
    }
  }
  size_t k = 0;
  if (sel->all) {
    sel->rows.resize(n);
    uint32_t* rows = sel->rows.data();
    for (size_t i = 0; i < n; ++i) {
      rows[k] = static_cast<uint32_t>(i);
      k += keep[i];
    }
    if (k == n) {
      sel->rows.clear();  // everything passed; stay in "all" form
      return Status::OK();
    }
    sel->all = false;
  } else {
    uint32_t* rows = sel->rows.data();
    for (size_t i = 0; i < n; ++i) {
      rows[k] = rows[i];
      k += keep[i];
    }
  }
  sel->rows.resize(k);
  return Status::OK();
}

}  // namespace

Status RefineSelection(const Expr& pred, const Chunk& chunk, Selection* sel,
                       ExprCounters* counters) {
  return RefineImpl(pred, chunk, sel, counters, /*nested=*/false);
}

}  // namespace agora
