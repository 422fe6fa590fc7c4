#ifndef AGORA_STORAGE_COLUMN_VECTOR_H_
#define AGORA_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "types/type.h"
#include "types/value.h"

namespace agora {

/// Most distinct entries a dictionary-encoded column keeps. The append
/// that would add one more decodes the column to flat strings for good.
inline constexpr size_t kMaxDictionaryEntries = 4096;

/// The unique strings of a dictionary-encoded column: entry `code` is the
/// string every row carrying that u32 code stands for. Entries keep their
/// first-insertion order, each with its HashString precomputed (hash
/// kernels read it instead of rehashing), plus a flat open-addressing
/// index for Find/Insert. Vectors share a Dictionary copy-on-write: one
/// only inserts into a dictionary it holds alone (see ColumnVector).
class Dictionary {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  Dictionary() = default;
  Dictionary(const Dictionary& other);
  Dictionary& operator=(const Dictionary&) = delete;

  size_t size() const { return entries_.size(); }
  const std::string& entry(uint32_t code) const { return entries_[code]; }
  const std::vector<std::string>& entries() const { return entries_; }
  /// HashString of every entry, indexed by code.
  const uint64_t* hashes() const { return hashes_.data(); }

  /// Code of `s` (whose HashString is `h`), or kNotFound.
  uint32_t Find(std::string_view s, uint64_t h) const;
  /// Adds `s` (absent, HashString `h`) and returns its code.
  uint32_t Insert(std::string_view s, uint64_t h);

  /// Heap bytes of entries, hashes and index.
  size_t MemoryBytes() const;

 private:
  void PlaceInIndex(uint32_t code);

  std::vector<std::string> entries_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;  // code + 1; 0 = empty; load <= 1/2
  size_t string_bytes_ = 0;
  MemoryCharge charge_;  // the creating thread's tracker, like a Rep
};

/// A typed, nullable column of values in columnar layout.
///
/// Physical storage: kBool/kInt64/kDate share an int64 array; kDouble uses
/// a double array; kString uses a std::string array, or u32 codes in the
/// dictionary form below. A byte-per-row validity vector tracks NULLs
/// (1 = valid). This trades some space for simple, branch-light kernels.
///
/// Four representation axes keep the engine zero-copy:
///
/// *Shared buffers (copy-on-write).* The payload lives in a refcounted
/// `Rep`; copying a ColumnVector shares it (O(1)), and every mutating
/// entry point calls EnsureUnique() to clone first when the buffer is
/// shared. A column reference in an expression is therefore a pointer
/// bump, and the views Table::GetChunk hands out are safe: a later
/// Table mutation clones its own copy, never the reader's.
///
/// *Views.* Slice() returns a view: rows [offset, offset + size()) of a
/// shared Rep, made in O(1) (Table::GetChunk and the scan's fully
/// passing blocks copy nothing). Every reader indexes the Rep at
/// `offset + row` — element accessors, the raw `*_data()` pointers
/// (which point at the view's first row), the batch kernels and the
/// spill writer. A view owns no bytes, so MemoryBytes() reports 0; the
/// first mutation copies only the view's rows into a Rep of its own
/// (EnsureUnique), and Materialize() does the same eagerly, so a chunk
/// kept past its statement never pins a table buffer.
///
/// *Constant form.* A vector may represent `n` logical repetitions of a
/// single physical row (literals, folded expressions). Element accessors
/// are constant-transparent (they read physical row 0); raw-pointer and
/// batch-kernel entry points require non-constant vectors — callers
/// expand at the boundary (Expr::Evaluate does this) or DCHECK-fail.
///
/// *Dictionary form* (kString only). Each row holds a u32 code into a
/// shared, copy-on-write Dictionary instead of a std::string. Table
/// string columns start in this form and keep it until a
/// (kMaxDictionaryEntries + 1)-th distinct value decodes them. Element
/// accessors, hashes and comparisons read through the dictionary, so
/// every result is byte-identical to the flat form. Appends, gathers and
/// slices from a vector with the same dictionary move codes; an empty
/// vector appending from a dictionary vector adopts its dictionary; a
/// dictionary vector appending foreign strings interns them. Consumers
/// that need `string_data()` call Flatten(), which decodes.
class ColumnVector {
 public:
  ColumnVector() : type_(TypeId::kInvalid) {}
  explicit ColumnVector(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const {
    if (constant_ || view_) return logical_size_;
    return rep_ ? rep_->validity.size() : 0;
  }
  bool empty() const { return size() == 0; }

  /// True for the constant form: one physical row, `size()` logical rows.
  bool is_constant() const { return constant_; }
  /// True for a view: `size()` rows of a Rep shared with another vector,
  /// starting at some row of it (see Slice).
  bool is_view() const { return view_; }

  /// Builds an `n`-row constant vector holding `v` (one physical row).
  static ColumnVector MakeConstant(TypeId type, const Value& v, size_t n);

  /// Builds an empty kString vector in dictionary form (Table columns).
  static ColumnVector MakeDictionary();

  /// True for the dictionary form: rows are codes into dictionary().
  bool is_dictionary() const { return rep_ != nullptr && rep_->dict; }
  /// True when both vectors are in dictionary form over the same
  /// Dictionary object, so equal codes mean equal strings.
  bool SharesDictionaryWith(const ColumnVector& other) const {
    return is_dictionary() && other.is_dictionary() &&
           rep_->dict == other.rep_->dict;
  }
  const Dictionary& dictionary() const {
    AGORA_DCHECK(is_dictionary());
    return *rep_->dict;
  }

  /// An empty vector of this type, in dictionary form over this vector's
  /// dictionary when it has one: appends of strings already in the
  /// dictionary then store their codes.
  ColumnVector EmptyLike() const;

  /// Expands the constant form into `size()` physical rows and decodes
  /// the dictionary form into flat strings. No-op when already flat.
  /// Required before string_data().
  void Flatten();
  /// Expands the constant form only; a dictionary vector stays encoded.
  /// Enough for every batch kernel (they accept the dictionary form).
  void FlattenConstant();
  /// Expands the constant form and copies a view's rows into a buffer of
  /// its own; a dictionary vector stays encoded. Chunks that outlive
  /// their operator (Chunk::Append) call this so they hold no view.
  void Materialize();

  void Reserve(size_t n);
  void Clear();

  /// Makes this a flat, uniquely-owned vector of exactly `n` rows whose
  /// payload and validity are about to be overwritten (kernel outputs).
  void ResizeForOverwrite(size_t n);

  // -- Appends ---------------------------------------------------------
  /// Typed single-cell appends for the load paths (defined below).
  class CellWriter;

  void AppendNull();
  void AppendInt64(int64_t v);    // kBool/kInt64/kDate
  void AppendDouble(double v);    // kDouble
  void AppendString(std::string v);  // kString
  void AppendBool(bool v) { AppendInt64(v ? 1 : 0); }
  /// Appends a Value; DCHECKs the type matches (after null handling).
  void AppendValue(const Value& v);
  /// Appends row `row` of `other` (same type).
  void AppendFrom(const ColumnVector& other, size_t row);
  /// Appends rows [begin, begin+count) of `src` (same type, not *this)
  /// with one typed bulk copy per buffer. A constant `src` appends
  /// `count` copies of its value; `src` itself is never modified, even
  /// when it shares its buffer with this vector.
  void AppendRange(const ColumnVector& src, size_t begin, size_t count);

  // -- Element access ---------------------------------------------------
  // Constant-transparent: logical row `i` maps to physical row 0 in the
  // constant form.
  bool IsNull(size_t i) const { return rep_->validity[PhysRow(i)] == 0; }
  bool IsValid(size_t i) const { return rep_->validity[PhysRow(i)] != 0; }
  int64_t GetInt64(size_t i) const { return rep_->ints[PhysRow(i)]; }
  double GetDouble(size_t i) const { return rep_->doubles[PhysRow(i)]; }
  const std::string& GetString(size_t i) const {
    return rep_->Str(PhysRow(i));
  }
  bool GetBool(size_t i) const { return rep_->ints[PhysRow(i)] != 0; }
  /// Numeric view of row `i` regardless of int/double/date physical type.
  double GetNumeric(size_t i) const {
    size_t p = PhysRow(i);
    return type_ == TypeId::kDouble ? rep_->doubles[p]
                                    : static_cast<double>(rep_->ints[p]);
  }
  /// Boxes row `i` as a Value (allocates for strings).
  Value GetValue(size_t i) const;

  /// Overwrites row rows[i] with row i of `src` (same type, rows.size()
  /// rows, may be constant) with one type dispatch per call. A
  /// dictionary vector interns the new strings — each distinct src entry
  /// once — and decodes for good when its dictionary fills up.
  void Scatter(const std::vector<uint32_t>& rows, const ColumnVector& src);

  // -- Raw data (hot loops; flat vectors only) ---------------------------
  // Each pointer addresses row 0 of this vector (a view's offset is
  // already applied) and is valid for size() rows.
  const int64_t* int64_data() const {
    AGORA_DCHECK(!constant_);
    return rep_ ? rep_->ints.data() + offset_ : nullptr;
  }
  const double* double_data() const {
    AGORA_DCHECK(!constant_);
    return rep_ ? rep_->doubles.data() + offset_ : nullptr;
  }
  const std::string* string_data() const {
    AGORA_DCHECK(!constant_ && !is_dictionary());
    return rep_ ? rep_->strings.data() + offset_ : nullptr;
  }
  /// Per-row dictionary codes (dictionary form only). A NULL row holds
  /// code 0, which need not name an entry.
  const uint32_t* codes_data() const {
    AGORA_DCHECK(is_dictionary());
    return rep_->codes.data() + offset_;
  }
  const uint8_t* validity_data() const {
    AGORA_DCHECK(!constant_);
    return rep_ ? rep_->validity.data() + offset_ : nullptr;
  }
  int64_t* mutable_int64_data() { return EnsureUnique()->ints.data(); }
  double* mutable_double_data() { return EnsureUnique()->doubles.data(); }
  uint8_t* mutable_validity_data() {
    return EnsureUnique()->validity.data();
  }
  uint32_t* mutable_codes_data() {
    AGORA_DCHECK(is_dictionary());
    return EnsureUnique()->codes.data();
  }

  /// True if no row is NULL (fast path for kernels).
  bool AllValid() const;

  /// Hashes row `i` (hash indexes, statistics sketches); agrees with
  /// HashBatch and Value::Hash.
  uint64_t HashRow(size_t i) const;

  // -- Batch kernels (exec/hash_table.h consumers) -----------------------

  /// Column-at-a-time hash kernel over rows [0, n), or over rows
  /// `sel[0..n)` when `sel` is given (hashes[i] then belongs to row
  /// sel[i]). With `combine` false writes each row's hash into
  /// `hashes[i]`; with `combine` true folds it into the existing value via
  /// HashCombine (multi-column keys). -0.0 hashes as +0.0, since SQL finds
  /// them equal; NULL rows hash to the fixed kNullHash. Agrees with
  /// HashRow and Value::Hash.
  void HashBatch(uint64_t* hashes, size_t n, bool combine,
                 const uint32_t* sel = nullptr) const;

  /// ANDs per-pair key equality into `equal[0..n)`: equal[i] stays 1 only
  /// if row `rows[i]` of *this* equals row `other_rows[i]` of `other`.
  /// NULL equals NULL (grouping semantics). `bitwise_doubles` compares
  /// doubles by their (−0.0-normalized) bit pattern — the aggregate key
  /// contract, where NaN groups with bit-identical NaN; otherwise doubles
  /// compare by value (join CompareRows semantics).
  void BatchEqualRows(const uint32_t* rows, const ColumnVector& other,
                      const uint32_t* other_rows, size_t n,
                      bool bitwise_doubles, uint8_t* equal) const;

  /// Appends rows `sel[0..n)` of `src` in order; the sentinel UINT32_MAX
  /// appends NULL (outer-join padding). Batch equivalent of AppendFrom —
  /// the type dispatch happens once per call, not once per row.
  void AppendGatherPadded(const ColumnVector& src, const uint32_t* sel,
                          size_t n);

  /// Three-way compare of row `i` with row `j` of `other` (same type).
  /// NULLs order first.
  int CompareRows(size_t i, const ColumnVector& other, size_t j) const;

  /// Gathers `sel[0..n)` rows into a new vector (selection apply).
  ColumnVector Gather(const std::vector<uint32_t>& sel) const;

  /// Rows [begin, begin+count) as a view of this vector's buffer: O(1),
  /// nothing is copied (a constant stays constant, an empty slice is an
  /// empty vector). The view keeps the buffer alive; writes to either
  /// side never reach the other (copy-on-write).
  ColumnVector Slice(size_t begin, size_t count) const;

  /// Approximate heap bytes used (for resource accounting). Shared
  /// buffers are counted once per referencing vector, matching the
  /// deep-copy accounting this replaced; a view owns nothing and counts
  /// 0. A dictionary vector counts its codes, not the shared Dictionary
  /// (which charges its own tracker and reports Dictionary::MemoryBytes).
  size_t MemoryBytes() const;

  /// Debug verification (AGORA_VERIFY): checks that the payload array for
  /// the column's physical type covers every row the validity vector
  /// declares, so element accessors can never read past the payload. In
  /// the dictionary form it also checks that every valid row's code names
  /// an entry and that the entries are unique. Returns an Internal status
  /// naming the mismatch.
  Status CheckConsistency() const;

 private:
  Status CheckDictionary(size_t rows) const;

  /// Refcounted payload. A null rep_ means an empty vector; every
  /// accessor that indexes rows may assume rep_ is set because row
  /// indexes only exist once something was appended.
  ///
  /// Each Rep charges its payload bytes to the MemoryTracker that was
  /// active on the creating thread (ScopedMemoryTracker installs the
  /// per-query tracker during execution; table loads and tests run
  /// untracked). Charges are refreshed at mutation sites with a small
  /// granularity so per-row appends stay cheap, and the exact amount is
  /// released when the Rep dies — shared buffers are charged once per
  /// Rep, not per referencing vector.
  struct Rep {
    Rep() = default;
    /// Untracked Rep (function-local statics must not pin a query
    /// tracker).
    explicit Rep(std::nullptr_t)
        : charge(std::shared_ptr<MemoryTracker>(nullptr)) {}
    /// Copies physical rows [begin, begin+count) of `other`, sharing its
    /// dictionary.
    Rep(const Rep& other, size_t begin, size_t count);
    Rep(const Rep&) = delete;
    Rep& operator=(const Rep&) = delete;

    /// Refreshes `charge` to the current payload size when it drifted
    /// more than the charge granularity; untracked Reps skip it inline.
    void Recharge() {
      if (charge.tracker() != nullptr) RechargeTracked();
    }
    void RechargeTracked();

    /// String of physical row `p` in either string form.
    const std::string& Str(size_t p) const {
      return dict ? dict->entry(codes[p]) : strings[p];
    }
    /// Code of `s` in `dict`, inserting it (after cloning a shared
    /// dictionary); Dictionary::kNotFound when the dictionary is full.
    uint32_t Intern(std::string_view s);
    /// Converts the dictionary form to flat strings in place.
    void Decode();
    /// Appends one valid string in whichever form the rep is in,
    /// decoding first when the dictionary is full.
    void PushString(std::string_view s);

    std::vector<uint8_t> validity;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    /// Dictionary form (kString): one code per row into `dict`. A null
    /// `dict` means the flat form, with the payload in `strings`.
    std::vector<uint32_t> codes;
    std::shared_ptr<Dictionary> dict;
    /// Incremental sum over `strings` of sizeof(std::string) +
    /// capacity(), maintained at every string mutation site so
    /// MemoryBytes() and Recharge() are O(1).
    size_t string_bytes = 0;
    MemoryCharge charge;
  };

  size_t PhysRow(size_t i) const { return constant_ ? 0 : offset_ + i; }

  /// Clones the rep when shared (a view clones only its own rows),
  /// creates it when absent, and expands the constant form — after this
  /// call mutation is safe and the vector is no view. A dictionary stays
  /// shared until Rep::Intern needs to add to it. Inline for the common
  /// case, a buffer this vector already owns (per-cell appends).
  Rep* EnsureUnique() {
    if (rep_ != nullptr && !constant_ && !view_ && rep_.use_count() == 1) {
      return rep_.get();
    }
    return MakeUnique();
  }
  /// EnsureUnique's slow path.
  Rep* MakeUnique();

  /// Appends `n` kString rows of `src`: physical row `base + row_of(i)`,
  /// or NULL where row_of returns UINT32_MAX. Moves codes when both sides
  /// share a dictionary, adopts src's dictionary while *this is empty,
  /// interns into this vector's own dictionary, else copies strings.
  template <typename RowFn>
  void AppendStrings(const ColumnVector& src, size_t base, size_t n,
                     RowFn row_of);

  TypeId type_;
  std::shared_ptr<Rep> rep_;
  bool constant_ = false;
  bool view_ = false;
  size_t offset_ = 0;        // first physical row; nonzero only in a view
  size_t logical_size_ = 0;  // meaningful only when constant_ or view_
};

/// Appends single cells to one vector, typed by the caller: the one cell
/// writer of the load paths. TableAppender keeps one per column of its
/// chunk buffers for the whole load, Table::AppendRow makes one per cell,
/// and AppendNull/AppendInt64/AppendDouble/AppendString/AppendValue are
/// one-cell uses of it. The constructor makes the vector's buffer its own
/// once (EnsureUnique), so a cell costs one push per buffer; the memory
/// charge is refreshed when the writer dies and on Truncate/Restart. A
/// writer stays valid while nothing else copies, slices or appends to the
/// vector. Callers check types: Int64 serves kBool/kInt64/kDate.
class ColumnVector::CellWriter {
 public:
  explicit CellWriter(ColumnVector* col)
      : type_(col->type_), rep_(col->EnsureUnique()) {}
  CellWriter(CellWriter&& other) noexcept
      : type_(other.type_), rep_(other.rep_) {
    other.rep_ = nullptr;
  }
  CellWriter(const CellWriter&) = delete;
  CellWriter& operator=(const CellWriter&) = delete;
  ~CellWriter() {
    if (rep_ != nullptr) rep_->Recharge();
  }

  void Null();
  void Int64(int64_t v) {
    rep_->validity.push_back(1);
    rep_->ints.push_back(v);
  }
  void Double(double v) {
    rep_->validity.push_back(1);
    rep_->doubles.push_back(v);
  }
  /// Interns `s` in the dictionary form, decoding first when it is full.
  void String(std::string_view s) {
    rep_->validity.push_back(1);
    rep_->PushString(s);
  }
  /// As above; the flat form takes the string over instead of copying it.
  void String(std::string&& s);
  /// Appends a boxed value of the vector's type (an integer into a
  /// DOUBLE vector widens), or NULL.
  void Boxed(const Value& v);

  /// Keeps the first `rows` rows and drops the rest, keeping the
  /// buffers' capacity; a dictionary vector is decoded first.
  void Truncate(size_t rows);
  /// Drops every row, keeping the buffers' capacity. A string vector
  /// starts over in the dictionary form over a fresh dictionary when
  /// `dictionary`, flat otherwise.
  void Restart(bool dictionary);

 private:
  TypeId type_;
  Rep* rep_;
};

}  // namespace agora

#endif  // AGORA_STORAGE_COLUMN_VECTOR_H_
