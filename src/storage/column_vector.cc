#include "storage/column_vector.h"

#include <algorithm>
#include <cstddef>

#include "common/hash.h"

namespace agora {
namespace {

/// Heap cost attributed to one element of a string column.
inline size_t StrCost(const std::string& s) {
  return sizeof(std::string) + s.capacity();
}

/// Reps refresh their tracker charge only when the payload drifted this
/// many bytes, so per-row appends pay a compare, not an atomic RMW.
constexpr size_t kChargeGranularity = 16 * 1024;

/// Row sentinel of AppendGatherPadded / AppendStrings: append NULL.
constexpr uint32_t kPadRow = UINT32_MAX;

/// Makes room for `n` more elements with the growth a range insert or
/// push_back would use (at least double), so repeated appends to one
/// vector (AppendFrom per row, Chunk::Append per chunk) stay amortized
/// linear; an exact reserve per call would reallocate every time.
template <typename T>
void ReserveMore(std::vector<T>* v, size_t n) {
  const size_t want = v->size() + n;
  if (want > v->capacity()) v->reserve(std::max(want, 2 * v->size()));
}

/// Grows `v` by `n` zeroed elements and returns the first, so gather
/// loops write rows by index instead of calling push_back per row
/// (callers reserve first; resize then never reallocates a batch).
template <typename T>
T* GrowBy(std::vector<T>* v, size_t n) {
  const size_t old = v->size();
  v->resize(old + n);
  return v->data() + old;
}

}  // namespace

Dictionary::Dictionary(const Dictionary& other)
    : entries_(other.entries_),
      hashes_(other.hashes_),
      slots_(other.slots_),
      string_bytes_(other.string_bytes_) {
  charge_.Update(MemoryBytes());
}

uint32_t Dictionary::Find(std::string_view s, uint64_t h) const {
  if (slots_.empty()) return kNotFound;
  const size_t mask = slots_.size() - 1;
  for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
    const uint32_t code1 = slots_[pos];
    if (code1 == 0) return kNotFound;
    if (hashes_[code1 - 1] == h && entries_[code1 - 1] == s) return code1 - 1;
  }
}

uint32_t Dictionary::Insert(std::string_view s, uint64_t h) {
  const auto code = static_cast<uint32_t>(entries_.size());
  entries_.emplace_back(s);
  hashes_.push_back(h);
  string_bytes_ += StrCost(entries_.back());
  if (entries_.size() * 2 > slots_.size()) {
    // Rebuild at twice the size; the new entry is placed with the rest.
    slots_.assign(std::max<size_t>(16, slots_.size() * 2), 0);
    for (uint32_t c = 0; c <= code; ++c) PlaceInIndex(c);
  } else {
    PlaceInIndex(code);
  }
  charge_.Update(MemoryBytes());
  return code;
}

void Dictionary::PlaceInIndex(uint32_t code) {
  const size_t mask = slots_.size() - 1;
  size_t pos = hashes_[code] & mask;
  while (slots_[pos] != 0) pos = (pos + 1) & mask;
  slots_[pos] = code + 1;
}

size_t Dictionary::MemoryBytes() const {
  return string_bytes_ + hashes_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(uint32_t);
}

ColumnVector::Rep::Rep(const Rep& other, size_t begin, size_t count)
    : dict(other.dict) {
  // Only the buffers the source fills are copied; the others are empty.
  auto copy = [begin, count](auto* to, const auto& from) {
    if (from.empty()) return;
    const auto first = from.begin() + static_cast<std::ptrdiff_t>(begin);
    to->assign(first, first + static_cast<std::ptrdiff_t>(count));
  };
  copy(&validity, other.validity);
  copy(&ints, other.ints);
  copy(&doubles, other.doubles);
  copy(&strings, other.strings);
  copy(&codes, other.codes);
  // The copies' string capacities may differ from the source's, so the
  // incremental counter is recomputed rather than copied.
  for (const auto& s : strings) string_bytes += StrCost(s);
  Recharge();
}

void ColumnVector::Rep::Recharge() {
  if (charge.tracker() == nullptr) return;
  size_t now = validity.capacity() + ints.capacity() * sizeof(int64_t) +
               doubles.capacity() * sizeof(double) +
               codes.capacity() * sizeof(uint32_t) + string_bytes;
  size_t cur = charge.amount();
  if (now > cur + kChargeGranularity || now + kChargeGranularity < cur) {
    charge.Update(now);
  }
}

uint32_t ColumnVector::Rep::Intern(std::string_view s) {
  const uint64_t h = HashString(s);
  const uint32_t code = dict->Find(s, h);
  if (code != Dictionary::kNotFound) return code;
  if (dict->size() >= kMaxDictionaryEntries) return Dictionary::kNotFound;
  if (dict.use_count() > 1) dict = std::make_shared<Dictionary>(*dict);
  return dict->Insert(s, h);
}

void ColumnVector::Rep::Decode() {
  strings.clear();
  strings.reserve(codes.capacity());
  for (size_t i = 0; i < codes.size(); ++i) {
    if (validity[i] != 0) {
      strings.push_back(dict->entry(codes[i]));
    } else {
      strings.emplace_back();
    }
    string_bytes += StrCost(strings.back());
  }
  codes = std::vector<uint32_t>();
  dict.reset();
  Recharge();
}

void ColumnVector::Rep::PushString(std::string_view s) {
  if (dict) {
    const uint32_t code = Intern(s);
    if (code != Dictionary::kNotFound) {
      codes.push_back(code);
      return;
    }
    Decode();
  }
  strings.emplace_back(s);
  string_bytes += StrCost(strings.back());
}

ColumnVector::Rep* ColumnVector::EnsureUnique() {
  if (constant_) {
    FlattenConstant();  // builds a Rep of its own
  } else if (!rep_) {
    rep_ = std::make_shared<Rep>();
  } else if (view_ || rep_.use_count() > 1) {
    rep_ = std::make_shared<Rep>(*rep_, offset_, size());
    view_ = false;
    offset_ = 0;
    logical_size_ = 0;
  }
  return rep_.get();
}

ColumnVector ColumnVector::MakeConstant(TypeId type, const Value& v,
                                        size_t n) {
  ColumnVector out(type);
  out.AppendValue(v);
  out.constant_ = true;
  out.logical_size_ = n;
  return out;
}

ColumnVector ColumnVector::MakeDictionary() {
  ColumnVector out(TypeId::kString);
  out.rep_ = std::make_shared<Rep>();
  out.rep_->dict = std::make_shared<Dictionary>();
  return out;
}

ColumnVector ColumnVector::EmptyLike() const {
  if (!is_dictionary()) return ColumnVector(type_);
  ColumnVector out(type_);
  out.rep_ = std::make_shared<Rep>();
  out.rep_->dict = rep_->dict;
  return out;
}

void ColumnVector::Flatten() {
  FlattenConstant();
  if (!is_dictionary()) return;
  EnsureUnique()->Decode();
}

void ColumnVector::FlattenConstant() {
  if (!constant_) return;
  size_t n = logical_size_;
  auto flat = std::make_shared<Rep>();
  const Rep& one = *rep_;
  flat->validity.assign(n, one.validity[0]);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      flat->ints.assign(n, one.ints[0]);
      break;
    case TypeId::kDouble:
      flat->doubles.assign(n, one.doubles[0]);
      break;
    case TypeId::kString:
      flat->strings.assign(n, one.strings[0]);
      for (const auto& s : flat->strings) flat->string_bytes += StrCost(s);
      break;
    case TypeId::kInvalid:
      break;
  }
  flat->Recharge();
  rep_ = std::move(flat);
  constant_ = false;
  logical_size_ = 0;
}

void ColumnVector::Materialize() {
  if (constant_ || view_) EnsureUnique();
}

void ColumnVector::Reserve(size_t n) {
  Rep* rep = EnsureUnique();
  rep->validity.reserve(n);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      rep->ints.reserve(n);
      break;
    case TypeId::kDouble:
      rep->doubles.reserve(n);
      break;
    case TypeId::kString:
      if (rep->dict) {
        rep->codes.reserve(n);
      } else {
        rep->strings.reserve(n);
      }
      break;
    case TypeId::kInvalid:
      break;
  }
  rep->Recharge();
}

void ColumnVector::Clear() {
  rep_.reset();
  constant_ = false;
  view_ = false;
  offset_ = 0;
  logical_size_ = 0;
}

void ColumnVector::ResizeForOverwrite(size_t n) {
  // A shared rep is dropped rather than cloned: the contents are about to
  // be overwritten, so copying them would be pure waste.
  if (!rep_ || view_ || rep_.use_count() > 1) rep_ = std::make_shared<Rep>();
  constant_ = false;
  view_ = false;
  offset_ = 0;
  logical_size_ = 0;
  Rep* rep = rep_.get();
  rep->validity.resize(n);
  rep->ints.clear();
  rep->doubles.clear();
  rep->strings.clear();
  rep->string_bytes = 0;
  rep->codes.clear();
  rep->dict.reset();
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      rep->ints.resize(n);
      break;
    case TypeId::kDouble:
      rep->doubles.resize(n);
      break;
    case TypeId::kString:
      rep->strings.resize(n);
      if (n != 0) rep->string_bytes = n * StrCost(rep->strings.front());
      break;
    case TypeId::kInvalid:
      break;
  }
  rep->Recharge();
}

void ColumnVector::AppendNull() {
  Rep* rep = EnsureUnique();
  rep->validity.push_back(0);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      rep->ints.push_back(0);
      break;
    case TypeId::kDouble:
      rep->doubles.push_back(0.0);
      break;
    case TypeId::kString:
      if (rep->dict) {
        rep->codes.push_back(0);
      } else {
        rep->strings.emplace_back();
        rep->string_bytes += StrCost(rep->strings.back());
      }
      break;
    case TypeId::kInvalid:
      break;
  }
  rep->Recharge();
}

void ColumnVector::AppendInt64(int64_t v) {
  AGORA_DCHECK(type_ == TypeId::kInt64 || type_ == TypeId::kDate ||
               type_ == TypeId::kBool);
  Rep* rep = EnsureUnique();
  rep->validity.push_back(1);
  rep->ints.push_back(v);
  rep->Recharge();
}

void ColumnVector::AppendDouble(double v) {
  AGORA_DCHECK(type_ == TypeId::kDouble);
  Rep* rep = EnsureUnique();
  rep->validity.push_back(1);
  rep->doubles.push_back(v);
  rep->Recharge();
}

void ColumnVector::AppendString(std::string v) {
  AGORA_DCHECK(type_ == TypeId::kString);
  Rep* rep = EnsureUnique();
  rep->validity.push_back(1);
  if (rep->dict) {
    rep->PushString(v);
  } else {
    rep->strings.push_back(std::move(v));
    rep->string_bytes += StrCost(rep->strings.back());
  }
  rep->Recharge();
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      AppendBool(v.bool_value());
      break;
    case TypeId::kInt64:
    case TypeId::kDate:
      AppendInt64(v.int64_value());
      break;
    case TypeId::kDouble:
      AppendDouble(v.type() == TypeId::kDouble ? v.double_value()
                                               : v.AsDouble());
      break;
    case TypeId::kString:
      AppendString(v.string_value());
      break;
    case TypeId::kInvalid:
      AGORA_CHECK(false) << "append to invalid-typed column";
  }
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t row) {
  AGORA_DCHECK(type_ == other.type_);
  if (type_ == TypeId::kString) {
    const auto p = static_cast<uint32_t>(other.PhysRow(row));
    AppendStrings(other, 0, 1, [p](size_t) { return p; });
    return;
  }
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  size_t p = other.PhysRow(row);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      AppendInt64(other.rep_->ints[p]);
      break;
    case TypeId::kDouble:
      AppendDouble(other.rep_->doubles[p]);
      break;
    case TypeId::kString:
    case TypeId::kInvalid:
      break;
  }
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t count) {
  AGORA_DCHECK(type_ == src.type_);
  AGORA_DCHECK(&src != this);
  AGORA_DCHECK(begin + count <= src.size());
  if (count == 0) return;
  if (type_ == TypeId::kString) {
    if (src.constant_) {
      AppendStrings(src, 0, count, [](size_t) { return uint32_t{0}; });
    } else {
      AppendStrings(src, src.offset_ + begin, count,
                    [](size_t i) { return static_cast<uint32_t>(i); });
    }
    return;
  }
  // EnsureUnique clones a buffer shared with `src` before it is written,
  // so `in` below always names src's untouched payload.
  Rep* out = EnsureUnique();
  const Rep& in = *src.rep_;
  // Appends the range from one of src's buffers, or `count` copies of
  // the single physical row of a constant source.
  auto append = [&](auto& to, const auto& from) {
    if (src.constant_) {
      to.insert(to.end(), count, from[0]);
    } else {
      const auto first =
          from.begin() + static_cast<std::ptrdiff_t>(src.offset_ + begin);
      to.insert(to.end(), first, first + static_cast<std::ptrdiff_t>(count));
    }
  };
  append(out->validity, in.validity);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      append(out->ints, in.ints);
      break;
    case TypeId::kDouble:
      append(out->doubles, in.doubles);
      break;
    case TypeId::kString:  // AppendStrings above
    case TypeId::kInvalid:
      break;
  }
  out->Recharge();
}

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  size_t p = PhysRow(i);
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(rep_->ints[p] != 0);
    case TypeId::kInt64:
      return Value::Int64(rep_->ints[p]);
    case TypeId::kDate:
      return Value::Date(rep_->ints[p]);
    case TypeId::kDouble:
      return Value::Double(rep_->doubles[p]);
    case TypeId::kString:
      return Value::String(rep_->Str(p));
    case TypeId::kInvalid:
      return Value::Null();
  }
  return Value::Null();
}

void ColumnVector::Scatter(const std::vector<uint32_t>& rows,
                           const ColumnVector& src) {
  AGORA_DCHECK(type_ == src.type_);
  AGORA_DCHECK(rows.size() == src.size());
  const size_t n = rows.size();
  if (n == 0) return;
  Rep* out = EnsureUnique();
  const Rep& in = *src.rep_;
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      for (size_t i = 0; i < n; ++i) {
        const size_t p = src.PhysRow(i);
        const bool valid = in.validity[p] != 0;
        out->validity[rows[i]] = valid ? 1 : 0;
        out->ints[rows[i]] = valid ? in.ints[p] : 0;
      }
      break;
    case TypeId::kDouble:
      for (size_t i = 0; i < n; ++i) {
        const size_t p = src.PhysRow(i);
        const bool valid = in.validity[p] != 0;
        out->validity[rows[i]] = valid ? 1 : 0;
        out->doubles[rows[i]] = valid ? in.doubles[p] : 0.0;
      }
      break;
    case TypeId::kString: {
      size_t i = 0;
      if (out->dict != nullptr) {
        // Translate each distinct src entry once; a one-row scatter
        // interns directly instead of sizing a table by src's dictionary.
        std::vector<uint32_t> translated;
        if (in.dict && n > 1) {
          translated.assign(in.dict->size(), Dictionary::kNotFound);
        }
        for (; i < n; ++i) {
          const size_t p = src.PhysRow(i);
          if (in.validity[p] == 0) {
            out->validity[rows[i]] = 0;
            out->codes[rows[i]] = 0;
            continue;
          }
          uint32_t code;
          if (translated.empty()) {
            code = out->Intern(in.Str(p));
          } else {
            uint32_t& slot = translated[in.codes[p]];
            if (slot == Dictionary::kNotFound) slot = out->Intern(in.Str(p));
            code = slot;
          }
          if (code == Dictionary::kNotFound) {
            out->Decode();  // full: this row and the rest go flat
            break;
          }
          out->validity[rows[i]] = 1;
          out->codes[rows[i]] = code;
        }
      }
      for (; i < n; ++i) {
        const size_t p = src.PhysRow(i);
        const bool valid = in.validity[p] != 0;
        std::string& dst = out->strings[rows[i]];
        out->string_bytes -= StrCost(dst);
        if (valid) {
          dst = in.Str(p);
        } else {
          dst.clear();
        }
        out->string_bytes += StrCost(dst);
        out->validity[rows[i]] = valid ? 1 : 0;
      }
      break;
    }
    case TypeId::kInvalid:
      break;
  }
  out->Recharge();
}

bool ColumnVector::AllValid() const {
  if (!rep_) return true;
  const uint8_t* valid = rep_->validity.data() + offset_;
  const size_t n = constant_ ? 1 : size();
  for (size_t i = 0; i < n; ++i) {
    if (valid[i] == 0) return false;
  }
  return true;
}

uint64_t ColumnVector::HashRow(size_t i) const {
  if (IsNull(i)) return 0x6e756c6cULL;
  size_t p = PhysRow(i);
  switch (type_) {
    case TypeId::kString:
      return rep_->dict ? rep_->dict->hashes()[rep_->codes[p]]
                        : HashString(rep_->strings[p]);
    case TypeId::kDouble:
      return HashDouble(rep_->doubles[p]);
    default:
      return HashMix64(static_cast<uint64_t>(rep_->ints[p]));
  }
}

void ColumnVector::HashBatch(uint64_t* hashes, size_t n, bool combine,
                             const uint32_t* sel) const {
  AGORA_DCHECK(!constant_);
  AGORA_DCHECK(sel != nullptr || n <= size());
  if (n == 0) return;
  const uint8_t* valid = validity_data();
  // One loop per type and per row mapping, so the selection costs one
  // indexed load and no branch per row.
  auto hash_rows = [&](auto row_of) {
    auto emit = [&](size_t i, uint64_t h) {
      hashes[i] = combine ? HashCombine(hashes[i], h) : h;
    };
    switch (type_) {
      case TypeId::kString:
        if (rep_->dict) {
          // Each entry was hashed once, when it was interned.
          const uint64_t* entry_hashes = rep_->dict->hashes();
          const uint32_t* codes = codes_data();
          for (size_t i = 0; i < n; ++i) {
            size_t r = row_of(i);
            emit(i, valid[r] != 0 ? entry_hashes[codes[r]] : kNullHash);
          }
          break;
        }
        {
          const std::string* strs = string_data();
          for (size_t i = 0; i < n; ++i) {
            size_t r = row_of(i);
            emit(i, valid[r] != 0 ? HashString(strs[r]) : kNullHash);
          }
        }
        break;
      case TypeId::kDouble: {
        const double* x = double_data();
        for (size_t i = 0; i < n; ++i) {
          size_t r = row_of(i);
          emit(i, valid[r] != 0 ? HashDouble(x[r]) : kNullHash);
        }
        break;
      }
      default: {
        const int64_t* x = int64_data();
        for (size_t i = 0; i < n; ++i) {
          size_t r = row_of(i);
          emit(i, valid[r] != 0 ? HashMix64(static_cast<uint64_t>(x[r]))
                                : kNullHash);
        }
        break;
      }
    }
  };
  if (sel == nullptr) {
    hash_rows([](size_t i) { return i; });
  } else {
    hash_rows([sel](size_t i) { return static_cast<size_t>(sel[i]); });
  }
}

void ColumnVector::BatchEqualRows(const uint32_t* rows,
                                  const ColumnVector& other,
                                  const uint32_t* other_rows, size_t n,
                                  bool bitwise_doubles,
                                  uint8_t* equal) const {
  AGORA_DCHECK(type_ == other.type_);
  AGORA_DCHECK(!constant_ && !other.constant_);
  if (!rep_ || !other.rep_) return;  // an empty side means n == 0
  const uint8_t* lv = validity_data();
  const uint8_t* rv = other.validity_data();
  switch (type_) {
    case TypeId::kString: {
      if (SharesDictionaryWith(other)) {
        const uint32_t* lc = codes_data();
        const uint32_t* rc = other.codes_data();
        for (size_t i = 0; i < n; ++i) {
          if (equal[i] == 0) continue;
          size_t a = rows[i], b = other_rows[i];
          bool an = lv[a] == 0, bn = rv[b] == 0;
          equal[i] = (an || bn) ? (an && bn) : (lc[a] == rc[b]);
        }
        break;
      }
      const Rep& lhs = *rep_;
      const Rep& rhs = *other.rep_;
      for (size_t i = 0; i < n; ++i) {
        if (equal[i] == 0) continue;
        size_t a = rows[i], b = other_rows[i];
        bool an = lv[a] == 0, bn = rv[b] == 0;
        equal[i] = (an || bn) ? (an && bn)
                              : (lhs.Str(offset_ + a) ==
                                 rhs.Str(other.offset_ + b));
      }
      break;
    }
    case TypeId::kDouble: {
      const double* lx = double_data();
      const double* rx = other.double_data();
      for (size_t i = 0; i < n; ++i) {
        if (equal[i] == 0) continue;
        size_t a = rows[i], b = other_rows[i];
        bool an = lv[a] == 0, bn = rv[b] == 0;
        if (an || bn) {
          equal[i] = an && bn;
          continue;
        }
        double x = lx[a], y = rx[b];
        if (bitwise_doubles) {
          if (x == 0.0) x = 0.0;
          if (y == 0.0) y = 0.0;
          uint64_t xb, yb;
          std::memcpy(&xb, &x, sizeof(xb));
          std::memcpy(&yb, &y, sizeof(yb));
          equal[i] = xb == yb;
        } else {
          equal[i] = !(x < y) && !(x > y);
        }
      }
      break;
    }
    default: {
      const int64_t* lx = int64_data();
      const int64_t* rx = other.int64_data();
      for (size_t i = 0; i < n; ++i) {
        if (equal[i] == 0) continue;
        size_t a = rows[i], b = other_rows[i];
        bool an = lv[a] == 0, bn = rv[b] == 0;
        equal[i] = (an || bn) ? (an && bn) : (lx[a] == rx[b]);
      }
      break;
    }
  }
}

template <typename RowFn>
void ColumnVector::AppendStrings(const ColumnVector& src, size_t base,
                                 size_t n, RowFn row_of) {
  if (n == 0) return;
  if (size() == 0 && !constant_ && src.is_dictionary()) {
    *this = src.EmptyLike();
  }
  Rep* out = EnsureUnique();
  // An empty src is legal when every row is padding (NULLs from an empty
  // build side); fall back to an empty Rep so no row can index it.
  static const Rep kEmptyRep(nullptr);
  const Rep& in = src.rep_ ? *src.rep_ : kEmptyRep;
  const uint8_t* in_valid = in.validity.data() + base;
  ReserveMore(&out->validity, n);
  size_t i = 0;
  if (out->dict != nullptr && out->dict == in.dict) {
    // Same dictionary: codes move as they are.
    const uint32_t* in_codes = in.codes.data() + base;
    ReserveMore(&out->codes, n);
    uint8_t* valid_out = GrowBy(&out->validity, n);
    uint32_t* codes_out = GrowBy(&out->codes, n);
    for (; i < n; ++i) {
      const uint32_t r = row_of(i);
      const bool valid = r != kPadRow && in_valid[r] != 0;
      valid_out[i] = valid ? 1 : 0;
      codes_out[i] = valid ? in_codes[r] : 0;
    }
  } else if (out->dict != nullptr) {
    // Intern into this dictionary; a dictionary source appending a batch
    // is translated once per distinct entry, not once per row.
    std::vector<uint32_t> translated;
    if (in.dict && n > 1) {
      translated.assign(in.dict->size(), Dictionary::kNotFound);
    }
    ReserveMore(&out->codes, n);
    for (; i < n; ++i) {
      const uint32_t r = row_of(i);
      if (r == kPadRow || in_valid[r] == 0) {
        out->validity.push_back(0);
        out->codes.push_back(0);
        continue;
      }
      uint32_t code;
      if (translated.empty()) {
        code = out->Intern(in.Str(base + r));
      } else {
        uint32_t& slot = translated[in.codes[base + r]];
        if (slot == Dictionary::kNotFound) {
          slot = out->Intern(in.Str(base + r));
        }
        code = slot;
      }
      if (code == Dictionary::kNotFound) {
        out->Decode();  // full: this row and the rest go flat
        break;
      }
      out->validity.push_back(1);
      out->codes.push_back(code);
    }
  }
  if (i < n) {
    ReserveMore(&out->strings, (n - i));
    for (; i < n; ++i) {
      const uint32_t r = row_of(i);
      const bool valid = r != kPadRow && in_valid[r] != 0;
      out->validity.push_back(valid ? 1 : 0);
      if (valid) {
        out->strings.push_back(in.Str(base + r));
      } else {
        out->strings.emplace_back();
      }
      out->string_bytes += StrCost(out->strings.back());
    }
  }
  out->Recharge();
}

void ColumnVector::AppendGatherPadded(const ColumnVector& src,
                                      const uint32_t* sel, size_t n) {
  AGORA_DCHECK(type_ == src.type_);
  AGORA_DCHECK(!src.constant_);
  if (n == 0) return;
  if (type_ == TypeId::kString) {
    AppendStrings(src, src.offset_, n, [sel](size_t i) { return sel[i]; });
    return;
  }
  Rep* out = EnsureUnique();
  // An empty src (every row padding) has null buffers no row reads.
  const uint8_t* in_valid = src.validity_data();
  out->validity.reserve(out->validity.size() + n);
  uint8_t* valid_out = GrowBy(&out->validity, n);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate: {
      const int64_t* in_ints = src.int64_data();
      out->ints.reserve(out->ints.size() + n);
      int64_t* ints_out = GrowBy(&out->ints, n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t s = sel[i];
        bool valid = s != kPadRow && in_valid[s] != 0;
        valid_out[i] = valid ? 1 : 0;
        ints_out[i] = valid ? in_ints[s] : 0;
      }
      break;
    }
    case TypeId::kDouble: {
      const double* in_doubles = src.double_data();
      out->doubles.reserve(out->doubles.size() + n);
      double* doubles_out = GrowBy(&out->doubles, n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t s = sel[i];
        bool valid = s != kPadRow && in_valid[s] != 0;
        valid_out[i] = valid ? 1 : 0;
        doubles_out[i] = valid ? in_doubles[s] : 0.0;
      }
      break;
    }
    case TypeId::kString:  // AppendStrings above
    case TypeId::kInvalid:
      break;
  }
  out->Recharge();
}

int ColumnVector::CompareRows(size_t i, const ColumnVector& other,
                              size_t j) const {
  AGORA_DCHECK(type_ == other.type_);
  bool an = IsNull(i), bn = other.IsNull(j);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;
  }
  size_t p = PhysRow(i), q = other.PhysRow(j);
  switch (type_) {
    case TypeId::kString: {
      if (SharesDictionaryWith(other) &&
          rep_->codes[p] == other.rep_->codes[q]) {
        return 0;
      }
      int c = rep_->Str(p).compare(other.rep_->Str(q));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeId::kDouble: {
      double a = rep_->doubles[p], b = other.rep_->doubles[q];
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      int64_t a = rep_->ints[p], b = other.rep_->ints[q];
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  }
}

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  if (constant_) {
    // Gathering from a constant yields the same constant, resized.
    ColumnVector out = *this;
    out.logical_size_ = sel.size();
    if (sel.empty()) out.Clear();
    return out;
  }
  ColumnVector out = EmptyLike();
  out.AppendGatherPadded(*this, sel.data(), sel.size());
  return out;
}

ColumnVector ColumnVector::Slice(size_t begin, size_t count) const {
  AGORA_DCHECK(begin + count <= size());
  if (count == 0) return EmptyLike();
  ColumnVector out = *this;
  if (!constant_) {
    out.view_ = true;
    out.offset_ = offset_ + begin;
  }
  out.logical_size_ = count;
  return out;
}

size_t ColumnVector::MemoryBytes() const {
  if (!rep_ || view_) return 0;
  const Rep& rep = *rep_;
  return rep.validity.capacity() + rep.ints.capacity() * sizeof(int64_t) +
         rep.doubles.capacity() * sizeof(double) +
         rep.codes.capacity() * sizeof(uint32_t) + rep.string_bytes;
}

Status ColumnVector::CheckConsistency() const {
  size_t rows = rep_ ? rep_->validity.size() : 0;
  if (view_ && (!rep_ || offset_ + logical_size_ > rows)) {
    return Status::Internal(
        "column vector view of rows [" + std::to_string(offset_) + ", " +
        std::to_string(offset_ + logical_size_) + ") exceeds its buffer of " +
        std::to_string(rows) + " rows");
  }
  if (constant_) {
    if (rows != 1) {
      return Status::Internal(
          "constant column vector must hold exactly one physical row, has " +
          std::to_string(rows));
    }
    rows = 1;  // payload check below covers the single physical row
  }
  if (is_dictionary()) return CheckDictionary(rows);
  size_t payload = 0;
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64:
    case TypeId::kDate:
      payload = rep_ ? rep_->ints.size() : 0;
      break;
    case TypeId::kDouble:
      payload = rep_ ? rep_->doubles.size() : 0;
      break;
    case TypeId::kString:
      payload = rep_ ? rep_->strings.size() : 0;
      break;
    default:
      if (rows != 0) {
        return Status::Internal(
            "column vector of invalid type declares " + std::to_string(rows) +
            " rows");
      }
      return Status::OK();
  }
  if (payload != rows) {
    return Status::Internal(
        std::string("column vector payload/validity mismatch: type ") +
        std::string(TypeIdToString(type_)) + " has " +
        std::to_string(payload) + " payload rows but validity declares " +
        std::to_string(rows));
  }
  return Status::OK();
}

Status ColumnVector::CheckDictionary(size_t rows) const {
  const Rep& rep = *rep_;
  if (type_ != TypeId::kString || constant_ || !rep.strings.empty()) {
    return Status::Internal(
        "dictionary column vector must be a flat VARCHAR without string "
        "payload");
  }
  if (rep.codes.size() != rows) {
    return Status::Internal("dictionary column vector has " +
                            std::to_string(rep.codes.size()) +
                            " codes but validity declares " +
                            std::to_string(rows) + " rows");
  }
  const Dictionary& dict = *rep.dict;
  const uint8_t* valid = validity_data();
  const uint32_t* codes = codes_data();
  for (size_t r = 0; r < size(); ++r) {
    if (valid[r] != 0 && codes[r] >= dict.size()) {
      return Status::Internal("dictionary code " + std::to_string(codes[r]) +
                              " at row " + std::to_string(r) +
                              " is out of range (" +
                              std::to_string(dict.size()) + " entries)");
    }
  }
  for (uint32_t c = 0; c < dict.size(); ++c) {
    const std::string& e = dict.entry(c);
    if (dict.hashes()[c] != HashString(e) ||
        dict.Find(e, dict.hashes()[c]) != c) {
      return Status::Internal("dictionary entry " + std::to_string(c) +
                              " is duplicated or mis-indexed");
    }
  }
  return Status::OK();
}

}  // namespace agora
