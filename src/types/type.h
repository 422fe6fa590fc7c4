#ifndef AGORA_TYPES_TYPE_H_
#define AGORA_TYPES_TYPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace agora {

/// Logical column types supported by the engine.
///
/// Physical representation:
///   kBool   -> uint8_t (0/1)
///   kInt64  -> int64_t
///   kDouble -> double
///   kString -> std::string
///   kDate   -> int64_t (days since 1970-01-01)
enum class TypeId : uint8_t {
  kInvalid = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,
};

/// Stable name for `t` ("BOOLEAN", "BIGINT", "DOUBLE", "VARCHAR", "DATE").
std::string_view TypeIdToString(TypeId t);

/// Parses a SQL type name (case-insensitive; accepts common aliases such as
/// INT/INTEGER/BIGINT, FLOAT/REAL/DOUBLE, TEXT/VARCHAR/STRING).
/// Returns kInvalid if unrecognized.
TypeId TypeIdFromString(std::string_view name);

/// True for kInt64, kDouble and kDate (types with a numeric ordering that
/// participates in arithmetic).
inline bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate;
}

/// Result type of arithmetic between `a` and `b`; kInvalid when the
/// combination is not allowed.
TypeId CommonNumericType(TypeId a, TypeId b);

/// True if a value of `from` may be implicitly coerced to `to`
/// (int64 -> double, date -> int64, identity).
bool ImplicitlyCoercible(TypeId from, TypeId to);

/// Converts days-since-epoch to "YYYY-MM-DD".
std::string DateToString(int64_t days);

/// Longest rendering FormatDate can produce (excluding a terminator).
inline constexpr size_t kMaxDateChars = 15;

/// Writes DateToString(days) into `buf` (at least kMaxDateChars bytes,
/// not NUL-terminated) and returns its length; allocation-free.
size_t FormatDate(int64_t days, char* buf);

/// Parses "YYYY-MM-DD" into days-since-epoch. Returns false on malformed
/// input.
bool ParseDate(std::string_view s, int64_t* days_out);

/// Builds days-since-epoch from a calendar date (proleptic Gregorian).
int64_t MakeDate(int year, int month, int day);

/// Calendar year of a days-since-epoch date.
int YearOfDate(int64_t days);
/// Calendar month (1-12) of a days-since-epoch date.
int MonthOfDate(int64_t days);

}  // namespace agora

#endif  // AGORA_TYPES_TYPE_H_
