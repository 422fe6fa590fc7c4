#include "types/type.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/string_util.h"

namespace agora {

std::string_view TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kInvalid:
      return "INVALID";
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
    case TypeId::kDate:
      return "DATE";
  }
  return "INVALID";
}

TypeId TypeIdFromString(std::string_view name) {
  std::string n = ToUpper(name);
  // Strip a parenthesized length, e.g. VARCHAR(32).
  size_t paren = n.find('(');
  if (paren != std::string::npos) n = n.substr(0, paren);
  if (n == "BOOLEAN" || n == "BOOL") return TypeId::kBool;
  if (n == "BIGINT" || n == "INT" || n == "INTEGER" || n == "INT64" ||
      n == "SMALLINT" || n == "TINYINT") {
    return TypeId::kInt64;
  }
  if (n == "DOUBLE" || n == "FLOAT" || n == "REAL" || n == "DECIMAL" ||
      n == "NUMERIC") {
    return TypeId::kDouble;
  }
  if (n == "VARCHAR" || n == "TEXT" || n == "STRING" || n == "CHAR") {
    return TypeId::kString;
  }
  if (n == "DATE") return TypeId::kDate;
  return TypeId::kInvalid;
}

TypeId CommonNumericType(TypeId a, TypeId b) {
  if (!IsNumeric(a) || !IsNumeric(b)) return TypeId::kInvalid;
  if (a == TypeId::kDouble || b == TypeId::kDouble) return TypeId::kDouble;
  // Date arithmetic degrades to int64 (day counts).
  if (a == TypeId::kDate && b == TypeId::kDate) return TypeId::kInt64;
  return TypeId::kInt64;
}

bool ImplicitlyCoercible(TypeId from, TypeId to) {
  if (from == to) return true;
  if (from == TypeId::kInt64 && to == TypeId::kDouble) return true;
  if (from == TypeId::kDate && to == TypeId::kInt64) return true;
  if (from == TypeId::kInt64 && to == TypeId::kDate) return true;
  return false;
}

namespace {
// Civil-day conversion from Howard Hinnant's algorithms (public domain).
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 +
         static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}
}  // namespace

int64_t MakeDate(int year, int month, int day) {
  return DaysFromCivil(year, static_cast<unsigned>(month),
                       static_cast<unsigned>(day));
}

int YearOfDate(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

int MonthOfDate(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return static_cast<int>(m);
}

size_t FormatDate(int64_t days, char* buf) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  if (y >= 0 && y <= 9999) {
    auto two_digits = [](char* out, unsigned v) {
      out[0] = static_cast<char>('0' + v / 10);
      out[1] = static_cast<char>('0' + v % 10);
    };
    two_digits(buf, static_cast<unsigned>(y) / 100);
    two_digits(buf + 2, static_cast<unsigned>(y) % 100);
    buf[4] = '-';
    two_digits(buf + 5, m);
    buf[7] = '-';
    two_digits(buf + 8, d);
    return 10;
  }
  // Years outside 0..9999 keep printf's rendering ("-001", "12345").
  char wide[kMaxDateChars + 1];
  const int n = std::snprintf(wide, sizeof(wide), "%04d-%02u-%02u", y, m, d);
  const size_t len = std::min(static_cast<size_t>(n), kMaxDateChars);
  std::memcpy(buf, wide, len);
  return len;
}

std::string DateToString(int64_t days) {
  char buf[kMaxDateChars];
  return std::string(buf, FormatDate(days, buf));
}

bool ParseDate(std::string_view s, int64_t* days_out) {
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return false;
  int y = 0, m = 0, d = 0;
  for (int i = 0; i < 4; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    y = y * 10 + (s[i] - '0');
  }
  for (int i = 5; i < 7; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    m = m * 10 + (s[i] - '0');
  }
  for (int i = 8; i < 10; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    d = d * 10 + (s[i] - '0');
  }
  if (m < 1 || m > 12 || d < 1 || d > 31) return false;
  *days_out = MakeDate(y, m, d);
  return true;
}

}  // namespace agora
