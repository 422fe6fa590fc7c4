#include "types/value.h"

#include "common/hash.h"
#include "common/string_util.h"

namespace agora {

Result<Value> Value::CastTo(TypeId target) const {
  if (is_null()) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case TypeId::kDouble:
      if (type_ == TypeId::kInt64 || type_ == TypeId::kBool ||
          type_ == TypeId::kDate) {
        return Value::Double(static_cast<double>(std::get<int64_t>(data_)));
      }
      if (type_ == TypeId::kString) {
        // Explicit casts from strings parse; used by the CSV importer.
        try {
          return Value::Double(std::stod(std::get<std::string>(data_)));
        } catch (...) {
          return Status::TypeError("cannot parse '" +
                                   std::get<std::string>(data_) +
                                   "' as DOUBLE");
        }
      }
      break;
    case TypeId::kInt64:
      if (type_ == TypeId::kDouble) {
        // Truncation fits BIGINT exactly for [-2^63, 2^63); NaN fails both
        // tests.
        const double d = std::get<double>(data_);
        if (!(d >= -0x1p63 && d < 0x1p63)) {
          return Status::OutOfRange("DOUBLE value out of BIGINT range");
        }
        return Value::Int64(static_cast<int64_t>(d));
      }
      if (type_ == TypeId::kBool || type_ == TypeId::kDate) {
        return Value::Int64(std::get<int64_t>(data_));
      }
      if (type_ == TypeId::kString) {
        try {
          return Value::Int64(std::stoll(std::get<std::string>(data_)));
        } catch (...) {
          return Status::TypeError("cannot parse '" +
                                   std::get<std::string>(data_) +
                                   "' as BIGINT");
        }
      }
      break;
    case TypeId::kDate:
      if (type_ == TypeId::kInt64) {
        return Value::Date(std::get<int64_t>(data_));
      }
      if (type_ == TypeId::kString) {
        int64_t days;
        if (ParseDate(std::get<std::string>(data_), &days)) {
          return Value::Date(days);
        }
        return Status::TypeError("cannot parse '" +
                                 std::get<std::string>(data_) + "' as DATE");
      }
      break;
    case TypeId::kString:
      return Value::String(ToString());
    case TypeId::kBool:
      if (type_ == TypeId::kInt64) {
        return Value::Bool(std::get<int64_t>(data_) != 0);
      }
      break;
    case TypeId::kInvalid:
      break;
  }
  return Status::TypeError(std::string("cannot cast ") +
                           std::string(TypeIdToString(type_)) + " to " +
                           std::string(TypeIdToString(target)));
}

int Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  // Numeric cross-type comparison.
  bool a_num = type_ != TypeId::kString;
  bool b_num = other.type_ != TypeId::kString;
  if (a_num && b_num) {
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      double a = AsDouble(), b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    int64_t a = std::get<int64_t>(data_);
    int64_t b = std::get<int64_t>(other.data_);
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (!a_num && !b_num) {
    const std::string& a = std::get<std::string>(data_);
    const std::string& b = std::get<std::string>(other.data_);
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  // Strings sort after numbers in the total order.
  return a_num ? -1 : 1;
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return std::get<int64_t>(data_) != 0 ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(std::get<int64_t>(data_));
    case TypeId::kDouble: {
      // Trim trailing zeros for readability.
      std::string s = FormatDouble(std::get<double>(data_), 6);
      while (s.size() > 1 && s.back() == '0') s.pop_back();
      if (!s.empty() && s.back() == '.') s.pop_back();
      return s;
    }
    case TypeId::kString:
      return std::get<std::string>(data_);
    case TypeId::kDate:
      return DateToString(std::get<int64_t>(data_));
    case TypeId::kInvalid:
      return "INVALID";
  }
  return "INVALID";
}

uint64_t Value::Hash() const {
  if (null_) return 0x6e756c6cULL;  // "null"
  switch (type_) {
    case TypeId::kString:
      return HashString(std::get<std::string>(data_));
    case TypeId::kDouble:
      return HashDouble(std::get<double>(data_));
    default:
      return HashMix64(static_cast<uint64_t>(std::get<int64_t>(data_)));
  }
}

}  // namespace agora
