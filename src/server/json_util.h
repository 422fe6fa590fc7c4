#ifndef AGORA_SERVER_JSON_UTIL_H_
#define AGORA_SERVER_JSON_UTIL_H_

// Minimal JSON support for the HTTP front end: a recursive-descent
// parser for request bodies, and string escaping and number formatting
// for response bodies.
// The engine has no third-party dependencies, so the server carries its
// own ~200-line JSON reader rather than pulling one in. Full JSON
// grammar (RFC 8259) minus \uXXXX surrogate pairs, which the /query
// body never needs; lone escapes decode as a replacement '?'.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace agora {

/// One parsed JSON value. A tagged struct rather than a class hierarchy:
/// request bodies are tiny and short-lived, so flat storage with empty
/// unused members is simpler than a variant.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<std::pair<std::string, JsonValue>> object_items;
  std::vector<JsonValue> array_items;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses `text` as a single JSON document. Trailing non-whitespace
/// bytes, unterminated strings, bad escapes and oversized nesting all
/// fail with a ParseError Status naming the byte offset.
Result<JsonValue> ParseJson(std::string_view text);

/// Appends `s` to `*out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends `v` as a JSON number with printf's bytes: %.15g when that
/// reads back as exactly `v`, else %.17g. Deterministic, so served bytes
/// match embedded serialization byte for byte. JSON has no token for
/// infinities or NaN, so non-finite values are written as null.
void AppendJsonDouble(std::string* out, double v);

/// The longest text any of `rows` BIGINT cells prints as: "null" for a
/// cell whose `validity` byte is 0, else its decimal digits. That is the
/// wider of the least and the greatest valid value (no value between
/// them is wider), found in one pass; 0 when `rows` is 0.
size_t JsonIntColumnWidth(const int64_t* ints, const uint8_t* validity,
                          size_t rows);

/// Convenience wrapper around AppendJsonString.
std::string JsonQuote(std::string_view s);

}  // namespace agora

#endif  // AGORA_SERVER_JSON_UTIL_H_
