#include "server/json_util.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace agora {

namespace {

/// Recursive-descent parser over a string_view with an explicit cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    AGORA_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing bytes after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Fail(const std::string& what) const {
    return Status::ParseError("invalid JSON at byte " + std::to_string(pos_) +
                              ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (ConsumeLiteral("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Fail(std::string("unexpected character '") + c + "'");
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      AGORA_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      AGORA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object_items.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      AGORA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array_items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    Consume('"');
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // consume backslash
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point; surrogate halves (which
          // would need pairing) degrade to '?' rather than mojibake.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            out->push_back('?');
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token == "-") {
      return Fail("malformed number '" + token + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_items) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  // Bytes that need no escaping are copied in bulk runs; only '"', '\\'
  // and control bytes break a run.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\"", 2); break;
      case '\\': out->append("\\\\", 2); break;
      case '\b': out->append("\\b", 2); break;
      case '\f': out->append("\\f", 2); break;
      case '\n': out->append("\\n", 2); break;
      case '\r': out->append("\\r", 2); break;
      case '\t': out->append("\\t", 2); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(&out, s);
  return out;
}

namespace {

__extension__ typedef unsigned __int128 Uint128;

constexpr std::array<uint64_t, 20> kPow10 = [] {
  std::array<uint64_t, 20> pow{};
  pow[0] = 1;
  for (size_t i = 1; i < pow.size(); ++i) pow[i] = pow[i - 1] * 10;
  return pow;
}();

/// The digits of a double m·2^-q at scale s (s digits after the point),
/// rounded to nearest, ties to even, as printf rounds the exact binary
/// value.
struct ScaledDigits {
  uint64_t digits;
  /// digits·10^-s parses back to exactly m·2^-q.
  bool reads_back;
};

/// Rounds exact / 2^q, where exact = m·10^s = m·pow, 1 <= q < 128.
/// `reads_back` tests |n·2^q − m·10^s| < 10^s/2: the decimal lies within
/// half the gap to the next double. That is exact for 15 digits of a
/// value in 1e-4 <= |v| < 1e15. No tie arises, since a point halfway
/// between two doubles has at least 16 significant digits. The half-width
/// gap below a power of two does not matter either: every power of two
/// in that range has at most 15 digits, so they are exact.
ScaledDigits RoundScaled(Uint128 exact, int q, Uint128 pow) {
  Uint128 n = exact >> q;
  const Uint128 rem = exact - (n << q);
  const Uint128 half = Uint128{1} << (q - 1);
  n += (rem > half) | ((rem == half) & static_cast<bool>(n & 1));
  const Uint128 scaled = n << q;
  const Uint128 dist = scaled > exact ? scaled - exact : exact - scaled;
  return {static_cast<uint64_t>(n), 2 * dist < pow};
}

/// "00".."99", for writing two digits per division.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (size_t i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Writes `count` digits of `*digits` from the right (zero-padded) so
/// that they end just before `end`, and drops them from `*digits`.
char* WriteDigitsBackward(char* end, uint64_t* digits, int count) {
  char* p = end;
  for (; count >= 2; count -= 2) {
    p -= 2;
    std::memcpy(p, &kDigitPairs[2 * (*digits % 100)], 2);
    *digits /= 100;
  }
  if (count == 1) {
    *--p = static_cast<char>('0' + *digits % 10);
    *digits /= 10;
  }
  return p;
}

/// Writes digits·10^-scale in printf's fixed layout, with trailing zeros
/// (and a bare point) dropped, so that it ends just before `end`; returns
/// where the text starts.
char* WriteFixed(char* end, uint64_t digits, int scale) {
  while (scale > 0 && digits % 10 == 0) {
    digits /= 10;
    --scale;
  }
  char* p = end;
  if (scale > 0) {
    p = WriteDigitsBackward(p, &digits, scale);
    *--p = '.';
  }
  while (digits >= 100) p = WriteDigitsBackward(p, &digits, 2);
  return WriteDigitsBackward(p, &digits, digits >= 10 ? 2 : 1);
}

/// Writes `mag`, 1e-4 <= mag < 1e15, as %.15g, or as %.17g when the 15
/// digits do not read back, ending just before `end`; returns where the
/// text starts. In that range both use the fixed layout, so the text is
/// the rounded digits with the point placed.
char* WriteFixedRange(char* end, double mag) {
  // The nearest double to k/10^4 with k < 10^15 (integers, cents, rates):
  // k/10^4 lies on the 15-digit grid, nearer to mag than half a grid
  // step, and reads back as mag because the division rounds correctly.
  const double scaled = mag * 1e4;
  if (scaled < 1e15) {
    const auto k = static_cast<int64_t>(scaled + 0.5);
    if (static_cast<double>(k) / 1e4 == mag) {
      return WriteFixed(end, static_cast<uint64_t>(k), 4);
    }
  }

  uint64_t bits;
  std::memcpy(&bits, &mag, sizeof(bits));
  constexpr uint64_t kHiddenBit = uint64_t{1} << 52;
  const uint64_t m = (bits & (kHiddenBit - 1)) | kHiddenBit;
  const int q = 1075 - static_cast<int>(bits >> 52);  // mag = m·2^-q
  // With k10 = floor((52-q)·log10 2), 10^k10 <= 2^(52-q) <= mag <
  // 10^(k10+2), so the decimal exponent X is k10, or k10+1 when mag has
  // 16 digits before scale 14-k10. The 15 digits sit at scale s = 14-X,
  // and m·10^s stays below 2^53·10^19 < 2^117.
  const int k10 = ((52 - q) * 78913) >> 18;
  int s = 14 - k10;
  s -= (Uint128{m} * kPow10[s]) >> q >= kPow10[15];
  const Uint128 exact = Uint128{m} * kPow10[s];
  const ScaledDigits d15 = RoundScaled(exact, q, kPow10[s]);
  if (d15.reads_back) return WriteFixed(end, d15.digits, s);
  return WriteFixed(
      end, RoundScaled(exact * 100, q, Uint128{kPow10[s]} * 100).digits,
      s + 2);
}

}  // namespace

void AppendJsonDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null", 4);
    return;
  }
  char buf[32];
  const double mag = std::fabs(v);
  if (mag >= 1e-4 && mag < 1e15) {
    char* end = buf + sizeof(buf);
    char* start = WriteFixedRange(end, mag);
    if (v < 0) *--start = '-';
    out->append(start, static_cast<size_t>(end - start));
    return;
  }
  // Zeros, subnormals and the exponent layout: std::to_chars with an
  // explicit precision writes printf's bytes.
  char* end = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, 15)
                  .ptr;
  double parsed = 0.0;
  const std::from_chars_result back = std::from_chars(buf, end, parsed);
  if (back.ec != std::errc() || parsed != v) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        17)
              .ptr;
  }
  out->append(buf, static_cast<size_t>(end - buf));
}

size_t JsonIntColumnWidth(const int64_t* ints, const uint8_t* validity,
                          size_t rows) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  bool any_null = false;
  for (size_t row = 0; row < rows; ++row) {
    const bool valid = validity[row] != 0;
    lo = valid && ints[row] < lo ? ints[row] : lo;
    hi = valid && ints[row] > hi ? ints[row] : hi;
    any_null = any_null || !valid;
  }
  size_t widest = any_null ? 4 : 0;
  if (lo <= hi) {
    char buf[24];
    for (int64_t v : {lo, hi}) {
      const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
      widest = std::max(widest, static_cast<size_t>(end - buf));
    }
  }
  return widest;
}

}  // namespace agora
