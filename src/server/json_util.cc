#include "server/json_util.h"

#include <cctype>
#include <cstdlib>

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

}  // namespace agora
