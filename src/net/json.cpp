#include "net/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xsum::net {

namespace {

void AppendDouble(double d, std::string* out) {
  // NaN/Inf have no JSON representation; render as null like every
  // tolerant writer does (the library never produces them in responses).
  if (!std::isfinite(d)) {
    out->append("null");
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  (void)ec;  // 64 bytes always fit the shortest round-trip form
  out->append(buf, ptr);
}

/// Strict recursive-descent parser over a string_view cursor.
class Parser {
 public:
  Parser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    XSUM_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  Status Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("expected '" + std::string(literal) + "'");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > max_depth_) return Fail("nesting deeper than limit");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        XSUM_RETURN_NOT_OK(Expect("null"));
        *out = JsonValue();
        return Status::OK();
      case 't':
        XSUM_RETURN_NOT_OK(Expect("true"));
        *out = JsonValue(true);
        return Status::OK();
      case 'f':
        XSUM_RETURN_NOT_OK(Expect("false"));
        *out = JsonValue(false);
        return Status::OK();
      case '"': {
        std::string s;
        XSUM_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue(std::move(s));
        return Status::OK();
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue item;
      XSUM_RETURN_NOT_OK(ParseValue(&item, depth + 1));
      out->Append(std::move(item));
      SkipSpace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string key in object");
      }
      std::string key;
      XSUM_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      XSUM_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipSpace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Fail("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          XSUM_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            uint32_t lo = 0;
            XSUM_RETURN_NOT_OK(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Fail("invalid UTF-16 surrogate pair");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired UTF-16 surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("non-hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
      // sign consumed
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Fail("invalid number");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        *out = JsonValue(v);
        return Status::OK();
      }
      // Fall through: integer literal too large for int64 — keep the
      // double lane rather than erroring (mirrors common parsers).
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc() || ptr != token.data() + token.size() ||
        !std::isfinite(d)) {
      return Fail("number out of range");
    }
    *out = JsonValue(d);
    return Status::OK();
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
};

}  // namespace

void AppendJsonInt(int64_t value, std::string* out) {
  char buf[kMaxJsonIntChars];
  out->append(buf, WriteJsonInt(value, buf));
}

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kInt:
      AppendJsonInt(int_, out);
      return;
    case Kind::kDouble:
      AppendDouble(double_, out);
      return;
    case Kind::kString:
      AppendJsonString(string_, out);
      return;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : items_) {
        if (!first) out->push_back(',');
        first = false;
        item.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(key, out);
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

Result<JsonValue> ParseJson(std::string_view text, size_t max_depth) {
  return Parser(text, max_depth).Parse();
}

}  // namespace xsum::net
