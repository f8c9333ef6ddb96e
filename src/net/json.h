/// \file json.h
/// \brief Minimal, dependency-free JSON for the network front end
/// (DESIGN.md §6): a small document value, a strict parser, and a
/// *deterministic* writer.
///
/// The routing invariant of the shard layer — a routed request returns a
/// byte-identical response to an in-process call — makes the serializer
/// part of the correctness surface, not a convenience: two processes that
/// render the same summary must produce the same bytes. The writer
/// therefore guarantees:
///
///  - object keys serialize in *insertion* order (objects are ordered
///    key/value vectors, never hash maps);
///  - integers print as integers; non-integral doubles print via
///    `std::to_chars` shortest-round-trip form, which is unique for a
///    given bit pattern;
///  - strings escape exactly `"` `\` and control characters (`\uXXXX`
///    for codepoints < 0x20 without a short form);
///  - no insignificant whitespace is emitted.
///
/// The parser is strict (no trailing garbage, no comments, no NaN/Inf
/// literals), depth-limited so adversarial nesting cannot overflow the
/// stack, and exception-free: errors come back as `Status`.

#ifndef XSUM_NET_JSON_H_
#define XSUM_NET_JSON_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace xsum::net {

/// \brief One JSON document node: null, bool, number (integer and double
/// lanes kept distinct), string, array, or object.
class JsonValue {
 public:
  enum class Kind : uint8_t {
    kNull = 0,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  /// Constructs null.
  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  JsonValue(int64_t i) : kind_(Kind::kInt), int_(i) {}  // NOLINT
  JsonValue(int i) : JsonValue(static_cast<int64_t>(i)) {}  // NOLINT
  JsonValue(uint64_t u)  // NOLINT
      : kind_(Kind::kInt), int_(static_cast<int64_t>(u)) {}
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}  // NOLINT
  JsonValue(std::string s)  // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}  // NOLINT

  /// Empty array / empty object factories.
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  /// True for both integer and double numbers.
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; requirements mirror `is_*` (callers check first —
  /// out-of-kind access returns the type's zero value).
  bool AsBool() const { return kind_ == Kind::kBool && bool_; }
  int64_t AsInt() const {
    if (kind_ == Kind::kInt) return int_;
    if (kind_ == Kind::kDouble) return static_cast<int64_t>(double_);
    return 0;
  }
  double AsDouble() const {
    if (kind_ == Kind::kDouble) return double_;
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    return 0.0;
  }
  const std::string& AsString() const { return string_; }

  /// Array access.
  const std::vector<JsonValue>& items() const { return items_; }
  JsonValue& Append(JsonValue value) {
    items_.push_back(std::move(value));
    return items_.back();
  }

  /// Object access: insertion-ordered members.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  /// Sets \p key to \p value (replaces an existing member in place, so
  /// serialization order stays the first-insertion order).
  void Set(const std::string& key, JsonValue value);
  /// Member lookup; nullptr when absent (or when this is not an object).
  const JsonValue* Find(const std::string& key) const;

  /// Serializes deterministically (see file comment).
  std::string Dump() const;

 private:
  void DumpTo(std::string* out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Most chars `WriteJsonInt` writes: a sign and 19 digits.
inline constexpr size_t kMaxJsonIntChars = 20;

/// Writes \p value in decimal at \p out (room for `kMaxJsonIntChars`),
/// exactly as `JsonValue::Dump` prints the integer lane, and returns one
/// past the last char written. Writers that render a large fixed-shape
/// document without building a tree (the `/summarize` response) format
/// through this, `AppendJsonInt` and `AppendJsonString`, so there is one
/// formatting rule.
inline char* WriteJsonInt(int64_t value, char* out) {
  return std::to_chars(out, out + kMaxJsonIntChars, value).ptr;
}

/// Appends \p value as `WriteJsonInt` writes it.
void AppendJsonInt(int64_t value, std::string* out);

/// Appends \p s quoted and escaped, exactly as `JsonValue::Dump` prints
/// strings and object keys.
void AppendJsonString(std::string_view s, std::string* out);

/// Parses \p text as one complete JSON document (trailing whitespace
/// allowed, anything else is an error). \p max_depth bounds array/object
/// nesting so hostile inputs cannot exhaust the parser's stack.
Result<JsonValue> ParseJson(std::string_view text, size_t max_depth = 64);

}  // namespace xsum::net

#endif  // XSUM_NET_JSON_H_
