#pragma once
// Minimal JSON support: a streaming writer (benches emit machine-readable
// results next to the human-readable tables) and a strict recursive-descent
// parser (the server's JSONL request framing — see docs/SERVER.md).

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pmsched {

/// Streaming JSON writer; produces compact, valid JSON, appended to one
/// string.
///
/// The writer enforces well-formedness dynamically (keys only inside
/// objects, values only where a value is expected) and throws
/// std::logic_error on misuse, which keeps the bench emitters honest.
class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::size_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  [[nodiscard]] std::string str() const;

 private:
  enum class Ctx { Top, Object, Array, ExpectValue };

  void beforeValue();
  void push(Ctx c) { stack_.push_back(c); }
  [[nodiscard]] Ctx top() const { return stack_.empty() ? Ctx::Top : stack_.back(); }

  /// Append `s` as a quoted JSON string.
  void appendQuoted(std::string_view s);

  std::string out_;
  std::vector<Ctx> stack_;
  std::vector<bool> needComma_{false};
  bool done_ = false;
};

/// Malformed JSON text (byte offset included in the message). Deliberately
/// its own family: the server maps it to a typed "protocol" error response,
/// never to the graph-level ParseError.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::size_t offset, const std::string& message)
      : std::runtime_error("offset " + std::to_string(offset) + ": " + message),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One parsed JSON value. Numbers keep both views: integral when the text
/// was a pure integer in int64 range, double always.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isBool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool isInteger() const { return kind_ == Kind::Number && integral_; }
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool asBool() const { return boolean_; }
  [[nodiscard]] std::int64_t asInt() const { return int_; }
  [[nodiscard]] double asDouble() const { return double_; }
  [[nodiscard]] const std::string& asString() const { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  static JsonValue makeNull() { return JsonValue(); }
  static JsonValue makeBool(bool v);
  static JsonValue makeInt(std::int64_t v);
  static JsonValue makeDouble(double v);
  static JsonValue makeString(std::string v);
  static JsonValue makeArray(std::vector<JsonValue> items);
  static JsonValue makeObject(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::Null;
  bool boolean_ = false;
  bool integral_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Strict parse of exactly one JSON document (trailing non-whitespace is an
/// error). Rejects invalid UTF-8 in strings, unpaired surrogates, duplicate
/// object keys, and nesting deeper than 64 levels — every rejection is a
/// JsonParseError with a byte offset, never a crash or an accepted garbage
/// value (the malformed-frame corpus replays on this contract).
[[nodiscard]] JsonValue parseJson(std::string_view text);

}  // namespace pmsched
