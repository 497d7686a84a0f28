#include "support/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "support/strings.hpp"

namespace pmsched {

void JsonWriter::beforeValue() {
  if (done_) throw std::logic_error("JsonWriter: document already complete");
  if (top() == Ctx::Object) throw std::logic_error("JsonWriter: expected key inside object");
  if (top() == Ctx::Array) {
    if (needComma_.back()) out_ += ',';
    needComma_.back() = true;
  } else if (top() == Ctx::ExpectValue) {
    stack_.pop_back();  // the pending key consumed exactly one value
  }
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_ += '{';
  push(Ctx::Object);
  needComma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  if (top() != Ctx::Object) throw std::logic_error("JsonWriter: endObject outside object");
  out_ += '}';
  stack_.pop_back();
  needComma_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_ += '[';
  push(Ctx::Array);
  needComma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  if (top() != Ctx::Array) throw std::logic_error("JsonWriter: endArray outside array");
  out_ += ']';
  stack_.pop_back();
  needComma_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (top() != Ctx::Object) throw std::logic_error("JsonWriter: key outside object");
  if (needComma_.back()) out_ += ',';
  needComma_.back() = true;
  appendQuoted(name);
  out_ += ':';
  push(Ctx::ExpectValue);
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  beforeValue();
  appendQuoted(v);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  appendInt(out_, v);
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) throw std::domain_error("JsonWriter: non-finite double");
  // Shortest-general form at 12 significant digits: printf's "%.12g" in the
  // "C" locale, which is what a stream at precision(12) writes.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 12);
  out_.append(buf, static_cast<std::size_t>(result.ptr - buf));
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  out_ += v ? "true" : "false";
  if (stack_.empty()) done_ = true;
  return *this;
}

std::string JsonWriter::str() const {
  if (!done_ && !stack_.empty()) throw std::logic_error("JsonWriter: document incomplete");
  return out_;
}

void JsonWriter::appendQuoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  std::size_t run = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default: {
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out_.append(escaped, sizeof escaped);
      }
    }
  }
  out_.append(s, run, s.size() - run);
  out_ += '"';
}

// ---- JsonValue -------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::makeBool(bool v) {
  JsonValue out;
  out.kind_ = Kind::Bool;
  out.boolean_ = v;
  return out;
}

JsonValue JsonValue::makeInt(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::Number;
  out.integral_ = true;
  out.int_ = v;
  out.double_ = static_cast<double>(v);
  return out;
}

JsonValue JsonValue::makeDouble(double v) {
  JsonValue out;
  out.kind_ = Kind::Number;
  out.double_ = v;
  out.int_ = static_cast<std::int64_t>(v);
  return out;
}

JsonValue JsonValue::makeString(std::string v) {
  JsonValue out;
  out.kind_ = Kind::String;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::makeArray(std::vector<JsonValue> items) {
  JsonValue out;
  out.kind_ = Kind::Array;
  out.items_ = std::move(items);
  return out;
}

JsonValue JsonValue::makeObject(std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue out;
  out.kind_ = Kind::Object;
  out.members_ = std::move(members);
  return out;
}

// ---- parser ----------------------------------------------------------------

namespace {

/// Recursive-descent parser over a string_view. Every throw carries the
/// current byte offset; the depth guard turns adversarial nesting into a
/// diagnostic instead of a stack overflow.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    skipWs();
    JsonValue v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(pos_, message);
  }

  [[nodiscard]] bool atEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char take() {
    if (atEnd()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (atEnd() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skipWs() {
    while (!atEnd()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  JsonValue parseValue(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    if (atEnd()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"': return JsonValue::makeString(parseString());
      case 't': parseKeyword("true"); return JsonValue::makeBool(true);
      case 'f': parseKeyword("false"); return JsonValue::makeBool(false);
      case 'n': parseKeyword("null"); return JsonValue::makeNull();
      default: return parseNumber();
    }
  }

  void parseKeyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }

  JsonValue parseObject(std::size_t depth) {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skipWs();
    if (!atEnd() && peek() == '}') {
      ++pos_;
      return JsonValue::makeObject(std::move(members));
    }
    for (;;) {
      skipWs();
      if (atEnd() || peek() != '"') fail("expected object key string");
      std::string key = parseString();
      for (const auto& [k, v] : members)
        if (k == key) fail("duplicate object key '" + key + "'");
      skipWs();
      expect(':');
      skipWs();
      members.emplace_back(std::move(key), parseValue(depth + 1));
      skipWs();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue::makeObject(std::move(members));
  }

  JsonValue parseArray(std::size_t depth) {
    expect('[');
    std::vector<JsonValue> items;
    skipWs();
    if (!atEnd() && peek() == ']') {
      ++pos_;
      return JsonValue::makeArray(std::move(items));
    }
    for (;;) {
      skipWs();
      items.push_back(parseValue(depth + 1));
      skipWs();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue::makeArray(std::move(items));
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run of plain ASCII up to the next byte that needs a look.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const unsigned char u = static_cast<unsigned char>(text_[pos_]);
        if (u < 0x20 || u >= 0x80 || u == '"' || u == '\\') break;
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      const char c = take();
      const unsigned char u = static_cast<unsigned char>(c);
      if (c == '"') break;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': appendEscapedCodepoint(out); break;
          default: fail("invalid escape sequence");
        }
      } else if (u < 0x20) {
        fail("unescaped control character in string");
      } else {
        appendUtf8Sequence(out, u);
      }
    }
    return out;
  }

  /// Validate one multi-byte UTF-8 sequence whose lead byte was already
  /// consumed; garbage bytes (stray continuations, overlong forms, lone
  /// 0xFF) are rejected with an offset instead of being passed through.
  void appendUtf8Sequence(std::string& out, unsigned char lead) {
    int extra = 0;
    unsigned cp = 0;
    if ((lead & 0xE0) == 0xC0) { extra = 1; cp = lead & 0x1F; }
    else if ((lead & 0xF0) == 0xE0) { extra = 2; cp = lead & 0x0F; }
    else if ((lead & 0xF8) == 0xF0) { extra = 3; cp = lead & 0x07; }
    else fail("invalid UTF-8 byte in string");
    const std::size_t start = pos_ - 1;
    for (int i = 0; i < extra; ++i) {
      const char c = take();
      if ((static_cast<unsigned char>(c) & 0xC0) != 0x80)
        fail("truncated UTF-8 sequence in string");
      cp = (cp << 6) | (static_cast<unsigned char>(c) & 0x3F);
    }
    static constexpr unsigned kMinForLen[4] = {0, 0x80, 0x800, 0x10000};
    if (cp < kMinForLen[extra] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF))
      fail("invalid UTF-8 codepoint in string");
    out.append(text_, start, pos_ - start);
  }

  unsigned parseHex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return v;
  }

  void appendEscapedCodepoint(std::string& out) {
    unsigned cp = parseHex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (atEnd() || take() != '\\' || take() != 'u') fail("unpaired high surrogate");
      const unsigned lo = parseHex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (!atEnd() && peek() == '-') ++pos_;
    if (atEnd() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') ++pos_;  // no leading zeros
    else while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    bool integral = true;
    if (!atEnd() && peek() == '.') {
      integral = false;
      ++pos_;
      if (atEnd() || peek() < '0' || peek() > '9') fail("digits required after '.'");
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!atEnd() && (peek() == '+' || peek() == '-')) ++pos_;
      if (atEnd() || peek() < '0' || peek() > '9') fail("digits required in exponent");
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0')
        return JsonValue::makeInt(static_cast<std::int64_t>(v));
      // int64 overflow: fall through to the double representation.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(d)) fail("number out of range");
    return JsonValue::makeDouble(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parseJson(std::string_view text) { return JsonParser(text).parseDocument(); }

}  // namespace pmsched
