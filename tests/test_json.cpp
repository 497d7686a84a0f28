// Strict-parser suite for support/json.hpp — the server trusts this parser
// with hostile input, so the hardening (duplicate keys, depth, UTF-8,
// number grammar) is pinned here byte by byte.

#include <gtest/gtest.h>

#include <string>

#include "support/json.hpp"

namespace pmsched {
namespace {

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  EXPECT_TRUE(parseJson("true").asBool());
  EXPECT_FALSE(parseJson("false").asBool());
  EXPECT_EQ(parseJson("42").asInt(), 42);
  EXPECT_EQ(parseJson("-7").asInt(), -7);
  EXPECT_DOUBLE_EQ(parseJson("2.5").asDouble(), 2.5);
  EXPECT_DOUBLE_EQ(parseJson("1e3").asDouble(), 1000.0);
  EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
}

TEST(JsonParser, NestedStructure) {
  const JsonValue v = parseJson(R"({"a":[1,2,{"b":"x"}],"c":{"d":null}})");
  ASSERT_TRUE(v.isObject());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].asInt(), 1);
  EXPECT_EQ(a->items()[2].find("b")->asString(), "x");
  EXPECT_TRUE(v.find("c")->find("d")->isNull());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(parseJson(R"("a\nb\t\"\\\/")").asString(), "a\nb\t\"\\/");
  EXPECT_EQ(parseJson(R"("A")").asString(), "A");
  // Surrogate pair -> one 4-byte UTF-8 sequence (U+1F600).
  EXPECT_EQ(parseJson(R"("😀")").asString(), "\xF0\x9F\x98\x80");
  // Lone or inverted surrogates are rejected.
  EXPECT_THROW(parseJson(R"("\uD83D")"), JsonParseError);
  EXPECT_THROW(parseJson(R"("\uDE00\uD83D")"), JsonParseError);
  // Unescaped control characters are rejected.
  EXPECT_THROW(parseJson(std::string("\"a\x01b\"")), JsonParseError);
}

TEST(JsonParser, Utf8Validation) {
  EXPECT_EQ(parseJson("\"\xC3\xA9\"").asString(), "\xC3\xA9");  // é
  EXPECT_THROW(parseJson("\"\xC3(\""), JsonParseError);          // truncated sequence
  EXPECT_THROW(parseJson("\"\xC0\xAF\""), JsonParseError);       // overlong encoding
  EXPECT_THROW(parseJson("\"\xED\xA0\x80\""), JsonParseError);   // encoded surrogate
  EXPECT_THROW(parseJson("\"\xFF\xFF\""), JsonParseError);       // not UTF-8 at all
}

TEST(JsonParser, NumberGrammar) {
  EXPECT_THROW(parseJson("01"), JsonParseError);     // leading zero
  EXPECT_THROW(parseJson("+1"), JsonParseError);     // explicit plus
  EXPECT_THROW(parseJson("1."), JsonParseError);     // bare decimal point
  EXPECT_THROW(parseJson(".5"), JsonParseError);
  EXPECT_THROW(parseJson("1e"), JsonParseError);
  EXPECT_THROW(parseJson("NaN"), JsonParseError);
  EXPECT_THROW(parseJson("Infinity"), JsonParseError);
  // Integer overflow falls back to double instead of failing.
  const JsonValue big = parseJson("123456789012345678901234567890");
  EXPECT_TRUE(big.isNumber());
  EXPECT_FALSE(big.isInteger());
}

TEST(JsonParser, StructuralErrors) {
  EXPECT_THROW(parseJson(""), JsonParseError);
  EXPECT_THROW(parseJson("{"), JsonParseError);
  EXPECT_THROW(parseJson("[1,2"), JsonParseError);
  EXPECT_THROW(parseJson("[1,]"), JsonParseError);
  EXPECT_THROW(parseJson("{\"a\":1,}"), JsonParseError);
  EXPECT_THROW(parseJson("{'a':1}"), JsonParseError);
  EXPECT_THROW(parseJson("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(parseJson("1 2"), JsonParseError);  // trailing garbage
  EXPECT_THROW(parseJson("{} x"), JsonParseError);
}

TEST(JsonParser, DuplicateKeysRejected) {
  EXPECT_THROW(parseJson(R"({"a":1,"a":2})"), JsonParseError);
  // Same key at different depths is fine.
  EXPECT_NO_THROW(parseJson(R"({"a":{"a":1}})"));
}

TEST(JsonParser, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  for (int i = 0; i < 80; ++i) deep += ']';
  EXPECT_THROW(parseJson(deep), JsonParseError);
  std::string ok;
  for (int i = 0; i < 40; ++i) ok += '[';
  for (int i = 0; i < 40; ++i) ok += ']';
  EXPECT_NO_THROW(parseJson(ok));
}

TEST(JsonParser, ErrorsCarryOffsets) {
  try {
    (void)parseJson("{\"a\": 01}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(JsonParser, WriterRoundTrip) {
  JsonWriter w;
  w.beginObject()
      .key("s")
      .value("a\"b\\c\nd")
      .key("n")
      .value(std::int64_t{-42})
      .key("arr")
      .beginArray()
      .value(true)
      .value(1.5)
      .endArray()
      .endObject();
  const JsonValue v = parseJson(w.str());
  EXPECT_EQ(v.find("s")->asString(), "a\"b\\c\nd");
  EXPECT_EQ(v.find("n")->asInt(), -42);
  EXPECT_TRUE(v.find("arr")->items()[0].asBool());
  EXPECT_DOUBLE_EQ(v.find("arr")->items()[1].asDouble(), 1.5);
}

}  // namespace
}  // namespace pmsched
