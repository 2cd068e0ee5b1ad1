// The JSON reader and writer (common/json.h). The reader's verdicts and
// decoded values come first, on hand-written documents, so they pin the
// reader independently of the writer: RFC 8259's number grammar, the
// nesting cap, string escapes and raw control bytes. Only then do the
// writer's tests use the reader to check what the writer produced.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.h"

namespace n2j {
namespace {

std::string Nested(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(JsonReaderTable, VerdictsOnHandWrittenDocuments) {
  struct Case {
    std::string doc;
    bool valid;
  };
  const Case cases[] = {
      // Numbers (RFC 8259 section 6).
      {"0", true},
      {"-0", true},
      {"12", true},
      {"1.5", true},
      {"-1.5E+3", true},
      {"1e-5", true},
      {"9007199254740993", true},
      {"18446744073709551615", true},
      {"18446744073709551616", true},
      {"01", false},
      {"-01", false},
      {"-", false},
      {"1.", false},
      {".5", false},
      {"1e", false},
      {"1e+", false},
      {"+5", false},
      {"1.2.3", false},
      {"--7", false},
      {"1x", false},
      {"1 .5", false},
      {"- 1", false},
      {"-Infinity", false},
      {"NaN", false},
      // Nesting.
      {Nested(16), true},
      {Nested(17), false},
      {"[[1,2],{\"a\":[]}]", true},
      // Strings and escapes.
      {"\"\\\" \\\\ \\/ \\b \\f \\n \\r \\t\"", true},
      {"\"\\u0041\\u00e9\"", true},
      {"\"\\u0100\"", false},
      {"\"\\u12\"", false},
      {"\"\\u-0ff\"", false},
      {"\"\\x41\"", false},
      {"\"a\x01" "b\"", false},
      {"\"a\tb\"", false},
      {"\"\x7f \xc3\xa9\"", true},
      {"\"unterminated", false},
      // Structure.
      {" {\"a\" : 1 , \"b\" : [true, false, null]} ", true},
      {"{}", true},
      {"[]", true},
      {"", false},
      {" ", false},
      {"{\"a\":1,}", false},
      {"[1,]", false},
      {"{\"a\" 1}", false},
      {"{1:2}", false},
      {"[1 2]", false},
      {"tru", false},
      {"true false", false},
      {"{\"a\":1}x", false},
  };
  for (const Case& c : cases) {
    JsonValue v;
    EXPECT_EQ(ParseJson(c.doc, &v), c.valid) << c.doc;
  }
}

TEST(JsonReaderTable, NumbersKeepExactIntegers) {
  struct Case {
    std::string doc;
    bool is_u64;
    uint64_t u64;
    double number;
  };
  const Case cases[] = {
      {"0", true, 0, 0.0},
      {"9007199254740993", true, 9007199254740993u, 9007199254740992.0},
      {"18446744073709551615", true, UINT64_MAX, 18446744073709551616.0},
      {"18446744073709551616", false, 0, 18446744073709551616.0},
      {"-5", false, 0, -5.0},
      {"-0", false, 0, 0.0},
      {"1.0", false, 0, 1.0},
      {"1e2", false, 0, 100.0},
      {"-1.5E+3", false, 0, -1500.0},
  };
  for (const Case& c : cases) {
    JsonValue v;
    ASSERT_TRUE(ParseJson(c.doc, &v)) << c.doc;
    EXPECT_EQ(v.kind, JsonValue::Kind::kNumber) << c.doc;
    EXPECT_EQ(v.is_u64, c.is_u64) << c.doc;
    EXPECT_EQ(v.u64, c.u64) << c.doc;
    EXPECT_EQ(v.number, c.number) << c.doc;
  }
}

TEST(JsonReaderTable, StringsDecodeByteForByte) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
      "\"q\\\" s\\\\ /\\/ \\b\\f\\n\\r\\t \\u0001\\u00e9 \x7f\xc3\xa9\"", &v));
  EXPECT_EQ(v.kind, JsonValue::Kind::kString);
  EXPECT_EQ(v.str, "q\" s\\ // \b\f\n\r\t \x01\xe9 \x7f\xc3\xa9");
}

TEST(JsonReaderTable, ObjectsKeepTheFirstOfRepeatedKeys) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"a":1,"b":[true,null],"a":2})", &v));
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(v.keys.size(), 3u);
  ASSERT_NE(v.Find("a"), nullptr);
  EXPECT_EQ(v.Find("a")->u64, 1u);
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(b->items.size(), 2u);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("c"), nullptr);
}

TEST(JsonReaderTable, TypedGetsSkipAbsentKeysAndRejectWrongTypes) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"s":"x","u":7,"neg":-7,"d":0.5,"t":true})", &v));
  std::string s = "kept";
  uint64_t u = 99;
  double d = -1.0;
  bool t = false;
  EXPECT_TRUE(v.Get("absent", &s) && v.Get("absent", &u));
  EXPECT_EQ(s, "kept");
  EXPECT_EQ(u, 99u);
  EXPECT_TRUE(v.Get("s", &s) && v.Get("u", &u) && v.Get("d", &d) &&
              v.Get("t", &t));
  EXPECT_EQ(s, "x");
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(d, 0.5);
  EXPECT_TRUE(t);
  EXPECT_FALSE(v.Get("u", &s) || v.Get("s", &u) || v.Get("neg", &u) ||
               v.Get("d", &u) || v.Get("s", &d) || v.Get("u", &t));
}

// The writer's string escaping, one value at a time, without the quotes.
std::string Escaped(const std::string& s) {
  std::string out;
  JsonWriter(&out).String(s);
  return out.substr(1, out.size() - 2);
}

TEST(JsonWriter, EscapesStringsPerRfc8259) {
  EXPECT_EQ(Escaped("plain"), "plain");
  EXPECT_EQ(Escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(Escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(Escaped("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(Escaped(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(Escaped(std::string("\x1f", 1)), "\\u001f");
  // DEL and UTF-8 continuation bytes pass through untouched (valid in
  // JSON strings); a signed-char formatter would mangle them.
  EXPECT_EQ(Escaped("\x7f"), "\x7f");
  EXPECT_EQ(Escaped("\xc3\xa9"), "\xc3\xa9");
}

TEST(JsonWriter, PlacesCommasAndRoundTripsThroughTheReader) {
  const std::string hostile = "k\"\\\n\x01\x7f\xc3\xa9";
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("a").U64(UINT64_MAX).Key("b").BeginArray();
  w.Bool(true).Double(0.5, "%.3f").BeginObject().EndObject();
  w.BeginArray().EndArray().String(hostile).EndArray();
  w.Key(hostile).Bool(false).EndObject();
  EXPECT_EQ(out, "{\"a\":18446744073709551615,\"b\":[true,0.500,{},[],"
                 "\"k\\\"\\\\\\n\\u0001\x7f\xc3\xa9\"],"
                 "\"k\\\"\\\\\\n\\u0001\x7f\xc3\xa9\":false}");

  JsonValue v;
  ASSERT_TRUE(ParseJson(out, &v)) << out;
  ASSERT_NE(v.Find("a"), nullptr);
  EXPECT_EQ(v.Find("a")->u64, UINT64_MAX);
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 5u);
  EXPECT_EQ(b->items[1].number, 0.5);
  EXPECT_EQ(b->items[2].kind, JsonValue::Kind::kObject);
  EXPECT_EQ(b->items[3].kind, JsonValue::Kind::kArray);
  EXPECT_EQ(b->items[4].str, hostile);
  ASSERT_EQ(v.keys.size(), 3u);
  EXPECT_EQ(v.keys[2], hostile);
}

}  // namespace
}  // namespace n2j
