#include <gtest/gtest.h>

#include <cmath>

#include "codecs/json/json_parser.h"
#include "codecs/json/json_value.h"
#include "codecs/json/json_writer.h"

namespace iotsim::codecs::json {
namespace {

TEST(JsonValue, TypePredicates) {
  EXPECT_TRUE(Value{}.is_null());
  EXPECT_TRUE(Value{true}.is_bool());
  EXPECT_TRUE(Value{3.5}.is_number());
  EXPECT_TRUE(Value{42}.is_number());
  EXPECT_TRUE(Value{"hi"}.is_string());
  EXPECT_TRUE(Value{Array{}}.is_array());
  EXPECT_TRUE(Value{Object{}}.is_object());
}

TEST(JsonValue, ObjectAutoVivifies) {
  Value v;
  v["sensor"] = Value{"accel"};
  v["rate"] = Value{1000};
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.find("sensor")->as_string(), "accel");
  EXPECT_DOUBLE_EQ(v.find("rate")->as_number(), 1000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, ArrayPushBack) {
  Value v;
  v.push_back(Value{1});
  v.push_back(Value{2});
  EXPECT_TRUE(v.is_array());
  EXPECT_EQ(v.size(), 2u);
}

TEST(JsonWriter, CompactSerialisation) {
  Value v;
  v["b"] = Value{true};
  v["a"] = Value{1};
  v["s"] = Value{"x"};
  // std::map keeps keys sorted.
  EXPECT_EQ(dump(v), R"({"a":1,"b":true,"s":"x"})");
}

TEST(JsonWriter, EscapesControlCharacters) {
  EXPECT_EQ(dump(Value{"a\"b\\c\nd"}), R"("a\"b\\c\nd")");
  EXPECT_EQ(escape_string(std::string{"\x01"}), "\\u0001");
}

TEST(JsonWriter, NumbersIntegerVsFloat) {
  EXPECT_EQ(dump(Value{42}), "42");
  EXPECT_EQ(dump(Value{-3}), "-3");
  EXPECT_EQ(dump(Value{2.5}), "2.5");
  EXPECT_EQ(dump(Value{std::nan("")}), "null");
}

TEST(JsonParser, ParsesScalars) {
  EXPECT_TRUE(parse("null").value->is_null());
  EXPECT_EQ(parse("true").value->as_bool(), true);
  EXPECT_EQ(parse("false").value->as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("-12.5e2").value->as_number(), -1250.0);
  EXPECT_EQ(parse(R"("hi")").value->as_string(), "hi");
}

TEST(JsonParser, ParsesNested) {
  const auto r = parse(R"({"readings":[{"t":1.5,"ok":true},{"t":2.5,"ok":false}],"n":2})");
  ASSERT_TRUE(r.ok());
  const Value& v = *r.value;
  EXPECT_DOUBLE_EQ(v.find("n")->as_number(), 2.0);
  const auto& arr = v.find("readings")->as_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_TRUE(arr[0].find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(arr[1].find("t")->as_number(), 2.5);
}

TEST(JsonParser, HandlesEscapes) {
  const auto r = parse(R"("a\nb\tA\\")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->as_string(), "a\nb\tA\\");
}

TEST(JsonParser, UnicodeEscapeToUtf8) {
  const auto r = parse(R"("é中")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonParser, RejectsMalformed) {
  EXPECT_FALSE(parse("{").ok());
  EXPECT_FALSE(parse("[1,]").ok());
  EXPECT_FALSE(parse(R"({"a" 1})").ok());
  EXPECT_FALSE(parse("tru").ok());
  EXPECT_FALSE(parse("1 2").ok());
  EXPECT_FALSE(parse(R"("unterminated)").ok());
  EXPECT_FALSE(parse("").ok());
}

TEST(JsonParser, ErrorCarriesOffset) {
  const auto r = parse("[1, x]");
  ASSERT_FALSE(r.ok());
  EXPECT_GE(r.error->offset, 3u);
  EXPECT_FALSE(r.error->message.empty());
}

TEST(JsonRoundTrip, DumpThenParsePreservesValue) {
  Value v;
  v["name"] = Value{"m2x-feed"};
  v["values"] = Value{Array{Value{1.25}, Value{-7}, Value{true}, Value{nullptr}}};
  v["meta"]["device"] = Value{"rpi3"};
  v["meta"]["escaped"] = Value{"line1\nline2 \"q\""};

  const auto r = parse(dump(v));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.value, v);
}

TEST(JsonRoundTrip, DeepNesting) {
  Value v{1};
  for (int i = 0; i < 40; ++i) {
    Value wrapper;
    wrapper.push_back(std::move(v));
    v = std::move(wrapper);
  }
  const auto r = parse(dump(v));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.value, v);
}

}  // namespace
}  // namespace iotsim::codecs::json
