#include "util/json.h"

#include <gtest/gtest.h>

namespace gam::util {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3.5).dump(), "-3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
  EXPECT_EQ(Json(0.0).dump(), "0");
  // Every digit below 2^53: a seed sent over the wire arrives as itself.
  EXPECT_EQ(Json(1e15 + 3).dump(), "1000000000000003");
  EXPECT_EQ(Json(9007199254740991.0).dump(), "9007199254740991");
}

TEST(Json, ArrayBuilding) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(nullptr);
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.dump(), "[1,\"two\",null]");
  EXPECT_EQ(arr.at(0).as_long(), 1);
  EXPECT_TRUE(arr.at(99).is_null());  // out of range is null, not UB
}

TEST(Json, ObjectBuilding) {
  Json obj = Json::object();
  obj["b"] = 2;
  obj["a"] = 1;
  // std::map ordering => deterministic alphabetical output.
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");
  EXPECT_TRUE(obj.has("a"));
  EXPECT_FALSE(obj.has("z"));
  EXPECT_EQ(obj.get_number("a"), 1.0);
  EXPECT_EQ(obj.get_number("z", -1.0), -1.0);
}

TEST(Json, TypedGettersWithFallbacks) {
  Json obj = Json::object();
  obj["s"] = "str";
  obj["n"] = 5;
  obj["b"] = true;
  EXPECT_EQ(obj.get_string("s"), "str");
  EXPECT_EQ(obj.get_string("n", "fb"), "fb");  // mistyped -> fallback
  EXPECT_TRUE(obj.get_bool("b"));
  EXPECT_FALSE(obj.get_bool("s", false));
}

TEST(Json, EscapingRoundTrip) {
  std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  Json j(nasty);
  auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), nasty);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_EQ(Json::parse("-12.5e1")->as_number(), -125.0);
  EXPECT_EQ(Json::parse("\"x\"")->as_string(), "x");
}

TEST(Json, ParseNested) {
  auto j = Json::parse(R"({"a":[1,{"b":null}],"c":"d"})");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->find("a")->at(1).find("b")->type(), Json::Type::Null);
  EXPECT_EQ(j->get_string("c"), "d");
}

TEST(Json, ParseWhitespaceTolerant) {
  auto j = Json::parse(" { \"a\" : [ 1 , 2 ] } ");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->find("a")->size(), 2u);
}

TEST(Json, ParseUnicodeEscape) {
  auto j = Json::parse(R"("Aé")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "A\xc3\xa9");  // "Aé" in UTF-8
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::parse("{'a':1}").has_value());
  EXPECT_FALSE(Json::parse("tru").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("\"bad\\q\"").has_value());
}

TEST(Json, EqualityIsDeep) {
  auto a = Json::parse(R"({"x":[1,2,{"y":true}]})");
  auto b = Json::parse(R"({ "x" : [1, 2, {"y": true}] })");
  auto c = Json::parse(R"({"x":[1,2,{"y":false}]})");
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(*a == *c);
}

TEST(Json, PrettyPrintIndents) {
  Json obj = Json::object();
  obj["k"] = Json(JsonArray{Json(1)});
  std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("\n  \"k\": [\n    1\n  ]"), std::string::npos);
}

TEST(Json, PushBackConvertsNonArray) {
  Json j;  // null
  j.push_back(5);
  ASSERT_TRUE(j.is_array());
  EXPECT_EQ(j.size(), 1u);
}

TEST(Json, SubscriptConvertsNonObject) {
  Json j(7);
  j["k"] = 1;
  EXPECT_TRUE(j.is_object());
}

// Property: dump -> parse -> dump is a fixed point for a variety of docs.
class JsonRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, DumpParseDumpStable) {
  auto first = Json::parse(GetParam());
  ASSERT_TRUE(first.has_value()) << GetParam();
  std::string dumped = first->dump();
  auto second = Json::parse(dumped);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(dumped, second->dump());
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTrip,
    ::testing::Values(
        "null", "true", "0", "-1", "3.14159", "1e10", "1000000000000003", "9007199254740991",
        "\"\"", "\"abc\"", "[]", "{}",
        "[[[]]]", R"([1,"two",false,null,{"k":[]}])",
        R"({"target":"10.1.2.3","reached":true,"hops":[{"ttl":1,"ip":"10.0.0.1","rtt_ms":[1.5,1.25,2]}]})",
        R"({"nested":{"deep":{"deeper":{"value":[1,2,3]}}}})",
        R"({"unicode":"über","esc":"a\"b\\c\nd"})"));

}  // namespace
}  // namespace gam::util
