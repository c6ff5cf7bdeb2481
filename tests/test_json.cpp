#include "io/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace asilkit::io {
namespace {

TEST(Json, TypesAndAccessors) {
    EXPECT_TRUE(Json{}.is_null());
    EXPECT_TRUE(Json(true).is_bool());
    EXPECT_TRUE(Json(1.5).is_number());
    EXPECT_TRUE(Json("x").is_string());
    EXPECT_TRUE(Json::array().is_array());
    EXPECT_TRUE(Json::object().is_object());
    EXPECT_EQ(Json(true).as_bool(), true);
    EXPECT_DOUBLE_EQ(Json(1.5).as_number(), 1.5);
    EXPECT_EQ(Json("x").as_string(), "x");
}

TEST(Json, TypeMismatchThrows) {
    EXPECT_THROW((void)Json(1.0).as_string(), IoError);
    EXPECT_THROW((void)Json("x").as_number(), IoError);
    EXPECT_THROW((void)Json{}.as_array(), IoError);
    EXPECT_THROW((void)Json(true).as_object(), IoError);
}

TEST(Json, AsIntRejectsNumbersOutsideTheIntegerRange) {
    // Converting a double outside [-2^63, 2^63) to int64 is undefined
    // behaviour, so the range is checked before the conversion.
    for (const char* text : {"18446744073709551615", "9223372036854775808", "-1e19", "1e300"}) {
        try {
            (void)Json::parse(text).as_int();
            ADD_FAILURE() << text << " converted";
        } catch (const IoError& e) {
            EXPECT_NE(std::string(e.what()).find("is outside the integer range"), std::string::npos)
                << text << ": " << e.what();
        }
    }
    EXPECT_EQ(Json::parse("-9223372036854775808").as_int(), INT64_MIN);
    EXPECT_EQ(Json::parse("9007199254740992").as_int(), std::int64_t{9007199254740992});
}

TEST(Json, AsIntRequiresIntegral) {
    EXPECT_EQ(Json(42).as_int(), 42);
    EXPECT_EQ(Json(-3).as_int(), -3);
    EXPECT_THROW((void)Json(1.5).as_int(), IoError);
}

TEST(Json, ObjectAccess) {
    Json obj = Json::object();
    obj["key"] = Json(7);
    EXPECT_TRUE(obj.contains("key"));
    EXPECT_FALSE(obj.contains("missing"));
    EXPECT_EQ(obj.at("key").as_int(), 7);
    EXPECT_THROW((void)obj.at("missing"), IoError);
    EXPECT_TRUE(obj.get_or_null("missing").is_null());
    EXPECT_EQ(obj.size(), 1u);
}

TEST(Json, OperatorBracketAutoVivifiesObject) {
    Json value;  // null
    value["a"] = Json(1);
    EXPECT_TRUE(value.is_object());
}

TEST(Json, ArrayAccess) {
    Json arr = Json::array();
    arr.push_back(Json(1));
    arr.push_back(Json("two"));
    EXPECT_EQ(arr.size(), 2u);
    EXPECT_EQ(arr.as_array()[1].as_string(), "two");
    Json null_value;
    null_value.push_back(Json(1));  // auto-vivify array
    EXPECT_TRUE(null_value.is_array());
}

TEST(Json, ParseScalars) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").as_bool(), true);
    EXPECT_EQ(Json::parse("false").as_bool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
    EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
    EXPECT_DOUBLE_EQ(Json::parse("1e-9").as_number(), 1e-9);
    EXPECT_DOUBLE_EQ(Json::parse("2.5E+3").as_number(), 2500.0);
    EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
    const Json v = Json::parse(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
    EXPECT_EQ(v.at("a").size(), 3u);
    EXPECT_TRUE(v.at("a").as_array()[2].at("b").is_null());
    EXPECT_TRUE(v.at("c").at("d").as_bool());
}

TEST(Json, ParseWhitespaceTolerant) {
    const Json v = Json::parse("  {\n\t\"a\" :\r 1 }  ");
    EXPECT_EQ(v.at("a").as_int(), 1);
}

TEST(Json, ParseStringEscapes) {
    EXPECT_EQ(Json::parse(R"("a\"b")").as_string(), "a\"b");
    EXPECT_EQ(Json::parse(R"("a\\b")").as_string(), "a\\b");
    EXPECT_EQ(Json::parse(R"("a\nb\tc")").as_string(), "a\nb\tc");
    EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
    EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");      // é
    EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xE2\x82\xAC");  // €
    EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");  // emoji
}

TEST(Json, ParseErrorsCarryPosition) {
    try {
        (void)Json::parse("{\n  \"a\": }");
        FAIL() << "expected IoError";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
}

TEST(Json, ParseRejectsMalformedInput) {
    EXPECT_THROW((void)Json::parse(""), IoError);
    EXPECT_THROW((void)Json::parse("{"), IoError);
    EXPECT_THROW((void)Json::parse("[1,]"), IoError);
    EXPECT_THROW((void)Json::parse("{\"a\":1,}"), IoError);
    EXPECT_THROW((void)Json::parse("tru"), IoError);
    EXPECT_THROW((void)Json::parse("01"), IoError);
    EXPECT_THROW((void)Json::parse("1.2.3"), IoError);
    EXPECT_THROW((void)Json::parse("\"unterminated"), IoError);
    EXPECT_THROW((void)Json::parse("\"bad\\q\""), IoError);
    EXPECT_THROW((void)Json::parse("{} trailing"), IoError);
    EXPECT_THROW((void)Json::parse("{1: 2}"), IoError);
    EXPECT_THROW((void)Json::parse("\"\\ud800\""), IoError);  // unpaired surrogate
}

TEST(Json, ParseCapsNestingDepth) {
    // 2048 levels parse; the 2049th opening bracket is refused at its
    // own position, and 200 000 levels fail the same way instead of
    // overflowing the stack.
    EXPECT_NO_THROW((void)Json::parse(std::string(2048, '[') + std::string(2048, ']')));
    for (const std::size_t depth : {std::size_t{2049}, std::size_t{200000}}) {
        try {
            (void)Json::parse(std::string(depth, '['));
            FAIL() << "expected IoError at depth " << depth;
        } catch (const IoError& e) {
            EXPECT_STREQ(e.what(),
                         "io error: json parse error at line 1, column 2049: "
                         "nesting deeper than 2048");
        }
    }
    std::string objects;
    for (int i = 0; i < 2049; ++i) objects += "{\"a\":";
    EXPECT_THROW((void)Json::parse(objects), IoError);
}

TEST(Json, DumpCompact) {
    Json obj = Json::object();
    obj["b"] = Json(1);
    obj["a"] = Json::array();
    obj["a"].push_back(Json("x"));
    EXPECT_EQ(obj.dump(), R"({"a":["x"],"b":1})");  // keys sorted: deterministic
}

TEST(Json, DumpPretty) {
    Json obj = Json::object();
    obj["a"] = Json(1);
    EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1\n}");
}

TEST(Json, DumpEscapes) {
    EXPECT_EQ(Json("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
    EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, DumpNumbers) {
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(-1.0).dump(), "-1");
    EXPECT_EQ(Json(0).dump(), "0");
    // Scientific values survive a round trip exactly.
    const double lambda = 1.23e-9;
    EXPECT_DOUBLE_EQ(Json::parse(Json(lambda).dump()).as_number(), lambda);
}

TEST(Json, RoundTripRandomStructures) {
    const char* docs[] = {
        R"({"nested":{"deep":{"deeper":[1,2,3]}}})",
        R"([[],{},[{}],[[[0]]]])",
        R"({"unicode":"héllo wörld","empty":"","n":-0.5})",
        R"([true,false,null,0,1e10,"mix"])",
    };
    for (const char* doc : docs) {
        const Json parsed = Json::parse(doc);
        EXPECT_EQ(Json::parse(parsed.dump()), parsed) << doc;
        EXPECT_EQ(Json::parse(parsed.dump(2)), parsed) << doc;
    }
}

TEST(Json, Equality) {
    EXPECT_EQ(Json::parse("{\"a\":1}"), Json::parse("{ \"a\" : 1 }"));
    EXPECT_NE(Json::parse("{\"a\":1}"), Json::parse("{\"a\":2}"));
    EXPECT_NE(Json(1), Json("1"));
}

TEST(Json, FileRoundTrip) {
    const std::string path = ::testing::TempDir() + "/asilkit_json_test.json";
    Json obj = Json::object();
    obj["lambda"] = Json(1e-9);
    obj["name"] = Json("ecu");
    save_json_file(obj, path);
    EXPECT_EQ(load_json_file(path), obj);
    EXPECT_THROW((void)load_json_file("/nonexistent/dir/file.json"), IoError);
}

TEST(Json, NonFiniteNumbersRejected) {
    EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).dump(), IoError);
    EXPECT_THROW((void)Json(std::numeric_limits<double>::quiet_NaN()).dump(), IoError);
}

}  // namespace
}  // namespace asilkit::io
