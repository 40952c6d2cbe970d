// The repo's JSON codec (obs/json.hpp): strict parsing, deterministic
// writing, and the malformed-input rejections the HTTP 400 path and the
// journal's torn-line tolerance depend on. The suite keeps the SvcJson
// name it had while the codec lived in svc.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace {

using bvc::obs::Json;

std::string reparse_dump(const std::string& text) {
  const std::optional<Json> value = Json::parse(text);
  EXPECT_TRUE(value.has_value()) << text;
  return value ? value->dump() : "";
}

TEST(SvcJson, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool(true));
  EXPECT_DOUBLE_EQ(Json::parse("0.25")->as_number(), 0.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e-5")->as_number(), 1e-5);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(SvcJson, ParsesNestedDocuments) {
  const std::optional<Json> doc = Json::parse(
      R"({"kind":"bu-attack","cells":[{"alpha":0.2,"flags":[true,null]}]})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->string_or("kind", ""), "bu-attack");
  const Json* cells = doc->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), 1u);
  EXPECT_DOUBLE_EQ(cells->at(0).number_or("alpha", 0.0), 0.2);
  const Json* flags = cells->at(0).find("flags");
  ASSERT_NE(flags, nullptr);
  EXPECT_TRUE(flags->at(0).as_bool());
  EXPECT_TRUE(flags->at(1).is_null());
}

TEST(SvcJson, DumpRoundTripsAndIsDeterministic) {
  const std::string compact =
      R"({"a":1,"b":[1.5,"x",false,null],"c":{"d":-2}})";
  EXPECT_EQ(reparse_dump(compact), compact);
  // Whitespace in the input normalizes away.
  EXPECT_EQ(reparse_dump(" { \"a\" : 1 ,\n \"b\" : [ 1.5 ] } "),
            R"({"a":1,"b":[1.5]})");
}

TEST(SvcJson, IntegralNumbersPrintAsIntegers) {
  EXPECT_EQ(Json::number(144).dump(), "144");
  EXPECT_EQ(Json::number(-3).dump(), "-3");
  EXPECT_EQ(Json::number(0.25).dump(), "0.25");
  // Round-trip of a value needing full precision.
  const std::string dumped = Json::number(0.20000000076779917).dump();
  EXPECT_DOUBLE_EQ(Json::parse(dumped)->as_number(), 0.20000000076779917);
}

TEST(SvcJson, HugeNumbersDumpWithoutIntegerNarrowing) {
  // Values outside long long range must never reach the integer cast
  // (that cast is UB); they print via %.17g and round-trip. Reachable from
  // the wire: submit() echoes unknown request fields back through dump().
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(1e300).dump())->as_number(),
                   1e300);
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(-1e300).dump())->as_number(),
                   -1e300);
  // NaN fails every range comparison; dumping must not crash or cast.
  const std::string nan_dump =
      Json::number(std::numeric_limits<double>::quiet_NaN()).dump();
  EXPECT_FALSE(nan_dump.empty());
}

TEST(SvcJson, NegativeZeroKeepsItsSignBit) {
  const std::string dumped = Json::number(-0.0).dump();
  EXPECT_EQ(dumped, "-0");
  const std::optional<Json> back = Json::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::signbit(back->as_number()));
  EXPECT_EQ(Json::number(0.0).dump(), "0");
}

TEST(SvcJson, NonFiniteNumbersDumpAsQuotedStringsThatParse) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json::number(kInf).dump(), "\"inf\"");
  EXPECT_EQ(Json::number(-kInf).dump(), "\"-inf\"");
  for (const double value :
       {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string dumped =
        Json::object().set("x", Json::number(value)).dump();
    const std::optional<Json> back = Json::parse(dumped);
    ASSERT_TRUE(back.has_value()) << dumped;
    EXPECT_TRUE(back->find("x")->is_string()) << dumped;
  }
}

TEST(SvcJson, NumberWriterPrintsPercent17gForEveryFiniteValue) {
  // The integer fast path must not change a byte: journal lines and wire
  // bodies are pinned to the %.17g spelling.
  for (const double value :
       {0.0, -0.0, 1.0, -3.0, 144.0, 0.25, 1.0 / 3.0, 9.0e15, -9.0e15,
        9.0e15 + 2.0, 1e17, 0x1p53, 1e300, -1e300, 4.9406564584124654e-324,
        2.2250738585072014e-308, 12345.678901234567}) {
    char expected[40];
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    std::string written;
    bvc::obs::append_json_number(written, value);
    EXPECT_EQ(written, expected);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Json::parse(written)->as_number()),
              std::bit_cast<std::uint64_t>(value))
        << written;
  }
}

TEST(SvcJson, EscaperWritesControlCharactersAsUnicodeEscapes) {
  EXPECT_EQ(bvc::obs::json_quoted("a\"b\\c\nd\te\x01"),
            R"("a\"b\\c\u000ad\u0009e\u0001")");
}

TEST(SvcJson, StringEscapesRoundTrip) {
  const std::string raw = "quote\" slash\\ tab\t nl\n ctrl\x01 text";
  const std::string dumped = Json::string(raw).dump();
  const std::optional<Json> back = Json::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), raw);
}

TEST(SvcJson, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("\u0041\u00e9")")->as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("\ud834\udd1e")")->as_string(),
            "\xf0\x9d\x84\x9e");
  // Lone surrogate is malformed.
  EXPECT_FALSE(Json::parse(R"("\ud834")").has_value());
}

TEST(SvcJson, RejectsMalformedDocuments) {
  for (const char* bad : {
           "",            // empty
           "{",           // unterminated object
           "[1,",         // unterminated array
           "{\"a\" 1}",   // missing colon
           "{\"a\":1,}",  // trailing comma
           "[1 2]",       // missing comma
           "nul",         // truncated literal
           "\"abc",       // unterminated string
           "\"\\q\"",     // unknown escape
           "01",          // leading zero
           "-",           // bare minus
           "1.",          // trailing dot
           "NaN",         // not JSON
           "Infinity",    // not JSON
           "1e999",       // overflows to inf
           "{} extra",    // trailing garbage
           "[1] [2]",     // two documents
       }) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(SvcJson, RejectsDocumentsAboveTheDepthCap) {
  std::string deep;
  for (std::size_t i = 0; i < Json::kMaxDepth + 1; ++i) deep += "[";
  deep += "1";
  for (std::size_t i = 0; i < Json::kMaxDepth + 1; ++i) deep += "]";
  EXPECT_FALSE(Json::parse(deep).has_value());

  std::string shallow;
  for (std::size_t i = 0; i < Json::kMaxDepth - 1; ++i) shallow += "[";
  shallow += "1";
  for (std::size_t i = 0; i < Json::kMaxDepth - 1; ++i) shallow += "]";
  EXPECT_TRUE(Json::parse(shallow).has_value());
}

TEST(SvcJson, ObjectLookupIsFirstMatchAndOrderPreserving) {
  Json object = Json::object();
  object.set("b", Json::number(2));
  object.set("a", Json::number(1));
  ASSERT_EQ(object.members().size(), 2u);
  EXPECT_EQ(object.members()[0].first, "b");
  EXPECT_EQ(object.dump(), R"({"b":2,"a":1})");
  EXPECT_DOUBLE_EQ(object.number_or("missing", 7.5), 7.5);
  EXPECT_EQ(object.find("missing"), nullptr);
}

TEST(SvcJson, TypedFallbacksOnWrongTypes) {
  const Json number = Json::number(1.0);
  EXPECT_EQ(number.as_string(), "");
  EXPECT_FALSE(number.as_bool());
  EXPECT_DOUBLE_EQ(Json::string("x").as_number(3.0), 3.0);
}

}  // namespace
