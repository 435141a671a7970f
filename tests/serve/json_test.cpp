/**
 * @file
 * Tests for the serve JSON value type: strict parsing, canonical
 * serialization, and the typed accessors the protocol layer relies on.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/log.h"
#include "serve/json.h"

namespace smtflex {
namespace serve {
namespace {

TEST(JsonTest, ScalarRoundTrips)
{
    EXPECT_EQ(Json::parse("null").dump(), "null");
    EXPECT_EQ(Json::parse("true").dump(), "true");
    EXPECT_EQ(Json::parse("false").dump(), "false");
    EXPECT_EQ(Json::parse("42").dump(), "42");
    EXPECT_EQ(Json::parse("-17").dump(), "-17");
    EXPECT_EQ(Json::parse("2.5").dump(), "2.5");
    EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
}

TEST(JsonTest, CanonicalObjectOrderIsSorted)
{
    const Json doc = Json::parse("{\"zebra\":1,\"alpha\":2,\"mid\":3}");
    EXPECT_EQ(doc.dump(), "{\"alpha\":2,\"mid\":3,\"zebra\":1}");
    // Semantically equal documents serialize identically regardless of
    // member order — the property the coalescing keys depend on.
    const Json other = Json::parse("{\"mid\":3,\"alpha\":2,\"zebra\":1}");
    EXPECT_EQ(doc.dump(), other.dump());
}

TEST(JsonTest, NestedStructuresRoundTrip)
{
    const std::string text =
        "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":[true,false]}}";
    EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(JsonTest, StringEscapes)
{
    const Json doc = Json::parse("\"a\\\"b\\\\c\\n\\t\\u0041\"");
    EXPECT_EQ(doc.asString(), "a\"b\\c\n\tA");
    // Control characters re-escape on output.
    EXPECT_EQ(Json::parse("\"x\\u0001y\"").dump(), "\"x\\u0001y\"");
}

TEST(JsonTest, SurrogatePairsDecodeToUtf8)
{
    // U+1F600 as a surrogate pair -> 4-byte UTF-8 sequence.
    const Json doc = Json::parse("\"\\uD83D\\uDE00\"");
    EXPECT_EQ(doc.asString(), "\xF0\x9F\x98\x80");
    // A lone high surrogate is malformed.
    EXPECT_THROW(Json::parse("\"\\uD83D\""), FatalError);
}

TEST(JsonTest, WhitespaceTolerated)
{
    const Json doc = Json::parse(" { \"a\" : [ 1 , 2 ] } ");
    EXPECT_EQ(doc.dump(), "{\"a\":[1,2]}");
}

TEST(JsonTest, MalformedDocumentsAreFatal)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
          "+1", "\"unterminated", "{\"a\":1}extra", "[1] [2]", "nan",
          "{\"a\":1,}", "[1,]", "'single'", "1e999", "[-1e999]"}) {
        EXPECT_THROW(Json::parse(bad), FatalError) << "'" << bad << "'";
    }
    // A number that overflows a double names its member.
    try {
        Json::parse("{\"op\":\"sweep\",\"bw\":1e999}");
        FAIL() << "1e999 parsed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("member 'bw'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JsonTest, DepthLimitIsFatal)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    for (int i = 0; i < 100; ++i)
        deep += ']';
    EXPECT_THROW(Json::parse(deep), FatalError);
}

TEST(JsonTest, TypedAccessorsRejectWrongTypes)
{
    const Json doc = Json::parse("{\"n\":1,\"s\":\"x\",\"b\":true}");
    EXPECT_THROW(doc.at("n").asString(), FatalError);
    EXPECT_THROW(doc.at("s").asNumber(), FatalError);
    EXPECT_THROW(doc.at("b").asU64(), FatalError);
    EXPECT_THROW(doc.at("missing"), FatalError);
    EXPECT_TRUE(doc.has("n"));
    EXPECT_FALSE(doc.has("missing"));
}

TEST(JsonTest, U64Accessor)
{
    EXPECT_EQ(Json::parse("12345").asU64(), 12345u);
    EXPECT_EQ(Json::parse("0").asU64(), 0u);
    EXPECT_THROW(Json::parse("-1").asU64(), FatalError);
    EXPECT_THROW(Json::parse("1.5").asU64(), FatalError);
    // Beyond 2^53 doubles lose integer precision.
    EXPECT_THROW(Json::parse("18446744073709551615").asU64(), FatalError);
}

TEST(JsonTest, BuilderProducesParseableText)
{
    Json doc = Json::object();
    doc.set("op", Json::string("run"));
    Json workload = Json::array();
    workload.push(Json::string("mcf"));
    workload.push(Json::string("tonto"));
    doc.set("workload", std::move(workload));
    doc.set("budget", Json::number(std::uint64_t{12000}));
    doc.set("ok", Json::boolean(true));

    const Json back = Json::parse(doc.dump());
    EXPECT_EQ(back.at("op").asString(), "run");
    EXPECT_EQ(back.at("workload").size(), 2u);
    EXPECT_EQ(back.at("workload").at(1).asString(), "tonto");
    EXPECT_EQ(back.at("budget").asU64(), 12000u);
    EXPECT_TRUE(back.at("ok").asBool());
    EXPECT_EQ(back.dump(), doc.dump());
}

TEST(JsonTest, EscapeHelper)
{
    EXPECT_EQ(Json::escape("plain"), "plain");
    EXPECT_EQ(Json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(Json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(Json::escape("a\nb"), "a\\nb");
}

TEST(JsonTest, ArbitraryTextSurvivesStringRoundTrip)
{
    // The serve responses embed whole CLI reports as JSON strings; any
    // byte content must survive a serialize/parse round trip.
    std::string text = "design 4B, 2 programs\n\tSTP 2.146 | \"ANTT\"\n";
    text.push_back('\x01');
    Json doc = Json::object();
    doc.set("output", Json::string(text));
    EXPECT_EQ(Json::parse(doc.dump()).at("output").asString(), text);
}

} // namespace
} // namespace serve
} // namespace smtflex
