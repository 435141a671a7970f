/**
 * @file
 * Tests for the typed SMTFLEX_* environment helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.h"
#include "common/log.h"

namespace smtflex {
namespace {

class EnvTest : public ::testing::Test
{
  protected:
    void TearDown() override { unsetenv(kVar); }
    static constexpr const char *kVar = "SMTFLEX_ENV_TEST_VAR";
};

TEST_F(EnvTest, UnsetFallsBack)
{
    unsetenv(kVar);
    EXPECT_FALSE(envRaw(kVar).has_value());
    EXPECT_EQ(envString(kVar, "dflt"), "dflt");
    EXPECT_EQ(envU64(kVar, 77), 77u);
    EXPECT_EQ(envU32(kVar, 7), 7u);
    EXPECT_DOUBLE_EQ(envDouble(kVar, 1.5), 1.5);
    EXPECT_TRUE(envFlag(kVar, true));
    EXPECT_FALSE(envFlag(kVar, false));
}

TEST_F(EnvTest, ParsesWellFormedValues)
{
    setenv(kVar, "12345", 1);
    EXPECT_EQ(envU64(kVar, 0), 12345u);
    EXPECT_EQ(envU32(kVar, 0), 12345u);
    EXPECT_EQ(envString(kVar, ""), "12345");
    setenv(kVar, "2.75", 1);
    EXPECT_DOUBLE_EQ(envDouble(kVar, 0.0), 2.75);
}

TEST_F(EnvTest, MalformedIntegersAreFatal)
{
    for (const char *bad : {"", "abc", "12x", "-3", " 12", "1.5"}) {
        setenv(kVar, bad, 1);
        EXPECT_THROW(envU64(kVar, 0), FatalError) << "'" << bad << "'";
    }
    // Overflows 64 bits.
    setenv(kVar, "99999999999999999999999", 1);
    EXPECT_THROW(envU64(kVar, 0), FatalError);
    // Fits 64 bits but not 32.
    setenv(kVar, "4294967296", 1);
    EXPECT_THROW(envU32(kVar, 0), FatalError);
}

TEST_F(EnvTest, MalformedDoublesAreFatal)
{
    for (const char *bad : {"", "abc", "1.5x"}) {
        setenv(kVar, bad, 1);
        EXPECT_THROW(envDouble(kVar, 0.0), FatalError) << "'" << bad << "'";
    }
}

TEST(ParseTest, StrictParsersAcceptWellFormedText)
{
    // The same parsers back the env helpers, the CLI's --flag values and
    // the serve protocol's string-typed integer fields.
    EXPECT_EQ(parseU64("0", "x"), 0u);
    EXPECT_EQ(parseU64("18446744073709551615", "x"),
              18446744073709551615ull);
    EXPECT_EQ(parseU32("4294967295", "x"), 4294967295u);
    EXPECT_DOUBLE_EQ(parseDouble("-2.5e3", "x"), -2500.0);
}

TEST(ParseTest, StrictParsersRejectGarbage)
{
    for (const char *bad : {"", "abc", "12x", "-3", " 12", "1.5", "0x10"}) {
        EXPECT_THROW(parseU64(bad, "field"), FatalError)
            << "'" << bad << "'";
    }
    EXPECT_THROW(parseU64("18446744073709551616", "field"), FatalError);
    EXPECT_THROW(parseU32("4294967296", "field"), FatalError);
    for (const char *bad :
         {"", "abc", "1.5x", "--2", "nan", "inf", "-inf"}) {
        EXPECT_THROW(parseDouble(bad, "field"), FatalError)
            << "'" << bad << "'";
    }
}

TEST(ParseTest, PortsAndEndpointsAreRangeChecked)
{
    EXPECT_EQ(parsePort("65535", "--port"), 65535u);
    EXPECT_THROW(parsePort("65536", "--port"), FatalError);
    EXPECT_EQ(parseEndpoint("127.0.0.1:65535", "--addr"),
              (std::pair<std::string, std::uint16_t>{"127.0.0.1", 65535}));
    EXPECT_THROW(parseEndpoint("127.0.0.1:65536", "--addr"), FatalError);
    for (const char *bad : {"127.0.0.1", "127.0.0.1:", ":7333", ""}) {
        EXPECT_THROW(parseEndpoint(bad, "--addr"), FatalError)
            << "'" << bad << "'";
    }
}

TEST(ParseTest, ErrorMessageNamesTheField)
{
    try {
        parseU64("junk", "--seed");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
    }
}

TEST_F(EnvTest, FlagSpellings)
{
    for (const char *yes : {"1", "true", "TRUE", "on", "Yes"}) {
        setenv(kVar, yes, 1);
        EXPECT_TRUE(envFlag(kVar, false)) << yes;
    }
    for (const char *no : {"0", "false", "off", "NO", ""}) {
        setenv(kVar, no, 1);
        EXPECT_FALSE(envFlag(kVar, true)) << "'" << no << "'";
    }
    setenv(kVar, "maybe", 1);
    EXPECT_THROW(envFlag(kVar, false), FatalError);
}

} // namespace
} // namespace smtflex
