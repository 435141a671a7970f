/**
 * @file
 * smtflex::ckpt serialization primitives: bit-exact round trips and
 * strict rejection of every malformed stream shape.
 */

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serial.h"
#include "ckpt/store.h"

namespace smtflex {
namespace ckpt {
namespace {

TEST(CkptSerialTest, ScalarsRoundTrip)
{
    Writer w;
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.boolean(true);
    w.boolean(false);
    w.f64(3.141592653589793);
    w.str("hello snapshot");
    w.blob({1, 2, 3, 255});

    Reader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.f64(), 3.141592653589793);
    EXPECT_EQ(r.str(), "hello snapshot");
    EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3, 255}));
    EXPECT_TRUE(r.atEnd());
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(CkptSerialTest, DoublesTravelAsExactBitPatterns)
{
    // The values whose text round-trips drift: subnormals, -0.0, NaN
    // payloads, and long mantissas. The bit pattern must be preserved.
    const std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -1.0 / 3.0,
        std::numeric_limits<double>::infinity(),
        0.1 + 0.2, // the canonical non-representable sum
    };
    Writer w;
    for (const double v : values)
        w.f64(v);
    Reader r(w.bytes());
    for (const double v : values) {
        const double got = r.f64();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(v));
    }

    Writer wn;
    wn.f64(std::nan("0x5ca1ab1e"));
    Reader rn(wn.bytes());
    EXPECT_TRUE(std::isnan(rn.f64()));
}

TEST(CkptSerialTest, TruncatedStreamThrowsAtEveryPrefix)
{
    Writer w;
    w.u32(7);
    w.str("abc");
    w.u64(42);
    const std::vector<std::uint8_t> full = w.bytes();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        Reader r(full.data(), cut);
        EXPECT_THROW(
            {
                r.u32();
                r.str();
                r.u64();
                r.expectEnd();
            },
            CorruptSnapshot)
            << "prefix of " << cut << " bytes decoded";
    }
}

TEST(CkptSerialTest, OversizedLengthPrefixThrows)
{
    Writer w;
    w.u32(1'000'000); // claims a megabyte that is not there
    w.u8('x');
    Reader r(w.bytes());
    EXPECT_THROW(r.str(), CorruptSnapshot);
    Reader r2(w.bytes());
    EXPECT_THROW(r2.blob(), CorruptSnapshot);
}

TEST(CkptSerialTest, BadBooleanByteThrows)
{
    Writer w;
    w.u8(2);
    Reader r(w.bytes());
    EXPECT_THROW(r.boolean(), CorruptSnapshot);
}

TEST(CkptSerialTest, CountMismatchThrows)
{
    Writer w;
    w.u32(5);
    Reader ok(w.bytes());
    EXPECT_EQ(ok.count(5, "widgets"), 5u);
    Reader bad(w.bytes());
    EXPECT_THROW(bad.count(4, "widgets"), CorruptSnapshot);
}

TEST(CkptSerialTest, TrailingBytesAreRejected)
{
    Writer w;
    w.u32(1);
    w.u8(0);
    Reader r(w.bytes());
    r.u32();
    EXPECT_FALSE(r.atEnd());
    EXPECT_THROW(r.expectEnd(), CorruptSnapshot);
}

TEST(CkptSerialTest, StatsCountersRoundTripThroughFieldList)
{
    CkptStats stats;
    stats.saves = 3;
    stats.saveBytes = 123456;
    stats.hits = 7;
    stats.misses = 2;
    stats.corruptSkipped = 1;
    stats.resumeMs = 99;
    stats.saveFailures = 4;
    stats.resumedCycles = 11;

    Writer w;
    saveCounters(w, stats);
    CkptStats restored;
    Reader r(w.bytes());
    loadCounters(r, restored);
    r.expectEnd();

    CkptStats::forEachCounter([&](const char *name, auto member) {
        EXPECT_EQ((restored.*member).load(), (stats.*member).load())
            << name;
    });
}

} // namespace
} // namespace ckpt
} // namespace smtflex
