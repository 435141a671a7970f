/**
 * @file
 * Tests for the Table 1 core parameter sets and their variants.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "uarch/core_params.h"

namespace smtflex {
namespace {

TEST(CoreParamsTest, Table1Big)
{
    const CoreParams b = CoreParams::big();
    EXPECT_EQ(b.type, CoreType::kBig);
    EXPECT_TRUE(b.outOfOrder);
    EXPECT_EQ(b.width, 4u);
    EXPECT_EQ(b.robSize, 128u);
    EXPECT_EQ(b.maxSmtContexts, 6u);
    EXPECT_EQ(b.intUnits, 3u);
    EXPECT_EQ(b.ldstUnits, 2u);
    EXPECT_EQ(b.l1i.sizeBytes, 32u * 1024);
    EXPECT_EQ(b.l1i.assoc, 4u);
    EXPECT_EQ(b.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(b.l2.assoc, 8u);
    EXPECT_DOUBLE_EQ(b.freqGHz, 2.66);
    EXPECT_NO_THROW(b.validate());
}

TEST(CoreParamsTest, Table1Medium)
{
    const CoreParams m = CoreParams::medium();
    EXPECT_EQ(m.type, CoreType::kMedium);
    EXPECT_TRUE(m.outOfOrder);
    EXPECT_EQ(m.width, 2u);
    EXPECT_EQ(m.robSize, 32u);
    EXPECT_EQ(m.maxSmtContexts, 3u);
    EXPECT_EQ(m.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(m.l2.sizeBytes, 128u * 1024);
    EXPECT_NO_THROW(m.validate());
}

TEST(CoreParamsTest, Table1Small)
{
    const CoreParams s = CoreParams::small();
    EXPECT_EQ(s.type, CoreType::kSmall);
    EXPECT_FALSE(s.outOfOrder);
    EXPECT_EQ(s.width, 2u);
    EXPECT_EQ(s.maxSmtContexts, 2u);
    EXPECT_EQ(s.l1d.sizeBytes, 6u * 1024);
    EXPECT_EQ(s.l2.sizeBytes, 48u * 1024);
    EXPECT_NO_THROW(s.validate());
}

TEST(CoreParamsTest, CoreTypeTags)
{
    EXPECT_STREQ(coreTypeTag(CoreType::kBig), "B");
    EXPECT_STREQ(coreTypeTag(CoreType::kMedium), "m");
    EXPECT_STREQ(coreTypeTag(CoreType::kSmall), "s");
}

TEST(CoreParamsTest, WithBigCachesCopiesBigGeometry)
{
    const CoreParams s = CoreParams::small().withBigCaches();
    const CoreParams b = CoreParams::big();
    EXPECT_EQ(s.l1i.sizeBytes, b.l1i.sizeBytes);
    EXPECT_EQ(s.l1d.sizeBytes, b.l1d.sizeBytes);
    EXPECT_EQ(s.l2.sizeBytes, b.l2.sizeBytes);
    EXPECT_EQ(s.name, "small_lc");
    EXPECT_FALSE(s.outOfOrder); // pipeline unchanged
    EXPECT_NO_THROW(s.validate());
}

TEST(CoreParamsTest, WithFrequency)
{
    const CoreParams m = CoreParams::medium().withFrequency(3.33);
    EXPECT_DOUBLE_EQ(m.freqGHz, 3.33);
    EXPECT_EQ(m.name, "medium_hf");
    EXPECT_NO_THROW(m.validate());
}

TEST(CoreParamsTest, ValidationCatchesNonsense)
{
    CoreParams p = CoreParams::big();
    p.width = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = CoreParams::big();
    p.robSize = 2; // smaller than width
    EXPECT_THROW(p.validate(), FatalError);

    p = CoreParams::big();
    p.maxSmtContexts = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = CoreParams::big();
    p.freqGHz = 0.0;
    EXPECT_THROW(p.validate(), FatalError);

    p = CoreParams::big();
    p.mshrs = 0;
    EXPECT_THROW(p.validate(), FatalError);
}

/** validate() must throw and the message must name @p field. */
void
expectRejected(const CoreParams &p, const std::string &field)
{
    try {
        p.validate();
        FAIL() << "validate() accepted degenerate " << field;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << "error message does not name '" << field << "': " << e.what();
    }
}

TEST(CoreParamsTest, ValidationRejectsZeroMulUnits)
{
    CoreParams p = CoreParams::big();
    p.mulUnits = 0;
    expectRejected(p, "mul");
}

TEST(CoreParamsTest, ValidationRejectsZeroFpUnits)
{
    CoreParams p = CoreParams::big();
    p.fpUnits = 0;
    expectRejected(p, "fp");
}

TEST(CoreParamsTest, ValidationRejectsZeroL1Latency)
{
    CoreParams p = CoreParams::big();
    p.latL1 = 0;
    expectRejected(p, "latL1");
}

TEST(CoreParamsTest, ValidationRejectsZeroCacheSize)
{
    CoreParams p = CoreParams::big();
    p.l1d.sizeBytes = 0;
    expectRejected(p, "l1d.sizeBytes");
}

TEST(CoreParamsTest, ValidationRejectsZeroCacheAssoc)
{
    CoreParams p = CoreParams::big();
    p.l2.assoc = 0;
    expectRejected(p, "l2.assoc");
}

TEST(CoreParamsTest, ValidationRejectsBadLineSize)
{
    // A zero lineSize used to divide by zero (SIGFPE) inside validate();
    // the caches index with a shift, so it must be a power of two.
    for (const std::uint32_t line_size : {0u, 48u}) {
        CoreParams p = CoreParams::big();
        p.l1i.lineSize = line_size;
        expectRejected(p, "l1i.lineSize");
        p = CoreParams::small();
        p.l1d.lineSize = line_size;
        expectRejected(p, "l1d.lineSize");
        p = CoreParams::medium();
        p.l2.lineSize = line_size;
        expectRejected(p, "l2.lineSize");
    }
}

TEST(CoreParamsTest, ValidationRejectsSubSetCache)
{
    // 64-byte 16-way cache has fewer lines than one set needs.
    CoreParams p = CoreParams::big();
    p.l1i = {64, 16};
    expectRejected(p, "l1i");
}

} // namespace
} // namespace smtflex
