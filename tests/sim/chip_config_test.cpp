/**
 * @file
 * Tests for ChipConfig construction and the SMT/bandwidth variants.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/log.h"
#include "sim/chip_config.h"

namespace smtflex {
namespace {

TEST(ChipConfigTest, HomogeneousConstruction)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("4B", CoreParams::big(), 4);
    EXPECT_EQ(cfg.name, "4B");
    EXPECT_EQ(cfg.numCores(), 4u);
    EXPECT_TRUE(cfg.smtEnabled);
    EXPECT_EQ(cfg.totalContexts(), 24u); // 4 x 6 SMT contexts
    EXPECT_EQ(cfg.contextsOf(0), 6u);
}

TEST(ChipConfigTest, HeterogeneousConstruction)
{
    const ChipConfig cfg =
        ChipConfig::heterogeneous("3B5s", 3, CoreParams::small(), 5);
    EXPECT_EQ(cfg.numCores(), 8u);
    EXPECT_EQ(cfg.cores[0].type, CoreType::kBig);
    EXPECT_EQ(cfg.cores[3].type, CoreType::kSmall);
    EXPECT_EQ(cfg.totalContexts(), 3u * 6 + 5u * 2);
}

TEST(ChipConfigTest, SmtOffExposesOneContextPerCore)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("8m", CoreParams::medium(), 8)
            .withSmt(false);
    EXPECT_EQ(cfg.totalContexts(), 8u);
    EXPECT_EQ(cfg.contextsOf(0), 1u);
}

TEST(ChipConfigTest, WithBandwidth)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("4B", CoreParams::big(), 4)
            .withBandwidth(16.0);
    EXPECT_DOUBLE_EQ(cfg.dram.busBandwidthGBps, 16.0);
    // Original parameters untouched.
    EXPECT_EQ(cfg.llc.sizeBytes, 8u * 1024 * 1024);
}

TEST(ChipConfigTest, DefaultUncoreMatchesTable1)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("4B", CoreParams::big(), 4);
    EXPECT_EQ(cfg.llc.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(cfg.llc.assoc, 16u);
    EXPECT_EQ(cfg.dram.numBanks, 8u);
    EXPECT_DOUBLE_EQ(cfg.dram.accessTimeNs, 45.0);
    EXPECT_DOUBLE_EQ(cfg.dram.busBandwidthGBps, 8.0);
    EXPECT_DOUBLE_EQ(cfg.chipFreqGHz, 2.66);
}

TEST(ChipConfigTest, ValidationRejectsNonsense)
{
    ChipConfig cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    cfg.name.clear();
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    cfg.cores.clear();
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    cfg.chipFreqGHz = -1.0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    EXPECT_THROW(cfg.contextsOf(5), FatalError);
}

/** validate() must throw and the message must name @p field. */
void
expectRejected(const ChipConfig &cfg, const std::string &field)
{
    try {
        cfg.validate();
        FAIL() << "validate() accepted degenerate " << field;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << "error message does not name '" << field << "': " << e.what();
    }
}

TEST(ChipConfigTest, ValidationNamesEmptyCoreList)
{
    ChipConfig cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    cfg.cores.clear();
    expectRejected(cfg, "cores");
}

TEST(ChipConfigTest, ValidationRejectsZeroLlcSize)
{
    ChipConfig cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    cfg.llc.sizeBytes = 0;
    expectRejected(cfg, "llc.sizeBytes");
}

TEST(ChipConfigTest, ValidationRejectsZeroLlcAssoc)
{
    // assoc = 0 used to divide by zero inside validate() itself.
    ChipConfig cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    cfg.llc.assoc = 0;
    expectRejected(cfg, "llc.assoc");
}

TEST(ChipConfigTest, ValidationRejectsBadLlcLineSize)
{
    // A zero lineSize used to divide by zero (SIGFPE) inside validate();
    // the caches index with a shift, so it must be a power of two.
    for (const std::uint32_t line_size : {0u, 48u}) {
        ChipConfig cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
        cfg.llc.lineSize = line_size;
        expectRejected(cfg, "llc.lineSize");
    }
}

TEST(ChipConfigTest, ValidationRejectsZeroLlcLatency)
{
    ChipConfig cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    cfg.llcLatency = 0;
    expectRejected(cfg, "llcLatency");
}

TEST(ChipConfigTest, ValidationRejectsZeroDramBandwidth)
{
    ChipConfig cfg = ChipConfig::homogeneous("x", CoreParams::big(), 1);
    for (const double bw : {0.0, std::nan(""), 1e-300}) {
        cfg.dram.busBandwidthGBps = bw;
        expectRejected(cfg, "dram.busBandwidthGBps");
    }
}

} // namespace
} // namespace smtflex
