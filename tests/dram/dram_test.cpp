/**
 * @file
 * Tests for the DRAM + off-chip bus model: latency composition, bank
 * parallelism, and bus bandwidth saturation (the paper's key shared
 * bottleneck).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/log.h"
#include "dram/dram.h"

namespace smtflex {
namespace {

DramConfig
paperConfig()
{
    return DramConfig{}; // defaults match Table 1
}

TEST(DramConfigTest, CycleConversions)
{
    const DramConfig cfg = paperConfig();
    // 45 ns at 2.66 GHz = 119.7 -> 120 cycles.
    EXPECT_EQ(cfg.bankLatencyCycles(), 120u);
    // 64 B at 8 GB/s = 8 ns = 21.28 -> 22 cycles.
    EXPECT_EQ(cfg.busTransferCycles(), 22u);
}

TEST(DramConfigTest, DoubleBandwidthHalvesTransfer)
{
    DramConfig cfg = paperConfig();
    cfg.busBandwidthGBps = 16.0;
    EXPECT_EQ(cfg.busTransferCycles(), 11u);
}

TEST(DramTest, UncontendedReadLatency)
{
    DramModel dram(paperConfig());
    const Cycle done = dram.read(1000, 0x40);
    EXPECT_EQ(done, 1000u + 120u + 22u);
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_DOUBLE_EQ(dram.stats().avgReadLatency(), 142.0);
}

TEST(DramTest, SameBankSerialisesAtTheBank)
{
    DramModel dram(paperConfig());
    const Cycle a = dram.read(0, 0);
    const Cycle b = dram.read(0, 8 * kLineSize); // same bank (8 banks)
    EXPECT_EQ(a, 142u);
    // Second access waits for the bank (120) then starts its own 120.
    EXPECT_EQ(b, 120u + 120u + 22u);
}

TEST(DramTest, DifferentBanksOverlapButShareBus)
{
    DramModel dram(paperConfig());
    const Cycle a = dram.read(0, 0 * kLineSize);
    const Cycle b = dram.read(0, 1 * kLineSize);
    EXPECT_EQ(a, 142u);
    // Bank access overlaps; the bus serialises the two transfers.
    EXPECT_EQ(b, 142u + 22u);
}

TEST(DramTest, BusSaturationBoundsThroughput)
{
    // Issue far more line fills than the bus can carry; average latency
    // must grow roughly linearly with the queue (bandwidth wall).
    DramModel dram(paperConfig());
    const int n = 1000;
    Cycle last = 0;
    for (int i = 0; i < n; ++i)
        last = dram.read(0, static_cast<Addr>(i) * kLineSize);
    // n transfers cannot finish faster than n * transfer cycles.
    EXPECT_GE(last, static_cast<Cycle>(n) * 22u);
    // Utilisation over the busy interval is ~100%.
    EXPECT_GT(dram.busUtilisation(last), 0.95);
}

TEST(DramTest, WritesConsumeBandwidthWithoutLatencyStat)
{
    DramModel dram(paperConfig());
    dram.write(0, 0);
    EXPECT_EQ(dram.stats().writes, 1u);
    EXPECT_EQ(dram.stats().reads, 0u);
    // A read right after the write sees bus pressure.
    const Cycle done = dram.read(0, 1 * kLineSize);
    EXPECT_GT(done, 142u);
}

TEST(DramTest, BadConfigRejected)
{
    DramConfig cfg = paperConfig();
    cfg.numBanks = 0;
    EXPECT_THROW(DramModel{cfg}, FatalError);
    for (const double bw : {0.0, std::nan(""), 1e-300}) {
        cfg = paperConfig();
        cfg.busBandwidthGBps = bw;
        EXPECT_THROW(DramModel{cfg}, FatalError) << bw;
    }
}

TEST(DramTest, UtilisationZeroWhenIdle)
{
    DramModel dram(paperConfig());
    EXPECT_DOUBLE_EQ(dram.busUtilisation(0), 0.0);
    EXPECT_DOUBLE_EQ(dram.busUtilisation(1000), 0.0);
}

} // namespace
} // namespace smtflex
