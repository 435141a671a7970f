/**
 * @file
 * Integration tests of the chip simulator: isolated performance ordering
 * across core types, SMT behaviour, time-sharing, contention, determinism.
 */

#include <gtest/gtest.h>

#include "common/log.h"
#include "sim/chip_sim.h"
#include "trace/spec_profiles.h"

namespace smtflex {
namespace {

SimResult
runIsolated(const std::string &bench, const CoreParams &core,
            InstrCount budget = 12000, InstrCount warmup = 4000)
{
    ChipConfig cfg = ChipConfig::homogeneous("iso", core, 1);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}};
    return chip.runMultiProgram({{&specProfile(bench), budget, warmup}}, pl,
                                42);
}

TEST(ChipSimTest, IsolatedPerformanceOrderingAcrossCoreTypes)
{
    for (const char *bench : {"hmmer", "tonto", "mcf", "gobmk"}) {
        const double big = runIsolated(bench, CoreParams::big())
                               .threads[0].ipc();
        const double medium = runIsolated(bench, CoreParams::medium())
                                  .threads[0].ipc();
        const double small = runIsolated(bench, CoreParams::small())
                                 .threads[0].ipc();
        EXPECT_GT(big, medium) << bench;
        EXPECT_GT(medium, small) << bench;
    }
}

TEST(ChipSimTest, DeterministicResults)
{
    const double a = runIsolated("soplex", CoreParams::big()).threads[0].ipc();
    const double b = runIsolated("soplex", CoreParams::big()).threads[0].ipc();
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(ChipSimTest, SmtIncreasesCoreThroughput)
{
    // 1 vs 3 threads on one big core: aggregate throughput must rise.
    // mcf is latency-bound, the classic SMT beneficiary.
    ChipConfig cfg = ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    const auto &profile = specProfile("mcf");

    ChipSim one(cfg);
    Placement p1;
    p1.entries = {{0, 0}};
    const SimResult r1 =
        one.runMultiProgram({{&profile, 12000, 4000}}, p1, 42);

    ChipSim three(cfg);
    Placement p3;
    p3.entries = {{0, 0}, {0, 1}, {0, 2}};
    const SimResult r3 = three.runMultiProgram(
        {{&profile, 12000, 4000}, {&profile, 12000, 4000},
         {&profile, 12000, 4000}},
        p3, 42);

    EXPECT_GT(r3.aggregateIpc(), r1.aggregateIpc() * 1.15);
    // ...but each co-running thread is slower than running alone.
    EXPECT_LT(r3.threads[0].ipc(), r1.threads[0].ipc());
}

TEST(ChipSimTest, TimeSharingSlowsPerThreadButFinishes)
{
    // Two threads on ONE context (SMT off) time-share the core. The
    // quantum must be well below the budget's runtime for the rotation to
    // show in the measured windows.
    ChipConfig cfg = ChipConfig::homogeneous("1B", CoreParams::big(), 1)
                         .withSmt(false);
    const auto &profile = specProfile("hmmer");
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}, {0, 0}};
    RunLimits limits;
    limits.quantum = 1000;
    const SimResult r = chip.runMultiProgram(
        {{&profile, 12000, 2000}, {&profile, 12000, 2000}}, pl, 42,
        limits);
    ASSERT_TRUE(r.threads[0].finished);
    ASSERT_TRUE(r.threads[1].finished);
    const double iso = runIsolated("hmmer", CoreParams::big()).threads[0].ipc();
    // Per-thread rate is roughly halved by the 50% share.
    EXPECT_LT(r.threads[0].ipc(), 0.75 * iso);
    EXPECT_LT(r.threads[1].ipc(), 0.75 * iso);
    EXPECT_GT(r.threads[0].ipc(), 0.25 * iso);
}

TEST(ChipSimTest, SharedBusContentionSlowsMemoryBoundThreads)
{
    // libquantum alone vs 4 copies on 4 separate big cores: the off-chip
    // bus is shared, so per-thread performance must drop.
    ChipConfig cfg = ChipConfig::homogeneous("4B", CoreParams::big(), 4);
    const auto &profile = specProfile("libquantum");

    ChipSim solo(cfg);
    Placement p1;
    p1.entries = {{0, 0}};
    const SimResult r1 =
        solo.runMultiProgram({{&profile, 12000, 4000}}, p1, 42);

    ChipSim four(cfg);
    Placement p4;
    p4.entries = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
    const SimResult r4 = four.runMultiProgram(
        std::vector<ThreadSpec>(4, {&profile, 12000, 4000}), p4, 42);

    EXPECT_LT(r4.threads[0].ipc(), 0.95 * r1.threads[0].ipc());
    // The bus is visibly busier.
    EXPECT_GT(four.sharedMemory().dram().busUtilisation(r4.cycles),
              solo.sharedMemory().dram().busUtilisation(r1.cycles));
}

TEST(ChipSimTest, ComputeBoundThreadsBarelyInterfereAcrossCores)
{
    ChipConfig cfg = ChipConfig::homogeneous("4B", CoreParams::big(), 4);
    const auto &profile = specProfile("hmmer");

    ChipSim solo(cfg);
    Placement p1;
    p1.entries = {{0, 0}};
    const SimResult r1 =
        solo.runMultiProgram({{&profile, 12000, 4000}}, p1, 42);

    ChipSim four(cfg);
    Placement p4;
    p4.entries = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
    const SimResult r4 = four.runMultiProgram(
        std::vector<ThreadSpec>(4, {&profile, 12000, 4000}), p4, 42);

    EXPECT_GT(r4.threads[0].ipc(), 0.9 * r1.threads[0].ipc());
}

TEST(ChipSimTest, PoweredCyclesTrackAttachment)
{
    ChipConfig cfg = ChipConfig::homogeneous("4B", CoreParams::big(), 4);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}};
    const SimResult r = chip.runMultiProgram(
        {{&specProfile("hmmer"), 8000, 0}}, pl, 42);
    EXPECT_EQ(r.cores[0].poweredCycles, r.cycles);
    EXPECT_EQ(r.cores[1].poweredCycles, 0u);
    EXPECT_EQ(r.cores[2].poweredCycles, 0u);
    EXPECT_EQ(r.cores[3].poweredCycles, 0u);
}

TEST(ChipSimTest, ActiveThreadFractions)
{
    ChipConfig cfg = ChipConfig::homogeneous("4B", CoreParams::big(), 4);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}, {1, 0}};
    const SimResult r = chip.runMultiProgram(
        {{&specProfile("hmmer"), 8000, 0}, {&specProfile("hmmer"), 8000, 0}},
        pl, 42);
    // Both threads stay attached (restart methodology) the whole run.
    EXPECT_NEAR(r.activeThreadFractions.at(2), 1.0, 1e-9);
}

TEST(ChipSimTest, PlacementValidation)
{
    ChipConfig cfg = ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    const std::vector<ThreadSpec> specs = {{&specProfile("hmmer"), 1000, 0}};
    Placement bad_core;
    bad_core.entries = {{3, 0}};
    EXPECT_THROW(chip.runMultiProgram(specs, bad_core, 1), FatalError);
    Placement bad_slot;
    bad_slot.entries = {{0, 9}};
    EXPECT_THROW(chip.runMultiProgram(specs, bad_slot, 1), FatalError);
    Placement wrong_size;
    wrong_size.entries = {{0, 0}, {0, 1}};
    EXPECT_THROW(chip.runMultiProgram(specs, wrong_size, 1), FatalError);
}

TEST(ChipSimTest, EmptyWorkloadRejected)
{
    ChipConfig cfg = ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    EXPECT_THROW(chip.runMultiProgram({}, Placement{}, 1), FatalError);
}

TEST(ChipSimTest, CycleLimitReported)
{
    ChipConfig cfg = ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}};
    RunLimits limits;
    limits.maxCycles = 100; // cannot finish 8000 instructions
    const SimResult r = chip.runMultiProgram(
        {{&specProfile("hmmer"), 8000, 0}}, pl, 42, limits);
    EXPECT_TRUE(r.hitCycleLimit);
    EXPECT_FALSE(r.threads[0].finished);
}

TEST(ChipSimTest, ZeroMaxCyclesRejected)
{
    ChipConfig cfg = ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}};
    RunLimits limits;
    limits.maxCycles = 0;
    try {
        chip.runMultiProgram({{&specProfile("hmmer"), 100, 0}}, pl, 42,
                             limits);
        FAIL() << "maxCycles = 0 accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("maxCycles"),
                  std::string::npos) << e.what();
    }
}

TEST(ChipSimTest, ZeroQuantumRejected)
{
    ChipConfig cfg = ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}};
    RunLimits limits;
    limits.quantum = 0; // would never rotate time-shared threads
    try {
        chip.runMultiProgram({{&specProfile("hmmer"), 100, 0}}, pl, 42,
                             limits);
        FAIL() << "quantum = 0 accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("quantum"), std::string::npos)
            << e.what();
    }
}

TEST(ChipSimTest, WarmAllCachesNeedsUntouchedCaches)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    const std::vector<ChipSim::WarmSpec> warm = {
        {&specProfile("hmmer"), AddressSpace::forThread(0), 0}};
    ChipSim fresh(cfg);
    EXPECT_NO_THROW(fresh.warmAllCaches(warm));
    // A second warmup would continue from the first one's LRU state.
    EXPECT_THROW(fresh.warmAllCaches(warm), FatalError);

    // A chip that has simulated: its caches were accessed.
    ChipSim ran(cfg);
    Placement pl;
    pl.entries = {{1, 0}};
    ran.runMultiProgram({{&specProfile("hmmer"), 1000, 0}}, pl, 42);
    EXPECT_THROW(ran.warmAllCaches(warm), FatalError);
}

} // namespace
} // namespace smtflex
