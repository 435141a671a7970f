/**
 * @file
 * Tests for the MorphCore model: mode selection, drain-and-switch
 * semantics, and performance characteristics in each mode.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "tests/uarch/test_helpers.h"
#include "trace/spec_profiles.h"
#include "uarch/inorder_core.h"
#include "uarch/morph_core.h"
#include "uarch/ooo_core.h"

namespace smtflex {
namespace {

using test::FixedLatencyMemory;
using test::ProfileThread;
using test::runCycles;

CoreParams
morphPersonality()
{
    CoreParams p = CoreParams::big();
    p.maxSmtContexts = 8; // MorphCore: 2-way OoO / 8-way in-order SMT
    return p;
}

TEST(MorphCoreTest, StartsInOooModeAndStaysThereWithFewThreads)
{
    // At or below the thread limit MorphCore is its out-of-order
    // personality cycle for cycle: every counter equals an OooCore's.
    for (const char *bench : {"hmmer", "mcf"}) {
        for (const std::uint32_t n : {1u, 2u}) {
            SCOPED_TRACE(std::string(bench) + " x" + std::to_string(n));
            FixedLatencyMemory mem(40);
            MorphCore core(morphPersonality(), MorphParams{}, 0, 8, &mem,
                           2.66);
            FixedLatencyMemory mem2(40);
            OooCore ooo(morphPersonality(), 0, 8, &mem2, 2.66);
            std::vector<std::unique_ptr<ProfileThread>> threads;
            for (std::uint32_t i = 0; i < n; ++i) {
                threads.push_back(std::make_unique<ProfileThread>(
                    specProfile(bench), i, 1u << 30));
                core.attachThread(i, threads.back().get());
                threads.push_back(std::make_unique<ProfileThread>(
                    specProfile(bench), i, 1u << 30));
                ooo.attachThread(i, threads.back().get());
            }
            runCycles(core, 20000);
            runCycles(ooo, 20000);
            EXPECT_TRUE(core.inOooMode());
            EXPECT_EQ(core.modeSwitches(), 0u);

            const CoreStats &got = core.stats();
            const CoreStats &want = ooo.stats();
            CoreStats::forEachCounter([&](const char *name, auto field) {
                EXPECT_EQ(got.*field, want.*field) << name;
            });
            for (int c = 0; c < kNumOpClasses; ++c)
                EXPECT_EQ(got.dispatched[c], want.dispatched[c])
                    << "dispatched[" << c << "]";
            EXPECT_EQ(core.hierarchy().l1d().stats().accesses,
                      ooo.hierarchy().l1d().stats().accesses);
            EXPECT_GT(got.retired, 0u);
        }
    }
}

TEST(MorphCoreTest, MorphsToInOrderWhenThreadsExceedLimit)
{
    FixedLatencyMemory mem(40);
    MorphCore core(morphPersonality(), MorphParams{}, 0, 8, &mem, 2.66);
    std::vector<std::unique_ptr<ProfileThread>> threads;
    for (std::uint32_t i = 0; i < 6; ++i) {
        threads.push_back(std::make_unique<ProfileThread>(
            specProfile("hmmer"), i, 1u << 30));
        core.attachThread(i, threads.back().get());
    }
    runCycles(core, 20000);
    EXPECT_FALSE(core.inOooMode());
    EXPECT_EQ(core.modeSwitches(), 1u);
    EXPECT_GT(core.stats().retired, 5000u) << "in-order mode must run";
}

TEST(MorphCoreTest, MorphsBackWhenThreadsLeave)
{
    FixedLatencyMemory mem(40);
    MorphCore core(morphPersonality(), MorphParams{}, 0, 8, &mem, 2.66);
    std::vector<std::unique_ptr<ProfileThread>> threads;
    for (std::uint32_t i = 0; i < 4; ++i) {
        threads.push_back(std::make_unique<ProfileThread>(
            specProfile("gobmk"), i, 1u << 30));
        core.attachThread(i, threads.back().get());
    }
    runCycles(core, 10000);
    EXPECT_FALSE(core.inOooMode());
    core.detachThread(2);
    core.detachThread(3);
    runCycles(core, 10000, 10000);
    EXPECT_TRUE(core.inOooMode());
    EXPECT_EQ(core.modeSwitches(), 2u);
}

TEST(MorphCoreTest, SwitchDrainsBeforeMorphing)
{
    // With a huge switch penalty, frequent attach/detach around the limit
    // must not corrupt anything — retires keep flowing eventually.
    FixedLatencyMemory mem(40);
    MorphParams morph;
    morph.switchPenalty = 500;
    MorphCore core(morphPersonality(), morph, 0, 8, &mem, 2.66);
    std::vector<std::unique_ptr<ProfileThread>> threads;
    for (std::uint32_t i = 0; i < 4; ++i)
        threads.push_back(std::make_unique<ProfileThread>(
            specProfile("hmmer"), i, 1u << 30));
    core.attachThread(0, threads[0].get());
    Cycle now = 0;
    for (int round = 0; round < 4; ++round) {
        core.attachThread(1, threads[1].get());
        core.attachThread(2, threads[2].get());
        runCycles(core, 3000, now);
        now += 3000;
        core.detachThread(1);
        core.detachThread(2);
        runCycles(core, 3000, now);
        now += 3000;
    }
    EXPECT_GE(core.modeSwitches(), 4u);
    EXPECT_GT(core.stats().retired, 10000u);
}

TEST(MorphCoreTest, InOrderModeStaysCompetitiveAtHighThreadCounts)
{
    // MorphCore's in-order-SMT mode trades the OoO window for simplicity
    // (its real pitch is energy). On latency-bound code the barrel of 8
    // threads must stay within striking distance of partitioned-ROB SMT,
    // not collapse.
    const BenchmarkProfile &bench = specProfile("mcf");
    auto run = [&](std::uint32_t ooo_limit) {
        FixedLatencyMemory mem(150);
        MorphParams morph;
        morph.oooThreadLimit = ooo_limit;
        MorphCore core(morphPersonality(), morph, 0, 8, &mem, 2.66);
        std::vector<std::unique_ptr<ProfileThread>> threads;
        for (std::uint32_t i = 0; i < 8; ++i) {
            threads.push_back(
                std::make_unique<ProfileThread>(bench, i, 1u << 30));
            core.attachThread(i, threads.back().get());
        }
        runCycles(core, 40000);
        return core.stats().retired;
    };
    const auto in_order_mode = run(2);  // 8 threads -> morphs to in-order
    const auto forced_ooo = run(8);     // stays OoO
    EXPECT_GT(in_order_mode, forced_ooo * 2 / 5)
        << "in-order SMT mode must not collapse";
    EXPECT_LT(in_order_mode, forced_ooo)
        << "the OoO window should still win throughput (MorphCore's "
           "advantage is energy, which this timing model does not "
           "credit)";
}

TEST(MorphCoreTest, RequiresOooPersonality)
{
    FixedLatencyMemory mem(40);
    EXPECT_THROW(MorphCore(CoreParams::small(), MorphParams{}, 0, 2, &mem,
                           2.66),
                 FatalError);
    MorphParams bad;
    bad.oooThreadLimit = 0;
    EXPECT_THROW(MorphCore(morphPersonality(), bad, 0, 8, &mem, 2.66),
                 FatalError);
}

} // namespace
} // namespace smtflex
