/**
 * @file
 * Differential tests of the event-driven fast-forward: every SimResult
 * field must be bit-identical with fast-forward on and off, across core
 * models (out-of-order, in-order), SMT occupancies, heterogeneous core
 * frequencies (non-unit core/chip clock ratios), time-sharing and cycle
 * limits. The committed seed cache doubles as a golden reference: the
 * isolated-IPC values it holds were produced by the strict simulator, so
 * recomputing them under fast-forward must reproduce them exactly.
 */

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/chip_sim.h"
#include "study/design_space.h"
#include "study/result_cache.h"
#include "study/study_engine.h"
#include "trace/spec_profiles.h"
#include "tests/common/expect_identical.h"

namespace smtflex {
namespace {

struct DiffRun
{
    SimResult strict;
    SimResult fast;
    Cycle fastSkipped = 0; ///< cycles elided by the fast-forward run
};

DiffRun
runBoth(const ChipConfig &cfg, const std::vector<const char *> &benches,
        const Placement &placement, const RunLimits &limits = RunLimits{})
{
    std::vector<ThreadSpec> specs;
    specs.reserve(benches.size());
    for (const char *bench : benches)
        specs.push_back({&specProfile(bench), 12000, 3000});

    ChipSim strict_chip(cfg);
    strict_chip.setFastForward(false);
    ChipSim fast_chip(cfg);
    fast_chip.setFastForward(true);

    DiffRun d;
    d.strict = strict_chip.runMultiProgram(specs, placement, 42, limits);
    EXPECT_EQ(strict_chip.fastForwardedCycles(), Cycle{0});
    d.fast = fast_chip.runMultiProgram(specs, placement, 42, limits);
    d.fastSkipped = fast_chip.fastForwardedCycles();
    return d;
}

TEST(ChipSimFastFwdTest, OooSmtMatchesStrict)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const DiffRun d =
        runBoth(cfg, {"mcf", "milc", "hmmer", "mcf"}, pl);
    expectIdentical(d.strict, d.fast);
    // mcf is latency-bound: the fast-forward must actually have engaged.
    EXPECT_GT(d.fastSkipped, Cycle{0});
}

TEST(ChipSimFastFwdTest, InOrderManyCoresMatchesStrict)
{
    const ChipConfig cfg = paperDesign("20s");
    Placement pl;
    pl.entries = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}};
    const DiffRun d =
        runBoth(cfg, {"mcf", "milc", "mcf", "lbm", "soplex", "mcf"}, pl);
    expectIdentical(d.strict, d.fast);
    EXPECT_GT(d.fastSkipped, Cycle{0});
}

TEST(ChipSimFastFwdTest, HeterogeneousFrequencyInOrderMatchesStrict)
{
    // 3.33 GHz cores on a 2.66 GHz chip: clockRatio_ != 1, exercising the
    // accumulator-faithful skip replay and the conservative core-to-global
    // event conversion.
    const ChipConfig cfg = alternativeDesign("16s_hf");
    Placement pl;
    pl.entries = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
    const DiffRun d = runBoth(cfg, {"mcf", "milc", "mcf", "hmmer"}, pl);
    expectIdentical(d.strict, d.fast);
    EXPECT_GT(d.fastSkipped, Cycle{0});
}

TEST(ChipSimFastFwdTest, HeterogeneousFrequencyOooMatchesStrict)
{
    const ChipConfig cfg = alternativeDesign("6m_hf");
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}};
    const DiffRun d = runBoth(cfg, {"mcf", "mcf", "milc"}, pl);
    expectIdentical(d.strict, d.fast);
}

TEST(ChipSimFastFwdTest, TimeSharingMatchesStrict)
{
    // Three threads share one context slot; skips must clamp to every
    // quantum boundary so rotations run at exactly the strict cycles.
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    Placement pl;
    pl.entries = {{0, 0}, {0, 0}, {0, 0}};
    RunLimits limits;
    limits.quantum = 512;
    const DiffRun d = runBoth(cfg, {"mcf", "milc", "mcf"}, pl, limits);
    expectIdentical(d.strict, d.fast);
}

TEST(ChipSimFastFwdTest, TimeSharingTruncatedRunsMatchStrict)
{
    // Truncating the run at cycles on and just past quantum boundaries
    // exercises the interaction between thread rotation and the idle
    // jump: the rotation must fire exactly once per boundary regardless
    // of whether the boundary is reached by a step or by a jump.
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    Placement pl;
    pl.entries = {{0, 0}, {0, 0}, {0, 0}};
    for (const Cycle m : {Cycle{511}, Cycle{512}, Cycle{513}, Cycle{1024},
                          Cycle{1065}, Cycle{1536}, Cycle{1537},
                          Cycle{2000}}) {
        RunLimits limits;
        limits.quantum = 512;
        limits.maxCycles = m;
        SCOPED_TRACE("maxCycles=" + std::to_string(m));
        const DiffRun d = runBoth(cfg, {"mcf", "milc", "mcf"}, pl, limits);
        expectIdentical(d.strict, d.fast);
    }
}

TEST(ChipSimFastFwdTest, CycleLimitMatchesStrict)
{
    // The limit lands inside memory-stall spans; the skip must clamp to
    // maxCycles and report hitCycleLimit exactly like the strict run.
    const ChipConfig cfg =
        ChipConfig::homogeneous("1s", CoreParams::small(), 1);
    Placement pl;
    pl.entries = {{0, 0}};
    RunLimits limits;
    limits.maxCycles = 2'000;
    const DiffRun d = runBoth(cfg, {"mcf"}, pl, limits);
    expectIdentical(d.strict, d.fast);
    EXPECT_TRUE(d.fast.hitCycleLimit);
    EXPECT_EQ(d.fast.cycles, limits.maxCycles);
}

TEST(ChipSimFastFwdTest, RunMatchesTickExactly)
{
    // The low-level driver path: run(N) with fast-forward on against N
    // strict tick() calls on an identical chip.
    const ChipConfig cfg =
        ChipConfig::homogeneous("2s", CoreParams::small(), 2);
    const auto make_threads = [] {
        std::vector<SimThread> threads;
        threads.reserve(2);
        threads.emplace_back(specProfile("mcf"), 7, 0, InstrCount{1} << 40,
                             true);
        threads.emplace_back(specProfile("milc"), 7, 1, InstrCount{1} << 40,
                             true);
        return threads;
    };

    ChipSim strict_chip(cfg);
    strict_chip.setFastForward(false);
    auto strict_threads = make_threads();
    strict_chip.attach(0, 0, &strict_threads[0]);
    strict_chip.attach(1, 0, &strict_threads[1]);

    ChipSim fast_chip(cfg);
    fast_chip.setFastForward(true);
    auto fast_threads = make_threads();
    fast_chip.attach(0, 0, &fast_threads[0]);
    fast_chip.attach(1, 0, &fast_threads[1]);

    constexpr Cycle kCycles = 50'000;
    for (Cycle c = 0; c < kCycles; ++c)
        strict_chip.tick();
    fast_chip.run(kCycles);

    EXPECT_EQ(strict_chip.now(), fast_chip.now());
    expectIdentical(strict_chip.collectResult(), fast_chip.collectResult());
    EXPECT_GT(fast_chip.fastForwardedCycles(), Cycle{0});
}

TEST(ChipSimFastFwdTest, RunOutOfWorkMatchesTickExactly)
{
    // A thread whose work runs out stays attached: its core is powered,
    // has nothing in flight and no event ever, yet strict ticking keeps
    // counting its cycles. The sleep must replay them at the flush.
    const ChipConfig cfg =
        ChipConfig::homogeneous("2s", CoreParams::small(), 2);
    SimThread strict_thread(specProfile("hmmer"), 7, 0, 1'000, false);
    SimThread fast_thread(specProfile("hmmer"), 7, 0, 1'000, false);
    ChipSim strict_chip(cfg);
    strict_chip.setFastForward(false);
    strict_chip.attach(0, 0, &strict_thread);
    ChipSim fast_chip(cfg);
    fast_chip.setFastForward(true);
    fast_chip.attach(0, 0, &fast_thread);

    constexpr Cycle kCycles = 50'000;
    for (Cycle c = 0; c < kCycles; ++c)
        strict_chip.tick();
    fast_chip.run(kCycles);

    ASSERT_TRUE(strict_thread.finished());
    EXPECT_EQ(strict_chip.now(), fast_chip.now());
    expectIdentical(strict_chip.collectResult(), fast_chip.collectResult());
    EXPECT_GT(fast_chip.fastForwardedCycles(), Cycle{0});
}

/**
 * The fast-forward's work gate: mcf on every core of the 20-small-core
 * chip spends most of its time with every context stalled on a DRAM fill,
 * so nearly every core-cycle is skippable. Over a pinned window from
 * cycle 0 (256 calls of run(4096)), the elided share of core-cycles is a
 * deterministic count, unlike the wall-clock speedup it buys; a change
 * that stops cores from sleeping drops it far below the floor.
 */
TEST(ChipSimFastFwdTest, Mcf20sElidesAtLeast95PercentOfCoreCycles)
{
    const ChipConfig cfg = paperDesign("20s");
    std::vector<SimThread> threads;
    threads.reserve(cfg.numCores());
    for (std::uint32_t i = 0; i < cfg.numCores(); ++i)
        threads.emplace_back(specProfile("mcf"), 1, i, InstrCount{1} << 40,
                             true);
    ChipSim chip(cfg);
    for (std::uint32_t i = 0; i < cfg.numCores(); ++i)
        chip.attach(i, 0, &threads[i]);
    chip.setFastForward(true);

    constexpr Cycle kChunk = 4096;
    constexpr int kChunks = 256;
    for (int c = 0; c < kChunks; ++c)
        chip.run(kChunk);

    const Cycle core_cycles = Cycle{cfg.numCores()} * kChunks * kChunk;
    EXPECT_GE(static_cast<double>(chip.fastForwardedCycles()) /
                  static_cast<double>(core_cycles),
              0.95)
        << chip.fastForwardedCycles() << " of " << core_cycles
        << " core-cycles elided";
}

TEST(ChipSimFastFwdTest, EnvFlagDisablesFastForward)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("1s", CoreParams::small(), 1);
    ::setenv("SMTFLEX_NO_FASTFWD", "1", 1);
    {
        ChipSim chip(cfg);
        EXPECT_FALSE(chip.fastForwardEnabled());
    }
    ::unsetenv("SMTFLEX_NO_FASTFWD");
    {
        ChipSim chip(cfg);
        EXPECT_TRUE(chip.fastForwardEnabled());
    }
}

#ifdef SMTFLEX_SOURCE_DIR
TEST(ChipSimFastFwdTest, SeedCacheGoldenValuesUnchanged)
{
    // The committed campaign cache predates the fast-forward; recomputing
    // its isolated-IPC entries with fast-forward on must reproduce the
    // stored doubles exactly (the cache stores 17 significant digits, so
    // values round-trip bit-exactly).
    ResultCache golden(std::string(SMTFLEX_SOURCE_DIR) +
                       "/smtflex_cache.txt");
    ASSERT_GT(golden.size(), std::size_t{0});

    StudyOptions opt;
    opt.cachePath.clear(); // in-memory only: force fresh simulation
    StudyEngine engine(opt);

    for (const char *bench : {"mcf", "milc", "hmmer"}) {
        for (const CoreType type :
             {CoreType::kBig, CoreType::kMedium, CoreType::kSmall}) {
            std::ostringstream key;
            key << "iso;" << bench << ";" << coreTypeTag(type) << ";b"
                << opt.budget << ";w" << opt.warmup << ";s" << opt.seed
                << ";bw" << opt.bandwidthGBps;
            const auto stored = golden.lookup(key.str());
            ASSERT_TRUE(stored.has_value()) << key.str();
            const double fresh = engine.isolatedIpc(bench, type);
            EXPECT_EQ(stored->at(0), fresh) << key.str();
        }
    }
}
#endif

} // namespace
} // namespace smtflex
