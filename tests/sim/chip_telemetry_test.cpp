/**
 * @file
 * Tests of the chip simulator's telemetry spine: the live registry
 * snapshot collected into SimResult must equal the snapshot rebuilt from
 * the result structs (same paths, same values — the registry views point
 * at those very structs); Core's clearStats() must reset every counter
 * including the private hierarchy's; and interval sampling must populate
 * the chip.ipc / chip.active_threads series without perturbing the run —
 * sampled fast-forward results stay bit-identical to strict ones, also
 * when time-shared threads rotate between samples.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/chip_sim.h"
#include "trace/spec_profiles.h"
#include "tests/common/expect_identical.h"

namespace smtflex {
namespace {

SimResult
runWorkload(ChipSim &chip, const std::vector<const char *> &benches,
            const Placement &placement, const RunLimits &limits = {},
            InstrCount budget = 12'000, InstrCount warmup = 3'000)
{
    std::vector<ThreadSpec> specs;
    specs.reserve(benches.size());
    for (const char *bench : benches)
        specs.push_back({&specProfile(bench), budget, warmup});
    return chip.runMultiProgram(specs, placement, 42, limits);
}

TEST(ChipTelemetryTest, LiveSnapshotMatchesRebuiltSnapshot)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}};
    ChipSim chip(cfg);
    const SimResult result = runWorkload(chip, {"mcf", "hmmer", "milc"}, pl);

    ASSERT_FALSE(result.metrics.empty());
    const telemetry::Snapshot rebuilt = rebuildResultMetrics(result);
    // Path-for-path, value-for-value: reports may render from either.
    EXPECT_TRUE(result.metrics == rebuilt);

    // Spot-check the schema against the structs.
    EXPECT_EQ(result.metrics.u64("chip.cycles"), result.cycles);
    EXPECT_EQ(result.metrics.u64("llc.misses"), result.llc.misses);
    EXPECT_EQ(result.metrics.u64("core.0.retired"),
              result.cores[0].stats.retired);
    EXPECT_EQ(result.metrics.u64("core.1.l1d.accesses"),
              result.cores[1].l1d.accesses);
    EXPECT_EQ(result.metrics.u64("dram.reads"), result.dram.reads);
    EXPECT_EQ(result.metrics.at("chip.config").asString(), cfg.name);
    EXPECT_EQ(result.metrics.at("chip.hit_cycle_limit").asBool(),
              result.hitCycleLimit);
}

TEST(ChipTelemetryTest, RegistryViewsTrackLiveCounters)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}};
    runWorkload(chip, {"hmmer"}, pl);

    // Between runs the registry reads the very cells the run bumped.
    EXPECT_GT(chip.metrics().read("core.0.retired").asU64(), 0u);
    EXPECT_EQ(chip.metrics().read("chip.cycles").asU64(), chip.now());
    EXPECT_GT(chip.metrics().read("core.0.dispatch.int_alu").asU64(), 0u);
}

TEST(ChipTelemetryTest, CoreClearStatsResetsEverything)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    Placement pl;
    pl.entries = {{0, 0}};
    runWorkload(chip, {"mcf"}, pl);

    Core &core = chip.core(0);
    ASSERT_GT(core.stats().retired, 0u);
    ASSERT_GT(core.stats().coreCycles, 0u);
    core.clearStats();
    EXPECT_EQ(core.stats().retired, 0u);
    EXPECT_EQ(core.stats().coreCycles, 0u);
    EXPECT_EQ(core.stats().busyCycles, 0u);
    EXPECT_EQ(core.stats().mispredicts, 0u);
    for (std::size_t k = 0; k < kNumOpClasses; ++k)
        EXPECT_EQ(core.stats().dispatched[k], 0u);
    // The registry's views see the reset immediately.
    EXPECT_EQ(chip.metrics().read("core.0.retired").asU64(), 0u);
}

TEST(ChipTelemetryTest, SamplingPopulatesSeries)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    chip.enableSampling(1'000);
    ASSERT_TRUE(chip.samplingEnabled());
    Placement pl;
    pl.entries = {{0, 0}};
    runWorkload(chip, {"mcf"}, pl);

    const telemetry::Series *ipc = chip.metrics().findSeries("chip.ipc");
    const telemetry::Series *active =
        chip.metrics().findSeries("chip.active_threads");
    ASSERT_NE(ipc, nullptr);
    ASSERT_NE(active, nullptr);
    EXPECT_GT(ipc->size(), 0u);
    EXPECT_EQ(ipc->size(), active->size());

    // Samples land exactly on interval boundaries, in order.
    std::uint64_t prev = 0;
    for (const auto &point : ipc->points()) {
        EXPECT_EQ(point.x % 1'000, 0u);
        EXPECT_GT(point.x, prev);
        prev = point.x;
        EXPECT_GE(point.value, 0.0);
    }
    // An active single-thread run should show one attached thread.
    EXPECT_DOUBLE_EQ(active->points().front().value, 1.0);
}

TEST(ChipTelemetryTest, SamplingRingCapsPoints)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    ChipSim chip(cfg);
    chip.enableSampling(500, 8);
    Placement pl;
    pl.entries = {{0, 0}};
    runWorkload(chip, {"mcf"}, pl);

    const telemetry::Series *ipc = chip.metrics().findSeries("chip.ipc");
    ASSERT_NE(ipc, nullptr);
    EXPECT_LE(ipc->size(), 8u);
    // The ring keeps the most recent samples.
    EXPECT_EQ(ipc->points().back().x % 500, 0u);
}

/** Sampling must not perturb simulation: a sampled fast-forward run stays
 * bit-identical to a sampled strict run (the jump clamp at sample
 * boundaries), and to an unsampled run of either kind. Compares the
 * SimResult field for field, the metrics snapshots and the chip.ipc /
 * chip.active_threads series. */
void
expectSamplingPreservesResults(const ChipConfig &config,
                               const Placement &placement,
                               const std::vector<const char *> &benches,
                               const RunLimits &limits, InstrCount budget,
                               InstrCount warmup, Cycle interval)
{
    const auto run = [&](ChipSim &chip) {
        return runWorkload(chip, benches, placement, limits, budget, warmup);
    };

    ChipSim plain(config);
    plain.setFastForward(true);
    const SimResult base = run(plain);

    ChipSim sampled_fast(config);
    sampled_fast.setFastForward(true);
    sampled_fast.enableSampling(interval);
    const SimResult fast = run(sampled_fast);

    ChipSim sampled_strict(config);
    sampled_strict.setFastForward(false);
    sampled_strict.enableSampling(interval);
    const SimResult strict = run(sampled_strict);

    // mcf is latency-bound: fast-forward must still engage while sampling.
    EXPECT_GT(sampled_fast.fastForwardedCycles(), Cycle{0});

    // Field for field, then the snapshots, which cover every counter.
    expectIdentical(base, fast);
    expectIdentical(fast, strict);
    EXPECT_TRUE(base.metrics == fast.metrics);
    EXPECT_TRUE(fast.metrics == strict.metrics);

    // And the sampled series themselves agree between strict and fast.
    for (const char *path : {"chip.ipc", "chip.active_threads"}) {
        SCOPED_TRACE(path);
        const telemetry::Series *fast_series =
            sampled_fast.metrics().findSeries(path);
        const telemetry::Series *strict_series =
            sampled_strict.metrics().findSeries(path);
        ASSERT_NE(fast_series, nullptr);
        ASSERT_NE(strict_series, nullptr);
        const auto a = fast_series->points();
        const auto b = strict_series->points();
        ASSERT_GT(a.size(), 0u);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].x, b[i].x) << "point " << i;
            EXPECT_EQ(a[i].value, b[i].value) << "point " << i;
        }
    }
}

TEST(ChipTelemetryTest, SamplingPreservesBitIdenticalResults)
{
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    expectSamplingPreservesResults(
        ChipConfig::homogeneous("2B", CoreParams::big(), 2), pl,
        {"mcf", "milc", "hmmer", "mcf"}, RunLimits{}, 12'000, 3'000, 2'000);
}

/** Three threads time-share one slot: thread rotations every 512 cycles
 * and samples every 700 are two boundary grids a fast-forward jump must
 * stop at, and each boundary action must run exactly once at its cycle. */
TEST(ChipTelemetryTest, TimeSharingSamplingPreservesBitIdenticalResults)
{
    Placement pl;
    pl.entries = {{0, 0}, {0, 0}, {0, 0}};
    RunLimits rotating;
    rotating.quantum = 512;
    expectSamplingPreservesResults(
        ChipConfig::homogeneous("1B", CoreParams::big(), 1), pl,
        {"mcf", "milc", "hmmer"}, rotating, 2'000, 500, 700);
}

TEST(ChipTelemetryTest, RebuildWorksForHandBuiltResults)
{
    SimResult result;
    result.configName = "synthetic";
    result.cycles = 1'000;
    result.llc.accesses = 10;
    result.llc.misses = 3;
    result.dram.reads = 2;

    const telemetry::Snapshot snap = rebuildResultMetrics(result);
    EXPECT_EQ(snap.u64("chip.cycles"), 1'000u);
    EXPECT_EQ(snap.u64("llc.misses"), 3u);
    EXPECT_EQ(snap.u64("dram.reads"), 2u);
    EXPECT_EQ(snap.at("chip.config").asString(), "synthetic");
}

} // namespace
} // namespace smtflex
