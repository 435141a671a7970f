/**
 * @file
 * Tests of the chip simulator's telemetry: resultMetrics() must lay a
 * result's structs out on the metric path schema, value for value, for
 * collected and hand-built results alike; Core's clearStats() must reset
 * every counter; and interval sampling must populate the IPC and
 * active-thread series without perturbing the run — sampled fast-forward
 * results stay bit-identical to strict ones, also when time-shared
 * threads rotate between samples.
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

TEST(ChipTelemetryTest, ResultMetricsReadTheStructs)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}};
    ChipSim chip(cfg);
    const SimResult result = runWorkload(chip, {"mcf", "hmmer", "milc"}, pl);
    const telemetry::Snapshot metrics = resultMetrics(result);

    // Spot-check the schema against the structs.
    EXPECT_EQ(metrics.u64("chip.cycles"), result.cycles);
    EXPECT_EQ(metrics.u64("chip.cycles"), chip.now());
    EXPECT_EQ(metrics.u64("llc.misses"), result.llc.misses);
    EXPECT_EQ(metrics.u64("core.0.retired"), result.cores[0].stats.retired);
    EXPECT_GT(metrics.u64("core.0.dispatch.int_alu"), 0u);
    EXPECT_EQ(metrics.u64("core.1.l1d.accesses"),
              result.cores[1].l1d.accesses);
    EXPECT_EQ(metrics.u64("dram.reads"), result.dram.reads);
    EXPECT_EQ(metrics.at("chip.config").asString(), cfg.name);
    EXPECT_EQ(metrics.at("chip.hit_cycle_limit").asBool(),
              result.hitCycleLimit);
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

    const telemetry::Series *ipc = chip.ipcSeries();
    const telemetry::Series *active = chip.activeThreadSeries();
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

    const telemetry::Series *ipc = chip.ipcSeries();
    ASSERT_NE(ipc, nullptr);
    EXPECT_LE(ipc->size(), 8u);
    // The ring keeps the most recent samples.
    EXPECT_EQ(ipc->points().back().x % 500, 0u);
}

/** Two sampled series hold the same points, x and value. */
void
expectSameSeries(const telemetry::Series *fast,
                 const telemetry::Series *strict)
{
    ASSERT_NE(fast, nullptr);
    ASSERT_NE(strict, nullptr);
    const auto a = fast->points();
    const auto b = strict->points();
    ASSERT_GT(a.size(), 0u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].x, b[i].x) << "point " << i;
        EXPECT_EQ(a[i].value, b[i].value) << "point " << i;
    }
}

/** Sampling must not perturb simulation: a sampled fast-forward run stays
 * bit-identical to a sampled strict run (the jump clamp at sample
 * boundaries), and to an unsampled run of either kind. Compares the
 * SimResult field for field, its resultMetrics() and the IPC and
 * active-thread series. */
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
    EXPECT_TRUE(resultMetrics(base) == resultMetrics(fast));
    EXPECT_TRUE(resultMetrics(fast) == resultMetrics(strict));

    // And the sampled series themselves agree between strict and fast.
    {
        SCOPED_TRACE("ipc");
        expectSameSeries(sampled_fast.ipcSeries(),
                         sampled_strict.ipcSeries());
    }
    {
        SCOPED_TRACE("active_threads");
        expectSameSeries(sampled_fast.activeThreadSeries(),
                         sampled_strict.activeThreadSeries());
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

TEST(ChipTelemetryTest, ResultMetricsWorkForHandBuiltResults)
{
    SimResult result;
    result.configName = "synthetic";
    result.cycles = 1'000;
    result.llc.accesses = 10;
    result.llc.misses = 3;
    result.dram.reads = 2;

    const telemetry::Snapshot snap = resultMetrics(result);
    EXPECT_EQ(snap.u64("chip.cycles"), 1'000u);
    EXPECT_EQ(snap.u64("llc.misses"), 3u);
    EXPECT_EQ(snap.u64("dram.reads"), 2u);
    EXPECT_EQ(snap.at("chip.config").asString(), "synthetic");
}

} // namespace
} // namespace smtflex
