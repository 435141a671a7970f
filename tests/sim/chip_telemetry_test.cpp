/**
 * @file
 * Tests of the chip simulator's telemetry: resultMetrics() must lay a
 * result's structs out on the metric path schema, value for value, for
 * collected and hand-built results alike; and Core's clearStats() must
 * reset every counter.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/chip_sim.h"
#include "trace/spec_profiles.h"

namespace smtflex {
namespace {

SimResult
runWorkload(ChipSim &chip, const std::vector<const char *> &benches,
            const Placement &placement)
{
    std::vector<ThreadSpec> specs;
    specs.reserve(benches.size());
    for (const char *bench : benches)
        specs.push_back({&specProfile(bench), 12'000, 3'000});
    return chip.runMultiProgram(specs, placement, 42);
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
