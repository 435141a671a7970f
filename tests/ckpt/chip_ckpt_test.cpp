/**
 * @file
 * Differential tests of ChipSim checkpoint/restore: a run that resumes
 * from a snapshot must be bit-identical — every SimResult field — to the
 * uninterrupted run, from every snapshot boundary, under fast-forward
 * and strict stepping, with time sharing, with a larger budget
 * (warm-start prefix reuse) and under injected ckpt.* faults. Corrupt
 * snapshots must fall back to a bit-identical cold start and be counted.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/store.h"
#include "common/fault.h"
#include "sim/chip_sim.h"
#include "trace/spec_profiles.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace {

void
expectIdenticalCache(const CacheStats &a, const CacheStats &b,
                     const std::string &what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

/** Every field exactly equal — including double-typed ones, where any
 * restore drift would show up as a ULP difference. */
void
expectIdentical(const SimResult &cold, const SimResult &resumed)
{
    EXPECT_EQ(cold.cycles, resumed.cycles);
    EXPECT_EQ(cold.hitCycleLimit, resumed.hitCycleLimit);

    ASSERT_EQ(cold.cores.size(), resumed.cores.size());
    for (std::size_t i = 0; i < cold.cores.size(); ++i) {
        const std::string what = "core " + std::to_string(i);
        const CoreStats &a = cold.cores[i].stats;
        const CoreStats &b = resumed.cores[i].stats;
        EXPECT_EQ(a.coreCycles, b.coreCycles) << what;
        EXPECT_EQ(a.busyCycles, b.busyCycles) << what;
        for (std::size_t k = 0; k < kNumOpClasses; ++k)
            EXPECT_EQ(a.dispatched[k], b.dispatched[k])
                << what << " op class " << k;
        EXPECT_EQ(a.retired, b.retired) << what;
        EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
        EXPECT_EQ(a.robStallEvents, b.robStallEvents) << what;
        EXPECT_EQ(a.mshrStallEvents, b.mshrStallEvents) << what;
        EXPECT_EQ(cold.cores[i].poweredCycles, resumed.cores[i].poweredCycles)
            << what;
        expectIdenticalCache(cold.cores[i].l1i, resumed.cores[i].l1i,
                             what + " l1i");
        expectIdenticalCache(cold.cores[i].l1d, resumed.cores[i].l1d,
                             what + " l1d");
        expectIdenticalCache(cold.cores[i].l2, resumed.cores[i].l2,
                             what + " l2");
    }

    expectIdenticalCache(cold.llc, resumed.llc, "llc");
    EXPECT_EQ(cold.dram.reads, resumed.dram.reads);
    EXPECT_EQ(cold.dram.writes, resumed.dram.writes);
    EXPECT_EQ(cold.dram.totalLatencyCycles, resumed.dram.totalLatencyCycles);
    EXPECT_EQ(cold.dram.busBusyCycles, resumed.dram.busBusyCycles);
    EXPECT_EQ(cold.xbar.requests, resumed.xbar.requests);
    EXPECT_EQ(cold.xbar.totalQueueCycles, resumed.xbar.totalQueueCycles);

    ASSERT_EQ(cold.activeThreadFractions.size(),
              resumed.activeThreadFractions.size());
    for (std::size_t k = 0; k < cold.activeThreadFractions.size(); ++k)
        EXPECT_EQ(cold.activeThreadFractions[k],
                  resumed.activeThreadFractions[k])
            << "histogram bucket " << k;

    ASSERT_EQ(cold.threads.size(), resumed.threads.size());
    for (std::size_t i = 0; i < cold.threads.size(); ++i) {
        const std::string what = "thread " + std::to_string(i);
        EXPECT_EQ(cold.threads[i].benchmark, resumed.threads[i].benchmark)
            << what;
        EXPECT_EQ(cold.threads[i].budget, resumed.threads[i].budget) << what;
        EXPECT_EQ(cold.threads[i].finished, resumed.threads[i].finished)
            << what;
        EXPECT_EQ(cold.threads[i].startCycle, resumed.threads[i].startCycle)
            << what;
        EXPECT_EQ(cold.threads[i].finishCycle, resumed.threads[i].finishCycle)
            << what;
    }
}

class ChipCkptTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = testTempPath("smtflex_chip_ckpt_test");
        std::filesystem::remove_all(dir_);
        // Force checkpointing off (ignoring any ambient SMTFLEX_CKPT)
        // until a test turns it on.
        ckpt::configureProcess("", 1);
    }

    void TearDown() override
    {
        fault::reset();
        ckpt::resetProcess();
        std::filesystem::remove_all(dir_);
        std::filesystem::remove_all(dir_ + "_one");
    }

    /** One uninterrupted runMultiProgram under the current process ckpt
     * binding; a fresh chip every call. */
    static SimResult runOnce(const ChipConfig &cfg,
                             const std::vector<const char *> &benches,
                             const Placement &placement,
                             const RunLimits &limits = RunLimits{},
                             bool fast_forward = true,
                             std::uint64_t budget = 12'000)
    {
        std::vector<ThreadSpec> specs;
        specs.reserve(benches.size());
        for (const char *bench : benches)
            specs.push_back({&specProfile(bench), budget, 3'000});
        ChipSim chip(cfg);
        chip.setFastForward(fast_forward);
        return chip.runMultiProgram(specs, placement, 42, limits);
    }

    std::vector<std::filesystem::path> snapshotFiles() const
    {
        std::vector<std::filesystem::path> files;
        if (!std::filesystem::exists(dir_))
            return files;
        for (const auto &entry : std::filesystem::directory_iterator(dir_))
            if (entry.path().extension() == ".ckpt")
                files.push_back(entry.path());
        std::sort(files.begin(), files.end());
        return files;
    }

    std::string dir_;
};

TEST_F(ChipCkptTest, CheckpointingItselfChangesNothing)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const std::vector<const char *> benches = {"mcf", "milc", "hmmer",
                                               "mcf"};

    const SimResult reference = runOnce(cfg, benches, pl);

    ckpt::configureProcess(dir_, 1'000);
    const auto misses0 = ckpt::processStats().misses.load();
    const SimResult with_ckpt = runOnce(cfg, benches, pl);

    expectIdentical(reference, with_ckpt);
    EXPECT_EQ(ckpt::processStats().misses.load(), misses0 + 1);
    EXPECT_GT(snapshotFiles().size(), 2u) << "no snapshots were written";
}

TEST_F(ChipCkptTest, ResumeFromEveryBoundaryIsBitIdentical)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const std::vector<const char *> benches = {"mcf", "milc", "hmmer",
                                               "mcf"};

    const SimResult reference = runOnce(cfg, benches, pl);

    ckpt::configureProcess(dir_, 1'000);
    runOnce(cfg, benches, pl); // populate the store
    const auto files = snapshotFiles();
    ASSERT_GT(files.size(), 2u);

    // Resume from each boundary in isolation: a store holding only the
    // cycle-N snapshot forces the run to restart exactly there.
    const std::string one = dir_ + "_one";
    for (const auto &file : files) {
        SCOPED_TRACE("resume from " + file.filename().string());
        std::filesystem::remove_all(one);
        std::filesystem::create_directories(one);
        std::filesystem::copy_file(file,
                                   one + "/" + file.filename().string());
        ckpt::configureProcess(one, 1'000);
        const auto hits0 = ckpt::processStats().hits.load();
        const SimResult resumed = runOnce(cfg, benches, pl);
        EXPECT_EQ(ckpt::processStats().hits.load(), hits0 + 1);
        expectIdentical(reference, resumed);
    }
}

TEST_F(ChipCkptTest, CorruptStoreFallsBackToBitIdenticalColdStart)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const std::vector<const char *> benches = {"mcf", "milc", "hmmer",
                                               "mcf"};

    const SimResult reference = runOnce(cfg, benches, pl);

    ckpt::configureProcess(dir_, 1'000);
    runOnce(cfg, benches, pl);
    const auto files = snapshotFiles();
    ASSERT_GT(files.size(), 0u);

    // Tear every snapshot; the next run must skip them all (counted),
    // report a miss, and cold-start to the identical result.
    for (const auto &file : files)
        std::filesystem::resize_file(
            file, std::filesystem::file_size(file) / 3);

    const auto skipped0 = ckpt::processStats().corruptSkipped.load();
    const auto misses0 = ckpt::processStats().misses.load();
    const auto hits0 = ckpt::processStats().hits.load();
    const SimResult cold = runOnce(cfg, benches, pl);
    expectIdentical(reference, cold);
    EXPECT_EQ(ckpt::processStats().corruptSkipped.load(),
              skipped0 + files.size());
    EXPECT_EQ(ckpt::processStats().misses.load(), misses0 + 1);
    EXPECT_EQ(ckpt::processStats().hits.load(), hits0);
}

TEST_F(ChipCkptTest, WarmStartServesALargerBudgetFromAShorterRunsPrefix)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {1, 0}};
    const std::vector<const char *> benches = {"mcf", "milc"};

    const SimResult reference =
        runOnce(cfg, benches, pl, RunLimits{}, true, 24'000);

    // A short run populates the store; the pre-finish snapshots are
    // budget-independent, so the doubled-budget run resumes from them.
    ckpt::configureProcess(dir_, 1'000);
    runOnce(cfg, benches, pl, RunLimits{}, true, 12'000);
    ASSERT_GT(snapshotFiles().size(), 0u);

    const auto hits0 = ckpt::processStats().hits.load();
    const SimResult warmed =
        runOnce(cfg, benches, pl, RunLimits{}, true, 24'000);
    EXPECT_EQ(ckpt::processStats().hits.load(), hits0 + 1);
    expectIdentical(reference, warmed);
}

TEST_F(ChipCkptTest, StrictSteppingResumesBitIdentically)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2s", CoreParams::small(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}};
    const std::vector<const char *> benches = {"mcf", "milc"};

    const SimResult reference =
        runOnce(cfg, benches, pl, RunLimits{}, /*fast_forward=*/false);

    ckpt::configureProcess(dir_, 1'000);
    runOnce(cfg, benches, pl, RunLimits{}, false);
    ASSERT_GT(snapshotFiles().size(), 0u);

    const auto hits0 = ckpt::processStats().hits.load();
    const SimResult resumed =
        runOnce(cfg, benches, pl, RunLimits{}, false);
    EXPECT_EQ(ckpt::processStats().hits.load(), hits0 + 1);
    expectIdentical(reference, resumed);
}

TEST_F(ChipCkptTest, StrictAndFastForwardResumesAgree)
{
    // Cross-check: a fast-forward resume and a strict resume of the same
    // snapshot reach the same result (the snapshot state is
    // strict-equivalent; fast-forward is result-neutral on top of it).
    const ChipConfig cfg =
        ChipConfig::homogeneous("2s", CoreParams::small(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {0, 1}};
    const std::vector<const char *> benches = {"mcf", "milc"};

    ckpt::configureProcess(dir_, 1'000);
    runOnce(cfg, benches, pl, RunLimits{}, true);
    ASSERT_GT(snapshotFiles().size(), 0u);

    const SimResult fast = runOnce(cfg, benches, pl, RunLimits{}, true);
    const SimResult strict = runOnce(cfg, benches, pl, RunLimits{}, false);
    expectIdentical(strict, fast);
}

TEST_F(ChipCkptTest, TimeSharingResumeRestoresRotationState)
{
    // Three threads share one context slot: the snapshot carries the
    // resident indices and the rotation clock, both of which must land
    // exactly for the remaining rotations to fire at the strict cycles.
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    Placement pl;
    pl.entries = {{0, 0}, {0, 0}, {0, 0}};
    RunLimits limits;
    limits.quantum = 512;
    const std::vector<const char *> benches = {"mcf", "milc", "mcf"};

    const SimResult reference = runOnce(cfg, benches, pl, limits);

    ckpt::configureProcess(dir_, 3'000);
    runOnce(cfg, benches, pl, limits);
    ASSERT_GT(snapshotFiles().size(), 0u);

    const auto hits0 = ckpt::processStats().hits.load();
    const SimResult resumed = runOnce(cfg, benches, pl, limits);
    EXPECT_EQ(ckpt::processStats().hits.load(), hits0 + 1);
    expectIdentical(reference, resumed);
}

TEST_F(ChipCkptTest, InjectedTornWritesNeverChangeResults)
{
    const ChipConfig cfg =
        ChipConfig::homogeneous("2B", CoreParams::big(), 2);
    Placement pl;
    pl.entries = {{0, 0}, {1, 0}};
    const std::vector<const char *> benches = {"mcf", "milc"};

    const SimResult reference = runOnce(cfg, benches, pl);

    // Every snapshot write is torn mid-file and still published — the
    // worst-case power-cut pattern. The run itself must not notice.
    ckpt::configureProcess(dir_, 1'000);
    fault::configure("ckpt.write");
    const auto failures0 = ckpt::processStats().saveFailures.load();
    const SimResult with_faults = runOnce(cfg, benches, pl);
    fault::reset();
    expectIdentical(reference, with_faults);
    EXPECT_GT(ckpt::processStats().saveFailures.load(), failures0);
    const auto files = snapshotFiles();
    ASSERT_GT(files.size(), 0u);

    // The store now holds only torn files: the next run skips every one
    // (counted), reports a miss, and cold-starts bit-identically.
    const auto skipped0 = ckpt::processStats().corruptSkipped.load();
    const auto hits0 = ckpt::processStats().hits.load();
    const SimResult after = runOnce(cfg, benches, pl);
    expectIdentical(reference, after);
    EXPECT_EQ(ckpt::processStats().hits.load(), hits0);
    EXPECT_GE(ckpt::processStats().corruptSkipped.load(),
              skipped0 + files.size());
}

} // namespace
} // namespace smtflex
