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
#include "tests/common/expect_identical.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace {

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
    // resident indices, which must land exactly for the remaining
    // rotations to fire at the strict cycles.
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

TEST_F(ChipCkptTest, ResumeFromEveryRotationBoundaryIsBitIdentical)
{
    // Three threads time-share one slot, so the 512-cycle quanta rotate
    // them, and every snapshot on the 1,024-cycle grid lands on a
    // rotation cycle; time-series samples every 700 cycles add a third
    // grid a fast-forward jump may stop at. Each boundary action must
    // run exactly once at its cycle, however the loop reached it: one
    // snapshot per grid cycle before the first finish, and a run
    // resumed from any one of them must match the uninterrupted run —
    // its result, its metrics and its sampled series.
    const ChipConfig cfg =
        ChipConfig::homogeneous("1B", CoreParams::big(), 1);
    Placement pl;
    pl.entries = {{0, 0}, {0, 0}, {0, 0}};
    RunLimits limits;
    limits.quantum = 512;
    constexpr Cycle kSnapshotEvery = 1'024;
    std::vector<ThreadSpec> specs;
    for (const char *bench : {"mcf", "milc", "hmmer"})
        specs.push_back({&specProfile(bench), 2'000, 500});

    struct Run
    {
        SimResult result;
        std::vector<std::vector<telemetry::Series::Point>> series;
    };
    const auto run = [&](bool fast_forward) {
        ChipSim chip(cfg);
        chip.setFastForward(fast_forward);
        chip.enableSampling(700);
        Run r;
        r.result = chip.runMultiProgram(specs, pl, 42, limits);
        for (const char *path : {"chip.ipc", "chip.active_threads"})
            r.series.push_back(chip.metrics().findSeries(path)->points());
        return r;
    };
    const auto expect_same = [](const Run &reference, const Run &actual) {
        expectIdentical(reference.result, actual.result);
        EXPECT_TRUE(reference.result.metrics == actual.result.metrics);
        for (std::size_t s = 0; s < reference.series.size(); ++s) {
            const auto &a = reference.series[s];
            const auto &b = actual.series[s];
            ASSERT_EQ(a.size(), b.size()) << "series " << s;
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].x, b[i].x) << "series " << s << " point " << i;
                EXPECT_EQ(a[i].value, b[i].value)
                    << "series " << s << " point " << i;
            }
        }
    };

    const Run reference = run(true);
    Cycle first_finish = kCycleNever;
    for (const ThreadResult &t : reference.result.threads)
        first_finish = std::min(first_finish, t.finishCycle);
    ASSERT_GT(first_finish, 2 * kSnapshotEvery);

    const std::string one = dir_ + "_one";
    for (const bool fast_forward : {true, false}) {
        SCOPED_TRACE(fast_forward ? "fast-forward" : "strict");
        std::filesystem::remove_all(dir_);
        ckpt::configureProcess(dir_, kSnapshotEvery);
        const auto saves0 = ckpt::processStats().saves.load();
        expect_same(reference, run(fast_forward));
        const auto files = snapshotFiles();
        EXPECT_EQ(files.size(), (first_finish - 1) / kSnapshotEvery);
        EXPECT_EQ(ckpt::processStats().saves.load() - saves0, files.size());

        for (const auto &file : files) {
            SCOPED_TRACE("resume from " + file.filename().string());
            std::filesystem::remove_all(one);
            std::filesystem::create_directories(one);
            std::filesystem::copy_file(file,
                                       one + "/" + file.filename().string());
            ckpt::configureProcess(one, kSnapshotEvery);
            const auto hits0 = ckpt::processStats().hits.load();
            const Run resumed = run(fast_forward);
            EXPECT_EQ(ckpt::processStats().hits.load(), hits0 + 1);
            expect_same(reference, resumed);
        }
    }
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
