/**
 * @file
 * Acceptance test of the online-scheduling figure (DESIGN.md §14): on
 * every (design, mix) row the best online policy must match or beat the
 * naive baseline on both STP and ANTT, and on a majority of rows it must
 * land within 5% of the offline-oracle STP. The figure is driven from a
 * private copy of the committed seed cache, and the test proves the
 * committed records cover it completely — no row triggers a simulation
 * or a profiler sample. The decisions of the PARSEC-kernel rows are also
 * recomputed from scratch and must equal the committed `ol;` records bit
 * for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "study/design_space.h"
#include "study/online_study.h"
#include "study/study_engine.h"
#include "tests/common/seed_cache.h"
#include "workload/parsec.h"

namespace smtflex {
namespace {

#ifdef SMTFLEX_SOURCE_DIR

TEST(OnlineStudyTest, FigureReproducesFromSeedCacheAndBeatsNaive)
{
    StudyOptions options; // the committed cache's identity: defaults
    options.cachePath = seedCacheCopy("smtflex_online_study_cache");
    StudyEngine engine(options);
    const std::size_t seeded = engine.resultCache().size();
    ASSERT_GT(seeded, std::size_t{0});

    const std::vector<OnlineStudyRow> rows = onlineStudy(engine);
    ASSERT_EQ(rows.size(),
              onlineStudyDesigns().size() *
                  onlineStudyWorkloads(options).size());

    std::size_t nearOracle = 0;
    for (const OnlineStudyRow &row : rows) {
        const std::string label = row.design + " " + row.workload;
        ASSERT_FALSE(row.policies.empty()) << label;
        double bestStp = 0.0;
        double bestAntt = 0.0;
        for (const ScheduleMetrics &policy : row.policies) {
            bestStp = std::max(bestStp, policy.run.stp);
            bestAntt = bestAntt == 0.0
                ? policy.run.antt
                : std::min(bestAntt, policy.run.antt);
        }
        // Counter-driven placement must never lose to ignoring the
        // counters entirely.
        EXPECT_GE(bestStp, row.naive.stp) << label;
        EXPECT_LE(bestAntt, row.naive.antt) << label;
        if (bestStp >= 0.95 * row.oracle.stp)
            ++nearOracle;
    }
    // Within 5% of the offline oracle's STP on a majority of the rows.
    EXPECT_GT(nearOracle * 2, rows.size());

    // Every record the figure needs was in the committed seed cache:
    // nothing was stored, sampled or simulated afresh.
    EXPECT_EQ(engine.resultCache().size(), seeded);
    EXPECT_EQ(engine.schedStats().samplesRun.load(), 0u);
    removeTestTempFiles(options.cachePath);
}

TEST(OnlineStudyTest, FigureTextIsDeterministic)
{
    StudyOptions options;
    options.cachePath = seedCacheCopy("smtflex_online_study_cache");
    StudyEngine first(options);
    StudyEngine second(options);
    const std::string text = onlineStudyText(first);
    EXPECT_EQ(onlineStudyText(second), text);
    EXPECT_NE(text.find("Online scheduling vs offline oracle"),
              std::string::npos);
    EXPECT_NE(text.find("pairing"), std::string::npos);
    removeTestTempFiles(options.cachePath);
}

/** Same bits: the profile's doubles must be recomputed, not approximated. */
void
expectSameBits(double seeded, double cold, const char *field,
               const std::string &label)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seeded),
              std::bit_cast<std::uint64_t>(cold))
        << label << " " << field << ": seed " << seeded << ", cold " << cold;
}

TEST(OnlineStudyTest, ColdDecisionsMatchTheSeedCache)
{
    // The figure's PARSEC worker-kernel rows, decided from scratch on an
    // in-memory engine, must reproduce the committed `ol;` records.
    StudyOptions options; // the committed cache's identity: defaults
    options.cachePath = seedCacheCopy("smtflex_online_decisions_cache");
    StudyEngine seeded(options);
    const std::size_t records = seeded.resultCache().size();
    StudyOptions cold_options;
    cold_options.cachePath = "";
    StudyEngine cold(cold_options);

    const auto is_kernel = [](const BenchmarkProfile *program) {
        const auto &apps = parsecProfiles();
        return std::any_of(apps.begin(), apps.end(),
                           [&](const ParsecProfile *app) {
                               return program == &app->kernel;
                           });
    };
    std::vector<MultiProgramWorkload> kernels;
    for (const MultiProgramWorkload &mix : onlineStudyWorkloads(options)) {
        if (std::all_of(mix.programs.begin(), mix.programs.end(), is_kernel))
            kernels.push_back(mix);
    }
    ASSERT_EQ(kernels.size(), 2u);

    std::size_t decisions = 0;
    for (const std::string &design : onlineStudyDesigns()) {
        const ChipConfig config = paperDesign(design);
        for (const MultiProgramWorkload &mix : kernels) {
            for (const std::string &policy : online::onlinePolicyNames()) {
                const std::string label =
                    design + " " + mix.name + " " + policy;
                const PlacementDecision want =
                    seeded.decidePlacement(config, mix, policy);
                const PlacementDecision got =
                    cold.decidePlacement(config, mix, policy);
                ASSERT_EQ(want.placement.entries.size(),
                          got.placement.entries.size())
                    << label;
                for (std::size_t t = 0; t < want.placement.entries.size();
                     ++t) {
                    EXPECT_EQ(want.placement.entries[t].core,
                              got.placement.entries[t].core)
                        << label << " thread " << t;
                    EXPECT_EQ(want.placement.entries[t].slot,
                              got.placement.entries[t].slot)
                        << label << " thread " << t;
                }
                EXPECT_EQ(want.classes, got.classes) << label;
                EXPECT_EQ(want.epochs, got.epochs) << label;
                expectSameBits(want.predictedStp, got.predictedStp,
                               "predictedStp", label);
                expectSameBits(want.predictedAntt, got.predictedAntt,
                               "predictedAntt", label);
                expectSameBits(want.migrations, got.migrations,
                               "migrations", label);
                expectSameBits(want.reclassifications, got.reclassifications,
                               "reclassifications", label);
                expectSameBits(want.quantaSampled, got.quantaSampled,
                               "quantaSampled", label);
                expectSameBits(want.samplesRun, got.samplesRun, "samplesRun",
                               label);
                ++decisions;
            }
        }
    }
    EXPECT_EQ(decisions, 24u);
    // Every seeded decision came from the committed records; every cold
    // one was sampled and decided afresh.
    EXPECT_EQ(seeded.resultCache().size(), records);
    EXPECT_EQ(seeded.schedStats().samplesRun.load(), 0u);
    EXPECT_EQ(cold.resultCache().size(), decisions);
    removeTestTempFiles(options.cachePath);
}

#endif // SMTFLEX_SOURCE_DIR

} // namespace
} // namespace smtflex
