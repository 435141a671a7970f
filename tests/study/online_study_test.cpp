/**
 * @file
 * Acceptance test of the online-scheduling figure (DESIGN.md §14): on
 * every (design, mix) row the best online policy must match or beat the
 * naive baseline on both STP and ANTT, and on a majority of rows it must
 * land within 5% of the offline-oracle STP. The figure is driven from a
 * private copy of the committed seed cache, and the test proves the
 * committed records cover it completely — no row triggers a simulation
 * or a profiler sample.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "study/online_study.h"
#include "study/study_engine.h"
#include "tests/common/seed_cache.h"

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

#endif // SMTFLEX_SOURCE_DIR

} // namespace
} // namespace smtflex
