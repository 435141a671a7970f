/**
 * @file
 * Integration tests of the StudyEngine: caching, offline analysis, and the
 * qualitative shape of the paper's findings at reduced instruction budgets.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "study/design_space.h"
#include "study/figures.h"
#include "study/study_engine.h"
#include "trace/spec_profiles.h"
#include "workload/distributions.h"
#include "workload/multiprogram.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace {

StudyOptions
fastOptions()
{
    StudyOptions opts;
    opts.budget = 6'000;
    opts.warmup = 2'000;
    opts.seed = 12'345;
    opts.cachePath.clear(); // in-memory
    opts.hetMixes = 12;
    return opts;
}

TEST(StudyEngineTest, IsolatedIpcOrderingAcrossCoreTypes)
{
    StudyEngine eng(fastOptions());
    for (const char *bench : {"hmmer", "mcf", "tonto"}) {
        const double big = eng.isolatedIpc(bench, CoreType::kBig);
        const double medium = eng.isolatedIpc(bench, CoreType::kMedium);
        const double small = eng.isolatedIpc(bench, CoreType::kSmall);
        EXPECT_GT(big, medium) << bench;
        EXPECT_GT(medium, small) << bench;
    }
}

TEST(StudyEngineTest, OfflineTableComplete)
{
    StudyEngine eng(fastOptions());
    const OfflineProfile &offline = eng.offline();
    for (const auto &bench : specBenchmarkNames()) {
        EXPECT_TRUE(offline.has(bench, CoreType::kBig)) << bench;
        EXPECT_TRUE(offline.has(bench, CoreType::kMedium)) << bench;
        EXPECT_TRUE(offline.has(bench, CoreType::kSmall)) << bench;
        EXPECT_GT(offline.bigAffinity(bench), 1.0) << bench;
    }
}

TEST(StudyEngineTest, DiskCacheMakesRepeatRunsFree)
{
    const std::string path =
        testTempPath("smtflex_engine_cache") + ".txt";
    std::remove(path.c_str());
    StudyOptions opts = fastOptions();
    opts.cachePath = path;

    double first_stp;
    {
        StudyEngine eng(opts);
        first_stp =
            eng.multiprogram(paperDesign("4B"), homogeneousWorkload("tonto", 2))
                .stp;
    }
    StudyEngine eng2(opts);
    const auto again =
        eng2.multiprogram(paperDesign("4B"), homogeneousWorkload("tonto", 2));
    EXPECT_DOUBLE_EQ(again.stp, first_stp);
    removeTestTempFiles(path);
}

TEST(StudyEngineTest, SingleThreadStpIsOneOnBigCore)
{
    // STP normalises against isolated big-core execution, so one thread on
    // the 4B design scores exactly 1.
    StudyEngine eng(fastOptions());
    const auto m = eng.homogeneousAt(paperDesign("4B"), 1);
    EXPECT_NEAR(m.stp, 1.0, 0.05);
    EXPECT_NEAR(m.antt, 1.0, 0.05);
}

TEST(StudyEngineTest, Finding1LowThreadCounts4BWins)
{
    // Few active threads: all-big-cores beats every small-core design
    // (paper Finding #1 / Fig. 3).
    StudyEngine eng(fastOptions());
    const double stp_4b = eng.homogeneousAt(paperDesign("4B"), 2).stp;
    for (const char *other : {"20s", "8m", "1B15s", "1B6m"}) {
        EXPECT_GT(stp_4b, eng.homogeneousAt(paperDesign(other), 2).stp)
            << other;
    }
}

TEST(StudyEngineTest, Finding1HighThreadCountsManyCoresWinButClose)
{
    // 24 active threads: 20s outperforms 4B, but 4B stays within reach
    // (shared-resource contention flattens the gap).
    StudyEngine eng(fastOptions());
    const double stp_4b = eng.homogeneousAt(paperDesign("4B"), 24).stp;
    const double stp_20s = eng.homogeneousAt(paperDesign("20s"), 24).stp;
    EXPECT_GT(stp_20s, stp_4b);
    EXPECT_GT(stp_4b, 0.4 * stp_20s);
}

TEST(StudyEngineTest, SmtRaisesThroughputBeyondCoreCount)
{
    // 12 threads on 4B: with SMT they run concurrently; without SMT they
    // time-share 4 contexts. SMT must win clearly (Finding #3 mechanism).
    StudyEngine eng(fastOptions());
    const ChipConfig smt = paperDesign("4B");
    const ChipConfig no_smt = smt.withSmt(false);
    const double with_smt = eng.homogeneousAt(smt, 12).stp;
    const double without = eng.homogeneousAt(no_smt, 12).stp;
    EXPECT_GT(with_smt, 1.2 * without);
}

TEST(StudyEngineTest, AnttGrowsWithThreadCount)
{
    StudyEngine eng(fastOptions());
    const auto at2 = eng.homogeneousAt(paperDesign("4B"), 2);
    const auto at8 = eng.homogeneousAt(paperDesign("4B"), 8);
    EXPECT_GT(at8.antt, at2.antt);
}

TEST(StudyEngineTest, PowerGatingSavesAtLowCounts)
{
    StudyEngine eng(fastOptions());
    const auto m = eng.homogeneousAt(paperDesign("20s"), 2);
    EXPECT_LT(m.powerGatedW, m.powerUngatedW - 2.0);
    const auto full = eng.homogeneousAt(paperDesign("20s"), 24);
    EXPECT_GT(full.powerGatedW, m.powerGatedW);
}

TEST(StudyEngineTest, DistributionStpIsWeightedHarmonicMean)
{
    // A figure's distribution point (study/figures.h) averages the sweep
    // rows: STP by the weighted harmonic mean, power arithmetically.
    StudyEngine eng(fastOptions());
    const ChipConfig cfg = paperDesign("4B");
    const RunMetrics at1 = eng.homogeneousAt(cfg, 1);
    const RunMetrics at2 = eng.homogeneousAt(cfg, 2);
    const DiscreteDistribution dist({1.0, 1.0});
    const DistributionPoint p = distributionPoints(eng, {cfg}, dist, false)[0];
    EXPECT_NEAR(p.stp, 2.0 / (1.0 / at1.stp + 1.0 / at2.stp), 1e-9);
    EXPECT_GE(p.stp, std::min(at1.stp, at2.stp));
    EXPECT_LE(p.stp, std::max(at1.stp, at2.stp));
    EXPECT_NEAR(p.powerW, (at1.powerGatedW + at2.powerGatedW) / 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(p.energyPerWork, p.powerW / p.stp);
}

TEST(StudyEngineTest, HeterogeneousAtUsesBalancedMixes)
{
    StudyEngine eng(fastOptions());
    const auto m = eng.heterogeneousAt(paperDesign("4B"), 3);
    EXPECT_GT(m.stp, 0.0);
    EXPECT_GE(m.antt, 1.0);
}

TEST(StudyEngineTest, ParsecRunCachedAndDeterministic)
{
    StudyEngine eng(fastOptions());
    const auto a = eng.parsec(paperDesign("4B"), "blackscholes", 4);
    const auto b = eng.parsec(paperDesign("4B"), "blackscholes", 4);
    EXPECT_TRUE(a.completed);
    EXPECT_DOUBLE_EQ(a.roiCycles, b.roiCycles);
    EXPECT_GT(a.totalCycles, a.roiCycles);
    EXPECT_GT(a.powerGatedW, 0.0);
}

TEST(StudyEngineTest, ParsecThreadCandidates)
{
    StudyEngine eng(fastOptions());
    // Without SMT: exactly the core count.
    const auto no_smt =
        eng.parsecThreadCandidates(paperDesign("8m").withSmt(false));
    ASSERT_EQ(no_smt.size(), 1u);
    EXPECT_EQ(no_smt[0], 8u);
    // With SMT on 4B: multiples of 4 up to 24, plus the core count.
    const auto smt = eng.parsecThreadCandidates(paperDesign("4B"));
    EXPECT_EQ(smt.front(), 4u);
    EXPECT_NE(std::find(smt.begin(), smt.end(), 24u), smt.end());
}

TEST(StudyEngineTest, ConfiguredAppliesBandwidth)
{
    StudyOptions opts = fastOptions();
    opts.bandwidthGBps = 16.0;
    StudyEngine eng(opts);
    EXPECT_DOUBLE_EQ(eng.configured(paperDesign("4B")).dram.busBandwidthGBps,
                     16.0);
}

// A CRC-less legacy line cut right after its key loads as an empty record;
// decoding it must fail loudly, not read past its end.
TEST(StudyEngineTest, EmptyIsolatedRecordIsFatal)
{
    StudyOptions opts = fastOptions();
    const std::string bench = specBenchmarkNames()[0];
    // isolationCacheKeys() starts with bench 0 on the big core.
    const std::string key = StudyEngine(opts).isolationCacheKeys()[0];
    opts.cachePath = testTempPath("smtflex_empty_iso_record") + ".txt";
    std::ofstream(opts.cachePath, std::ios::trunc) << key << "|\n";
    StudyEngine eng(opts);
    EXPECT_THROW(eng.isolatedIpc(bench, CoreType::kBig), FatalError);
    removeTestTempFiles(opts.cachePath);
}

/**
 * decidePlacement() for mcf+hmmer on 4B with @p record cached under its
 * `ol;` key, on an in-memory engine: the decoded decision, or a
 * FatalError that must name the key.
 */
PlacementDecision
decideFromRecord(const std::vector<double> &record)
{
    const StudyOptions opts = fastOptions();
    std::ostringstream key;
    key << "ol;pairing;4B;smt1;bw" << opts.bandwidthGBps << ";b"
        << opts.budget << ";w" << opts.warmup << ";s" << opts.seed
        << ";mix:mcf+hmmer";
    StudyEngine eng(opts);
    eng.resultCache().store(key.str(), record);
    try {
        return eng.decidePlacement(paperDesign("4B"),
                                   mixWorkload({"mcf", "hmmer"}), "pairing");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(key.str()), std::string::npos)
            << e.what();
        throw;
    }
}

/** Two threads: core 0 slot 1 memory-bound, core 3 slot 0 ILP-bound. */
const std::vector<double> kPlacementRecord = {
    1.5, 1.2, 1, 0, 0, 4, 4, 2, 0, 1, 0, 3, 0, 2};

/** kPlacementRecord with value @p index replaced by @p value. */
std::vector<double>
placementRecordWith(std::size_t index, double value)
{
    std::vector<double> record = kPlacementRecord;
    record.at(index) = value;
    return record;
}

TEST(CachedPlacementTest, WellFormedRecordDecodes)
{
    const PlacementDecision d = decideFromRecord(kPlacementRecord);
    ASSERT_EQ(d.placement.entries.size(), 2u);
    EXPECT_EQ(d.placement.entries[0].slot, 1u);
    EXPECT_EQ(d.placement.entries[1].core, 3u);
    EXPECT_EQ(d.classes[1], online::ThreadClass::kIlpBound);
}

// A cached `ol;` record's thread count, cores, slots and classes index
// the workload, the design and the class names; a record that does not
// fit them must fail loudly instead of indexing past their ends.
TEST(CachedPlacementTest, ThreadCountOtherThanTheWorkloadIsFatal)
{
    EXPECT_THROW(decideFromRecord({1, 1, 0, 0, 0, 0, 0, 0}), FatalError);
}

TEST(CachedPlacementTest, RecordTooShortForItsThreadsIsFatal)
{
    const std::vector<double> cut(kPlacementRecord.begin(),
                                  kPlacementRecord.end() - 1);
    EXPECT_THROW(decideFromRecord(cut), FatalError);
}

TEST(CachedPlacementTest, CoreOutsideTheDesignIsFatal)
{
    EXPECT_THROW(decideFromRecord(placementRecordWith(11, 4)), FatalError);
    EXPECT_THROW(decideFromRecord(placementRecordWith(11, 0.5)), FatalError);
}

TEST(CachedPlacementTest, SlotOutsideTheCoreIsFatal)
{
    // A big core exposes six SMT slots.
    EXPECT_THROW(decideFromRecord(placementRecordWith(9, 6)), FatalError);
}

TEST(CachedPlacementTest, UnknownThreadClassIsFatal)
{
    EXPECT_THROW(decideFromRecord(placementRecordWith(13, 3)), FatalError);
}

#ifdef SMTFLEX_SOURCE_DIR

// The same defect inside a sweep row: the seed cache with its 4B mcfx4
// record cut to two values. The row must fail naming the key, never
// aggregate the other 11 workloads as if nothing happened.
TEST(StudyEngineTest, ShortRecordFailsItsSweepRowNamingTheKey)
{
    const std::string key = "mp;4B;smt1;bw8;b12000;w3000;s12345;mcfx4";
    StudyOptions opts; // the seed cache's identity: defaults
    opts.cachePath = testTempPath("smtflex_short_record") + ".txt";
    {
        std::ifstream in(std::string(SMTFLEX_SOURCE_DIR) +
                         "/smtflex_cache.txt");
        std::ofstream out(opts.cachePath, std::ios::trunc);
        std::string line;
        std::size_t cut = 0;
        while (std::getline(in, line)) {
            if (line.starts_with(key + "|")) {
                std::istringstream values(line.substr(key.size() + 1));
                std::string first, second;
                values >> first >> second;
                line = key + "|" + first + " " + second;
                ++cut;
            }
            out << line << '\n';
        }
        ASSERT_EQ(cut, 1u);
    }
    StudyEngine eng(opts);
    try {
        const RunMetrics m = eng.homogeneousAt(paperDesign("4B"), 4);
        ADD_FAILURE() << "aggregated a short record: STP " << m.stp;
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(key), std::string::npos) << what;
        EXPECT_NE(what.find("holds 2 value(s), expected 6"),
                  std::string::npos)
            << what;
    }
    removeTestTempFiles(opts.cachePath);
}

#endif // SMTFLEX_SOURCE_DIR

TEST(StudyOptionsTest, EnvOverrides)
{
    setenv("SMTFLEX_BUDGET", "1234", 1);
    setenv("SMTFLEX_WARMUP", "77", 1);
    setenv("SMTFLEX_MIXES", "24", 1);
    setenv("SMTFLEX_SEED", "9", 1);
    setenv("SMTFLEX_CACHE", "/tmp/somewhere.txt", 1);
    const StudyOptions opts = StudyOptions::fromEnv();
    EXPECT_EQ(opts.budget, 1234u);
    EXPECT_EQ(opts.warmup, 77u);
    EXPECT_EQ(opts.hetMixes, 24u);
    EXPECT_EQ(opts.seed, 9u);
    EXPECT_EQ(opts.cachePath, "/tmp/somewhere.txt");
    unsetenv("SMTFLEX_BUDGET");
    unsetenv("SMTFLEX_WARMUP");
    unsetenv("SMTFLEX_MIXES");
    unsetenv("SMTFLEX_SEED");
    unsetenv("SMTFLEX_CACHE");
}

TEST(StudyOptionsTest, RejectsMixCountsThatCannotBalanceEveryRow)
{
    // 5-thread mixes balance the 12 benchmarks only in multiples of 12:
    // such a count must fail at startup, not in the middle of a sweep.
    for (const char *mixes : {"6", "18"}) {
        setenv("SMTFLEX_MIXES", mixes, 1);
        try {
            StudyOptions::fromEnv();
            ADD_FAILURE() << "SMTFLEX_MIXES=" << mixes << " accepted";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("SMTFLEX_MIXES=") + mixes),
                      std::string::npos)
                << what;
        }
    }
    unsetenv("SMTFLEX_MIXES");
}

} // namespace
} // namespace smtflex
