/**
 * @file
 * Determinism and unit tests of the online classifier and sample phase:
 * identical counter streams must yield identical classifications and
 * placements for any exec-pool job count, and sampled runs must be
 * bit-identical between strict and fast-forward simulation (the property
 * the serve layer's memoisation and the dist layer's byte-identity both
 * stand on).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "online/online_policy.h"
#include "online/online_profile.h"
#include "online/online_profiler.h"
#include "study/design_space.h"
#include "trace/spec_profiles.h"

namespace smtflex {
namespace online {
namespace {

ProfilerOptions
tinyProfiler()
{
    ProfilerOptions opts;
    opts.sampleBudget = 2'000;
    opts.sampleWarmup = 500;
    opts.seed = 12'345;
    return opts;
}

std::vector<ThreadSpec>
specsFor(const std::vector<const char *> &benches)
{
    std::vector<ThreadSpec> specs;
    for (const char *bench : benches)
        specs.push_back({&specProfile(bench), 2'000, 500});
    return specs;
}

TEST(ClassifierTest, BucketsFollowThresholds)
{
    ClassifierThresholds thresholds; // memoryLlcMpki = 5.0, ilpIpc = 2.0
    ThreadProfile profile;
    profile.benchmark = "synthetic";

    profile.samples[CoreType::kBig] = {2.5, 1.0, 30.0, 4};
    EXPECT_EQ(classify(profile, thresholds), ThreadClass::kMemoryBound);

    profile.samples[CoreType::kBig] = {2.5, 1.0, 0.5, 4};
    EXPECT_EQ(classify(profile, thresholds), ThreadClass::kIlpBound);

    profile.samples[CoreType::kBig] = {1.2, 1.0, 0.5, 4};
    EXPECT_EQ(classify(profile, thresholds), ThreadClass::kMixed);

    // Memory wins over ILP: a streaming code can retire fast on a big
    // core and still be the wrong SMT partner for another streamer.
    profile.samples[CoreType::kBig] = {2.5, 1.0, 8.0, 4};
    EXPECT_EQ(classify(profile, thresholds), ThreadClass::kMemoryBound);
}

TEST(ClassifierTest, ClassNames)
{
    EXPECT_STREQ(threadClassName(ThreadClass::kMemoryBound), "memory");
    EXPECT_STREQ(threadClassName(ThreadClass::kMixed), "mixed");
    EXPECT_STREQ(threadClassName(ThreadClass::kIlpBound), "ilp");
}

TEST(ClassifierTest, ReferenceBenchmarkClasses)
{
    // The calibration anchors (see online_profile.h): streaming codes are
    // memory-bound, high-IPC compute codes are ILP-bound, and gobmk-like
    // LLC-resident codes land in mixed, not memory.
    OnlineProfiler profiler(tinyProfiler());
    const auto specs =
        specsFor({"mcf", "lbm", "libquantum", "hmmer", "gobmk"});
    const OnlineProfile profile =
        profiler.profileWorkload(paperDesign("4B"), specs);
    EXPECT_EQ(profile.threads[0].klass, ThreadClass::kMemoryBound);
    EXPECT_EQ(profile.threads[1].klass, ThreadClass::kMemoryBound);
    EXPECT_EQ(profile.threads[2].klass, ThreadClass::kMemoryBound);
    EXPECT_EQ(profile.threads[3].klass, ThreadClass::kIlpBound);
    EXPECT_EQ(profile.threads[4].klass, ThreadClass::kMixed);
}

TEST(ClassifierTest, SampledTypesCoverChipPlusAffinityExtremes)
{
    // A big+small chip samples exactly {big, small}; a medium-only chip
    // still samples big and small (the affinity ranking needs them).
    const auto het = OnlineProfiler::sampledTypes(paperDesign("3B5s"));
    ASSERT_EQ(het.size(), 2u);
    EXPECT_EQ(het[0], CoreType::kBig);
    EXPECT_EQ(het[1], CoreType::kSmall);

    const auto medium = OnlineProfiler::sampledTypes(paperDesign("8m"));
    ASSERT_EQ(medium.size(), 3u);
    EXPECT_EQ(medium[0], CoreType::kBig);
    EXPECT_EQ(medium[1], CoreType::kMedium);
    EXPECT_EQ(medium[2], CoreType::kSmall);
}

TEST(ClassifierTest, SamplesMemoisedPerBenchmark)
{
    OnlineProfiler profiler(tinyProfiler());
    // 3 distinct benchmarks across 5 threads on a big+small chip:
    // 3 benchmarks x 2 types = 6 solo runs, regardless of thread count.
    const auto specs = specsFor({"mcf", "mcf", "hmmer", "lbm", "hmmer"});
    profiler.profileWorkload(paperDesign("3B5s"), specs);
    EXPECT_EQ(profiler.samplesRun(), 6u);
    // Repeat profiling is free.
    profiler.profileWorkload(paperDesign("3B5s"), specs);
    EXPECT_EQ(profiler.samplesRun(), 6u);
}

/** Full profile as comparable bits: per-thread class + every sampled
 * counter, bitwise. */
std::vector<double>
fingerprint(const OnlineProfile &profile)
{
    std::vector<double> bits;
    for (const auto &thread : profile.threads) {
        bits.push_back(static_cast<double>(thread.klass));
        for (const auto &[type, sample] : thread.samples) {
            bits.push_back(sample.ipc);
            bits.push_back(sample.l2Mpki);
            bits.push_back(sample.llcMpki);
            bits.push_back(static_cast<double>(sample.quanta));
        }
    }
    return bits;
}

TEST(ClassifierDeterminismTest, IdenticalAcrossJobCounts)
{
    const auto specs =
        specsFor({"mcf", "hmmer", "lbm", "gobmk", "soplex", "sjeng"});
    const ChipConfig config = paperDesign("3B5s");

    exec::ThreadPool::resetGlobalForTesting(1);
    OnlineProfiler serial(tinyProfiler());
    const auto serial_bits =
        fingerprint(serial.profileWorkload(config, specs));

    exec::ThreadPool::resetGlobalForTesting(8);
    OnlineProfiler parallel(tinyProfiler());
    const auto parallel_bits =
        fingerprint(parallel.profileWorkload(config, specs));
    exec::ThreadPool::resetGlobalForTesting(1);

    ASSERT_EQ(serial_bits.size(), parallel_bits.size());
    for (std::size_t i = 0; i < serial_bits.size(); ++i)
        EXPECT_EQ(serial_bits[i], parallel_bits[i]) << "bit " << i;
}

TEST(ClassifierDeterminismTest, StrictVsFastForwardBitIdentical)
{
    // Fast-forward jumps clamp to sample-quantum boundaries, so the
    // sampled counters — and therefore every classification and
    // placement derived from them — are bit-identical either way.
    // Each side's sample chips read SMTFLEX_NO_FASTFWD when they are
    // built, so the flag is set around each profiler's run and restored
    // afterwards.
    const auto specs = specsFor({"mcf", "hmmer", "lbm", "h264ref"});
    const ChipConfig config = paperDesign("3B5s");
    const auto profile_with = [&](const char *no_fastfwd) {
        const char *ambient = std::getenv("SMTFLEX_NO_FASTFWD");
        const std::optional<std::string> saved =
            ambient ? std::optional<std::string>(ambient) : std::nullopt;
        ::setenv("SMTFLEX_NO_FASTFWD", no_fastfwd, 1);
        OnlineProfiler profiler(tinyProfiler());
        const auto bits = fingerprint(profiler.profileWorkload(config, specs));
        if (saved)
            ::setenv("SMTFLEX_NO_FASTFWD", saved->c_str(), 1);
        else
            ::unsetenv("SMTFLEX_NO_FASTFWD");
        return bits;
    };
    const auto fast_bits = profile_with("0");
    const auto strict_bits = profile_with("1");

    ASSERT_EQ(fast_bits.size(), strict_bits.size());
    for (std::size_t i = 0; i < fast_bits.size(); ++i)
        EXPECT_EQ(fast_bits[i], strict_bits[i]) << "bit " << i;
}

TEST(ClassifierDeterminismTest, DecisionsIdenticalAcrossJobCounts)
{
    const auto specs =
        specsFor({"lbm", "hmmer", "milc", "h264ref", "sjeng"});
    const ChipConfig config = paperDesign("2B10s");

    for (const char *policy :
         {"greedy", "pairing", "hysteresis", "measured"}) {
        OnlineOptions options;
        options.profiler = tinyProfiler();
        options.policy = policy;

        exec::ThreadPool::resetGlobalForTesting(1);
        const OnlineDecision serial =
            OnlineScheduler(options).decide(config, specs);
        exec::ThreadPool::resetGlobalForTesting(8);
        const OnlineDecision parallel =
            OnlineScheduler(options).decide(config, specs);
        exec::ThreadPool::resetGlobalForTesting(1);

        ASSERT_EQ(serial.placement.entries.size(),
                  parallel.placement.entries.size());
        for (std::size_t t = 0; t < serial.placement.entries.size(); ++t) {
            EXPECT_EQ(serial.placement.entries[t].core,
                      parallel.placement.entries[t].core)
                << policy << " thread " << t;
            EXPECT_EQ(serial.placement.entries[t].slot,
                      parallel.placement.entries[t].slot)
                << policy << " thread " << t;
        }
        EXPECT_EQ(serial.predictedStp, parallel.predictedStp) << policy;
        EXPECT_EQ(serial.predictedAntt, parallel.predictedAntt) << policy;
        EXPECT_EQ(serial.migrations, parallel.migrations) << policy;
        EXPECT_EQ(serial.reclassifications, parallel.reclassifications)
            << policy;
    }
}

} // namespace
} // namespace online
} // namespace smtflex
