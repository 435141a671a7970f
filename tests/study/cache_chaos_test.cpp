/**
 * @file
 * Chaos tests of the result cache: exhaustive torn-write recovery
 * (truncation at every byte offset), the io.* injection seams, and a mini
 * sweep that must produce byte-identical results with and without
 * injected write faults.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/parallel.h"
#include "study/result_cache.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace {

class CacheChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        fault::reset();
        path_ = testTempPath("smtflex_cache_chaos") + ".txt";
        removeAll();
    }
    void TearDown() override
    {
        fault::reset();
        removeAll();
    }

    void removeAll()
    {
        std::remove(path_.c_str());
        for (std::size_t i = 0; i < ResultCache::kNumShards; ++i)
            std::remove(shardFile(path_, i).c_str());
    }

    static std::string shardFile(const std::string &path, std::size_t i)
    {
        std::ostringstream os;
        os << path << ".shard-" << (i < 10 ? "0" : "") << i;
        return os.str();
    }

    std::string path_;
};

// Satellite: a crash can tear the final write at ANY byte. Truncate a
// valid cache file at every offset and require that loading (a) never
// crashes, (b) never yields an entry whose values differ from what was
// stored, and (c) counts exactly the cut line as skipped.
TEST_F(CacheChaosTest, TruncationAtEveryByteOffsetIsSafe)
{
    const std::vector<std::pair<std::string, std::vector<double>>> stored = {
        {"iso;mcf;B", {0.45, 1.25e9, 3.0}},
        {"hom:4B:smt", {2.875, -0.5}},
        {"het:3B5s", {17.0}},
        {"empty", {}},
    };
    std::string content = std::string(ResultCache::kFormatHeader) + '\n';
    for (const auto &[key, values] : stored)
        content += ResultCache::formatRecord(key, values);

    // Line spans: [start, newline-offset) is the content getline yields.
    std::vector<std::pair<std::size_t, std::size_t>> lines;
    std::size_t start = 0;
    for (std::size_t i = 0; i < content.size(); ++i) {
        if (content[i] == '\n') {
            lines.emplace_back(start, i);
            start = i + 1;
        }
    }

    const std::string victim = path_ + ".truncated";
    for (std::size_t cut = 0; cut <= content.size(); ++cut) {
        // The legacy single-file slot loads through the same parser as
        // the shard segments; one file keeps the loop cheap.
        {
            std::ofstream out(victim, std::ios::trunc | std::ios::binary);
            out.write(content.data(), static_cast<std::streamsize>(cut));
        }
        // A line is intact once its content (the newline is optional at
        // EOF) survived the cut; a nonempty partial tail must be skipped
        // and counted — line 0 is the header, the rest are records.
        std::size_t expect_entries = 0, expect_skipped = 0;
        for (std::size_t li = 0; li < lines.size(); ++li) {
            const auto [s, nl] = lines[li];
            if (s >= cut)
                break;
            if (cut >= nl)
                expect_entries += li > 0 ? 1 : 0;
            else
                ++expect_skipped;
        }

        ResultCache cache(victim);
        // (a) we got here: no crash. (b) every surviving entry is exact.
        std::size_t intact = 0;
        for (const auto &[key, values] : stored) {
            const auto hit = cache.lookup(key);
            if (!hit.has_value())
                continue;
            ++intact;
            EXPECT_EQ(*hit, values) << "cut at " << cut << ", key " << key;
        }
        EXPECT_EQ(cache.size(), intact) << "cut at " << cut;
        // (c) exactly the whole lines load and exactly the cut one is
        // counted.
        EXPECT_EQ(cache.size(), expect_entries) << "cut at " << cut;
        EXPECT_EQ(cache.corruptLinesSkipped(), expect_skipped)
            << "cut at " << cut;
    }
    std::remove(victim.c_str());
}

TEST_F(CacheChaosTest, InjectedShortWriteHealsWithoutLosingRecords)
{
    // The first append is torn 4 bytes in; the cache must terminate the
    // torn prefix and rewrite, so a reload sees every record and exactly
    // one skipped garbage line.
    fault::configure("io.write:limit=1;param=4");
    {
        ResultCache cache(path_);
        cache.store("first", {1.0, 2.0});
        cache.store("second", {3.0});
    }
    fault::reset();
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    ASSERT_NE(reloaded.find("first"), nullptr);
    EXPECT_EQ(*reloaded.find("first"), (std::vector<double>{1.0, 2.0}));
    ASSERT_NE(reloaded.find("second"), nullptr);
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 1u);
}

TEST_F(CacheChaosTest, InjectedLoadFailureTreatsSegmentsAsMissing)
{
    {
        ResultCache cache(path_);
        cache.store("k", {1.0});
    }
    fault::configure("io.load");
    {
        ResultCache blind(path_);
        EXPECT_EQ(blind.size(), 0u); // unreadable, not fatal
    }
    fault::reset();
    ResultCache healthy(path_);
    EXPECT_EQ(healthy.size(), 1u); // the data was never touched
}

TEST_F(CacheChaosTest, InjectedFsyncFailureFailsCheckpointKeepsData)
{
    ResultCache cache(path_);
    cache.store("a", {1.0});
    cache.store("b", {2.0});
    fault::configure("io.fsync");
    EXPECT_FALSE(cache.checkpoint()); // not durable -> reported
    fault::reset();
    // The old (appended) segments were left in place: nothing lost.
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0u);
}

// flush() is a coordinator's durability point before it marks a chunk
// complete: besides the open segment it must fsync the directory, or a
// segment created since the last flush could vanish in a power cut.
// Arming io.fsync at p=0 counts the syncs without failing any.
TEST_F(CacheChaosTest, FlushSyncsTheSegmentAndItsDirectory)
{
    ResultCache cache(path_);
    cache.store("k", {1.0}); // opens exactly one segment
    fault::configure("io.fsync:p=0");
    cache.flush();
    EXPECT_EQ(fault::ops(fault::Site::kIoFsync), 2u);
    EXPECT_EQ(fault::fires(fault::Site::kIoFsync), 0u);
}

// The headline guarantee: a sweep that stores through the cache while
// writes tear produces byte-identical results and an equally clean cache,
// compared to an undisturbed run.
TEST_F(CacheChaosTest, ChaoticSweepIsByteIdenticalToFaultFree)
{
    const std::size_t n = 32;
    const auto experiment = [](std::size_t i) {
        // Deterministic stand-in for a simulation: any real sweep fn is
        // required to be a pure function of its inputs.
        return std::vector<double>{static_cast<double>(i) * 0.125,
                                   1.0 / (1.0 + static_cast<double>(i))};
    };
    const auto runSweep = [&](const std::string &cache_path) {
        ResultCache cache(cache_path);
        const auto results = exec::map(n, [&](std::size_t i) {
            const auto values = experiment(i);
            std::ostringstream key;
            key << "exp-" << i;
            cache.store(key.str(), values);
            return values;
        });
        // Repair any append the injected faults defeated: the checkpoint
        // snapshots from memory, which injection never corrupts.
        EXPECT_TRUE(cache.checkpoint());
        return results;
    };

    const std::string clean_path = path_;
    const std::string chaos_path = path_ + ".chaos";
    const auto clean = runSweep(clean_path);

    fault::configure("io.write:p=0.5;seed=7");
    const auto chaotic = runSweep(chaos_path);
    fault::reset();

    EXPECT_EQ(chaotic, clean); // zero tolerance: bit-equal doubles

    // Both caches reload to identical, uncorrupted contents.
    ResultCache a(clean_path), b(chaos_path);
    EXPECT_EQ(a.size(), n);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(b.corruptLinesSkipped(), 0u); // checkpoint left no scars
    for (std::size_t i = 0; i < n; ++i) {
        std::ostringstream key;
        key << "exp-" << i;
        const auto va = a.lookup(key.str());
        const auto vb = b.lookup(key.str());
        ASSERT_TRUE(va.has_value());
        ASSERT_TRUE(vb.has_value());
        EXPECT_EQ(*va, *vb) << key.str();
    }

    for (std::size_t i = 0; i < ResultCache::kNumShards; ++i)
        std::remove(shardFile(chaos_path, i).c_str());
    std::remove(chaos_path.c_str());
}

} // namespace
} // namespace smtflex
