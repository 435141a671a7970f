/**
 * @file
 * Tests for the disk-backed result cache: persistence, the sharded file
 * format, backward-compatible loading of the legacy single-file format,
 * and key escaping (the `|`/newline injection fix).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.h"
#include "study/result_cache.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace {

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = testTempPath("smtflex_cache_test") + ".txt";
        removeAll();
    }
    void TearDown() override { removeAll(); }

    void removeAll()
    {
        std::remove(path_.c_str());
        for (std::size_t i = 0; i < ResultCache::kNumShards; ++i) {
            std::ostringstream os;
            os << path_ << ".shard-" << (i < 10 ? "0" : "") << i;
            std::remove(os.str().c_str());
        }
    }

    std::string path_;
};

TEST_F(ResultCacheTest, StoreAndFind)
{
    ResultCache cache(path_);
    EXPECT_EQ(cache.find("k1"), nullptr);
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.store("k1", {1.0, 2.5, -3.0});
    const auto *hit = cache.find("k1");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, (std::vector<double>{1.0, 2.5, -3.0}));
    const auto copy = cache.lookup("k1");
    ASSERT_TRUE(copy.has_value());
    EXPECT_EQ(*copy, *hit);
    EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ResultCacheTest, PersistsAcrossInstances)
{
    {
        ResultCache cache(path_);
        cache.store("a", {1.0});
        cache.store("b", {2.0, 3.0});
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    ASSERT_NE(reloaded.find("a"), nullptr);
    EXPECT_DOUBLE_EQ(reloaded.find("a")->at(0), 1.0);
    ASSERT_NE(reloaded.find("b"), nullptr);
    EXPECT_DOUBLE_EQ(reloaded.find("b")->at(1), 3.0);
}

TEST_F(ResultCacheTest, OverwriteTakesLatestValue)
{
    {
        ResultCache cache(path_);
        cache.store("k", {1.0});
        cache.store("k", {9.0});
        EXPECT_DOUBLE_EQ(cache.find("k")->at(0), 9.0);
    }
    // The append-only segments replay in order; the last record wins.
    ResultCache reloaded(path_);
    EXPECT_DOUBLE_EQ(reloaded.find("k")->at(0), 9.0);
}

TEST_F(ResultCacheTest, FullPrecisionRoundTrip)
{
    const double value = 0.12345678901234567;
    {
        ResultCache cache(path_);
        cache.store("pi", {value});
    }
    ResultCache reloaded(path_);
    EXPECT_DOUBLE_EQ(reloaded.find("pi")->at(0), value);
}

TEST_F(ResultCacheTest, LoadsLegacySingleFileFormat)
{
    // Records written by the pre-sharding cache live in `path` itself.
    {
        std::ofstream out(path_);
        out << "legacy_a|1 2 3\n";
        out << "legacy_b|4\n";
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 2u);
    ASSERT_NE(cache.find("legacy_a"), nullptr);
    EXPECT_EQ(cache.find("legacy_a")->size(), 3u);
    // New records go to shard segments; the legacy file is left untouched,
    // and a shard record for the same key overrides the legacy one.
    cache.store("legacy_b", {9.0});
    ResultCache reloaded(path_);
    EXPECT_DOUBLE_EQ(reloaded.find("legacy_b")->at(0), 9.0);
    std::ifstream legacy(path_);
    std::string all((std::istreambuf_iterator<char>(legacy)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(all, "legacy_a|1 2 3\nlegacy_b|4\n");
}

TEST_F(ResultCacheTest, ToleratesCorruptLines)
{
    {
        std::ofstream out(path_);
        out << "good|1 2 3\n";
        out << "garbage without separator\n";
        out << "|empty key\n";
        out << "tail|4 5\n";
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 2u);
    ASSERT_NE(cache.find("good"), nullptr);
    ASSERT_NE(cache.find("tail"), nullptr);
}

TEST_F(ResultCacheTest, InMemoryOnlyWithEmptyPath)
{
    ResultCache cache("");
    cache.store("x", {1.0});
    EXPECT_NE(cache.find("x"), nullptr);
    EXPECT_TRUE(cache.path().empty());
}

TEST_F(ResultCacheTest, EmptyKeyRejected)
{
    ResultCache cache(path_);
    EXPECT_THROW(cache.store("", {1.0}), FatalError);
}

TEST_F(ResultCacheTest, SeparatorCharactersInKeysRoundTrip)
{
    // Regression: keys containing the on-disk separators used to corrupt
    // the format (a '|' shifted the value split, a newline broke the
    // record into two lines). They are escaped now.
    const std::vector<std::string> nasty = {
        "a|b", "a\nb", "a\rb", "a\\b", "a\\|b\\n", "trailing\\",
        "mp;cfg|smt1;w\nx",
    };
    {
        ResultCache cache(path_);
        for (std::size_t i = 0; i < nasty.size(); ++i)
            cache.store(nasty[i], {static_cast<double>(i), 0.5});
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), nasty.size());
    for (std::size_t i = 0; i < nasty.size(); ++i) {
        const auto hit = reloaded.lookup(nasty[i]);
        ASSERT_TRUE(hit.has_value()) << "key " << i;
        EXPECT_DOUBLE_EQ(hit->at(0), static_cast<double>(i)) << "key " << i;
    }
}

TEST_F(ResultCacheTest, EscapeKeyIsInvertibleAndOneLine)
{
    for (const std::string key :
         {"plain", "a|b", "a\nb", "a\r\nb", "back\\slash", "\\p", "x"}) {
        const std::string escaped = ResultCache::escapeKey(key);
        EXPECT_EQ(escaped.find('|'), std::string::npos) << key;
        EXPECT_EQ(escaped.find('\n'), std::string::npos) << key;
        EXPECT_EQ(ResultCache::unescapeKey(escaped), key);
    }
    // Legacy unescaped keys (no backslashes) pass through unchanged.
    EXPECT_EQ(ResultCache::unescapeKey("iso;mcf;B;b12000"), "iso;mcf;B;b12000");
}

TEST_F(ResultCacheTest, FormatRecordCarriesCrcTag)
{
    const std::string record = ResultCache::formatRecord("k", {1.5, -2.0});
    ASSERT_FALSE(record.empty());
    EXPECT_EQ(record.back(), '\n');
    // `escaped_key|values|cXXXXXXXX`: 'c' + 8 hex digits before the
    // newline.
    const std::size_t tag = record.rfind("|c");
    ASSERT_NE(tag, std::string::npos);
    EXPECT_EQ(record.size() - tag, 11u); // "|c" + 8 hex + '\n'
    EXPECT_EQ(record.rfind("k|1.5 -2|", 0), 0u);
}

TEST_F(ResultCacheTest, CrcMismatchIsSkippedAndCounted)
{
    {
        std::ofstream out(path_);
        out << ResultCache::kFormatHeader << "\n";
        out << ResultCache::formatRecord("good", {1.0, 2.0});
        std::string bad = ResultCache::formatRecord("bad", {3.0});
        bad[bad.find('3')] = '4'; // flip a value byte; the CRC now lies
        out << bad;
        out << ResultCache::formatRecord("tail", {5.0});
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.corruptLinesSkipped(), 1u);
    EXPECT_NE(cache.find("good"), nullptr);
    EXPECT_EQ(cache.find("bad"), nullptr);
    EXPECT_NE(cache.find("tail"), nullptr);
}

TEST_F(ResultCacheTest, StrictFormatRejectsUntaggedLines)
{
    // In a v2 file a line without a CRC tag is a truncated record, not a
    // legacy record — its values may be silently shortened.
    {
        std::ofstream out(path_);
        out << ResultCache::kFormatHeader << "\n";
        out << "torn|1 2\n";
        out << ResultCache::formatRecord("ok", {3.0});
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.find("torn"), nullptr);
    EXPECT_EQ(cache.corruptLinesSkipped(), 1u);
}

TEST_F(ResultCacheTest, NewSegmentsCarryTheFormatHeader)
{
    {
        ResultCache cache(path_);
        cache.store("k", {1.0});
    }
    bool found = false;
    for (std::size_t i = 0; i < ResultCache::kNumShards; ++i) {
        std::ostringstream os;
        os << path_ << ".shard-" << (i < 10 ? "0" : "") << i;
        std::ifstream in(os.str());
        std::string first;
        if (in && std::getline(in, first)) {
            found = true;
            EXPECT_EQ(first, ResultCache::kFormatHeader);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ResultCacheTest, CheckpointCompactsAndStaysAppendable)
{
    ResultCache cache(path_);
    cache.store("k", {1.0});
    cache.store("k", {2.0});
    cache.store("k", {3.0}); // three appended records for one key
    EXPECT_TRUE(cache.checkpoint());
    // The snapshot holds exactly one record per entry.
    std::size_t records = 0;
    for (std::size_t i = 0; i < ResultCache::kNumShards; ++i) {
        std::ostringstream os;
        os << path_ << ".shard-" << (i < 10 ? "0" : "") << i;
        std::ifstream in(os.str());
        std::string line;
        while (std::getline(in, line))
            if (line != ResultCache::kFormatHeader)
                ++records;
    }
    EXPECT_EQ(records, 1u);
    // Appends after the checkpoint land in the renamed file, not the
    // replaced inode.
    cache.store("post", {4.0});
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    ASSERT_NE(reloaded.find("k"), nullptr);
    EXPECT_DOUBLE_EQ(reloaded.find("k")->at(0), 3.0);
    ASSERT_NE(reloaded.find("post"), nullptr);
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0u);
}

TEST_F(ResultCacheTest, EmptyValueVector)
{
    {
        ResultCache cache(path_);
        cache.store("empty", {});
    }
    ResultCache reloaded(path_);
    ASSERT_NE(reloaded.find("empty"), nullptr);
    EXPECT_TRUE(reloaded.find("empty")->empty());
}

} // namespace
} // namespace smtflex
