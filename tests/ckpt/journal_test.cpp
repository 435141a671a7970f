/**
 * @file
 * SweepJournal: append/replay round trips, the torn-tail crash case
 * (silently ends replay, everything fsynced before it survives), corrupt
 * mid-file frames, and the ckpt.* fault seams.
 */

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/journal.h"
#include "common/fault.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace ckpt {
namespace {

class SweepJournalTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = testTempPath("smtflex_ckpt_journal_test") + ".journal";
        std::filesystem::remove(path_);
    }

    void TearDown() override
    {
        fault::reset();
        std::filesystem::remove(path_);
    }

    static std::vector<SweepJournal::Record> sampleChunk(unsigned base)
    {
        std::vector<SweepJournal::Record> records;
        for (unsigned i = 0; i < 3; ++i)
            records.push_back({"row-" + std::to_string(base + i),
                               {1.5 * base, 2.0 + i, -0.25}});
        return records;
    }

    static std::vector<SweepJournal::Record>
    replayAll(SweepJournal &journal)
    {
        std::vector<SweepJournal::Record> seen;
        journal.replay(
            [&](const SweepJournal::Record &r) { seen.push_back(r); });
        return seen;
    }

    std::string path_;
    CkptStats stats_;
};

TEST_F(SweepJournalTest, AppendReplayRoundTrip)
{
    SweepJournal journal(path_, &stats_);
    ASSERT_TRUE(journal.append(sampleChunk(0)));
    ASSERT_TRUE(journal.append(sampleChunk(10)));
    EXPECT_EQ(stats_.journalAppends.load(), 2u);

    SweepJournal reopened(path_, &stats_);
    const auto seen = replayAll(reopened);
    ASSERT_EQ(seen.size(), 6u);
    EXPECT_EQ(seen[0].key, "row-0");
    EXPECT_EQ(seen[3].key, "row-10");
    EXPECT_EQ(seen[5].values, (std::vector<double>{15.0, 4.0, -0.25}));
    EXPECT_EQ(stats_.journalReplayed.load(), 6u);
}

TEST_F(SweepJournalTest, MissingFileReplaysNothing)
{
    SweepJournal journal(path_, &stats_);
    EXPECT_EQ(journal.replay([](const SweepJournal::Record &) {}), 0u);
    EXPECT_EQ(stats_.corruptSkipped.load(), 0u);
}

TEST_F(SweepJournalTest, EmptyFrameReplaysZeroRecords)
{
    SweepJournal journal(path_, &stats_);
    ASSERT_TRUE(journal.append(sampleChunk(0)));
    ASSERT_TRUE(journal.append({}));
    ASSERT_TRUE(journal.append(sampleChunk(10)));
    // The empty frame is valid — replay walks through it to the frames
    // on either side.
    EXPECT_EQ(replayAll(journal).size(), 6u);
}

TEST_F(SweepJournalTest, TornTailAtEveryOffsetKeepsThePrefix)
{
    SweepJournal journal(path_, &stats_);
    ASSERT_TRUE(journal.append(sampleChunk(0)));
    const auto frame1 = std::filesystem::file_size(path_);
    ASSERT_TRUE(journal.append(sampleChunk(10)));
    const auto full = std::filesystem::file_size(path_);
    std::vector<char> bytes(static_cast<std::size_t>(full));
    std::ifstream(path_, std::ios::binary)
        .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));

    // Crash mid-append of frame 2: whatever prefix of it reached disk,
    // replay returns exactly the 3 records of the intact frame 1.
    for (auto cut = frame1; cut < full; ++cut) {
        std::ofstream(path_, std::ios::binary | std::ios::trunc)
            .write(bytes.data(), static_cast<std::streamsize>(cut));
        SweepJournal torn(path_, &stats_);
        EXPECT_EQ(replayAll(torn).size(), 3u) << "tail cut at " << cut;
    }
}

TEST_F(SweepJournalTest, CorruptFrameEndsReplayAndIsCounted)
{
    SweepJournal journal(path_, &stats_);
    ASSERT_TRUE(journal.append(sampleChunk(0)));
    const auto frame1 = std::filesystem::file_size(path_);
    ASSERT_TRUE(journal.append(sampleChunk(10)));

    // Flip one payload byte inside frame 2: a CRC failure, not a clean
    // EOF tail — replay stops there and counts the corruption.
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(frame1) + 9);
    const char byte = static_cast<char>(f.get() ^ 0x40);
    f.seekp(static_cast<std::streamoff>(frame1) + 9);
    f.put(byte);
    f.close();

    EXPECT_EQ(replayAll(journal).size(), 3u);
    EXPECT_EQ(stats_.corruptSkipped.load(), 1u);
}

TEST_F(SweepJournalTest, InjectedTornAppendNeverReplaysBadData)
{
    SweepJournal journal(path_, &stats_);
    ASSERT_TRUE(journal.append(sampleChunk(0)));

    fault::configure("ckpt.write:limit=1");
    EXPECT_FALSE(journal.append(sampleChunk(10)));
    fault::reset();

    // The torn frame poisons the tail: replay yields exactly the records
    // fsynced before the tear and never a partial or garbled record —
    // resumability is lost from that point, correctness never.
    EXPECT_EQ(replayAll(journal).size(), 3u);

    // A later append lands after the torn bytes and is unreachable, but
    // replay still stops cleanly at the tear instead of misparsing it.
    ASSERT_TRUE(journal.append(sampleChunk(20)));
    const auto seen = replayAll(journal);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].key, "row-0");
}

} // namespace
} // namespace ckpt
} // namespace smtflex
