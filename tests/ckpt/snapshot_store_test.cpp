/**
 * @file
 * Snapshot envelope + SnapshotStore: strict whole-or-nothing decoding
 * (truncation at every byte offset, bit flips), atomic file round trips,
 * best() ordering/eligibility/corrupt-skip accounting, and the
 * ckpt.write / ckpt.load fault seams.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.h"
#include "ckpt/store.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "tests/common/temp_path.h"

namespace smtflex {
namespace ckpt {
namespace {

Snapshot
sampleSnapshot(std::uint64_t cycle = 12'345,
               const std::string &key = "cfg;s42;t:mcf@0.0")
{
    Snapshot snap;
    snap.kind = SnapshotKind::kChipRun;
    snap.key = key;
    snap.cycle = cycle;
    snap.meta = {1, 0, 0, 0, 9, 8, 7};
    snap.payload.resize(257);
    for (std::size_t i = 0; i < snap.payload.size(); ++i)
        snap.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return snap;
}

class SnapshotStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = testTempPath("smtflex_ckpt_store_test");
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override
    {
        fault::reset();
        std::filesystem::remove_all(dir_);
    }

    std::string dir_;
    CkptStats stats_;
};

TEST_F(SnapshotStoreTest, EncodeDecodeRoundTrip)
{
    const Snapshot snap = sampleSnapshot();
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    const Snapshot back = decodeSnapshot(bytes.data(), bytes.size());
    EXPECT_EQ(back.kind, snap.kind);
    EXPECT_EQ(back.key, snap.key);
    EXPECT_EQ(back.cycle, snap.cycle);
    EXPECT_EQ(back.meta, snap.meta);
    EXPECT_EQ(back.payload, snap.payload);
}

TEST_F(SnapshotStoreTest, TruncationAtEveryByteOffsetRejects)
{
    const std::vector<std::uint8_t> full = encodeSnapshot(sampleSnapshot());
    for (std::size_t cut = 0; cut < full.size(); ++cut)
        EXPECT_THROW(decodeSnapshot(full.data(), cut), CorruptSnapshot)
            << "truncated to " << cut << " of " << full.size()
            << " bytes decoded";
}

TEST_F(SnapshotStoreTest, EverySingleBitFlipRejects)
{
    const std::vector<std::uint8_t> full = encodeSnapshot(sampleSnapshot());
    std::vector<std::uint8_t> mutated = full;
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            mutated[byte] =
                full[byte] ^ static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(decodeSnapshot(mutated.data(), mutated.size()),
                         CorruptSnapshot)
                << "flip of byte " << byte << " bit " << bit << " decoded";
            mutated[byte] = full[byte];
        }
    }
}

TEST_F(SnapshotStoreTest, UnknownKindRejects)
{
    // Kind 2 once named the sweep journal; chip runs are the only kind
    // left, so an intact envelope of any other kind must not decode.
    Snapshot snap = sampleSnapshot();
    snap.kind = static_cast<SnapshotKind>(2);
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    EXPECT_THROW(decodeSnapshot(bytes.data(), bytes.size()),
                 CorruptSnapshot);

    // Version 1 chip-run payloads carried the rotation clock: an intact
    // version-1 envelope must be rejected (and so skipped by the store),
    // never handed to a structural restore.
    std::vector<std::uint8_t> v1 = encodeSnapshot(sampleSnapshot());
    v1[4] = 1; // the version word follows the magic, little-endian
    v1[5] = v1[6] = v1[7] = 0;
    const std::uint32_t crc = crc32(v1.data(), v1.size() - 4);
    for (std::size_t i = 0; i < 4; ++i)
        v1[v1.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    EXPECT_THROW(decodeSnapshot(v1.data(), v1.size()), CorruptSnapshot);
}

TEST_F(SnapshotStoreTest, FileRoundTripAndMissingFile)
{
    std::filesystem::create_directories(dir_);
    const std::string path = dir_ + "/one.ckpt";
    const Snapshot snap = sampleSnapshot();
    ASSERT_TRUE(writeSnapshotFile(path, snap));
    const std::optional<Snapshot> back = readSnapshotFile(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->key, snap.key);
    EXPECT_EQ(back->payload, snap.payload);
    // No stray .tmp left behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    // Missing files are "no snapshot", not corruption.
    EXPECT_FALSE(readSnapshotFile(dir_ + "/absent.ckpt").has_value());
}

TEST_F(SnapshotStoreTest, GarbageFileThrowsCorrupt)
{
    std::filesystem::create_directories(dir_);
    const std::string path = dir_ + "/junk.ckpt";
    std::ofstream(path, std::ios::binary) << "this is not a snapshot";
    EXPECT_THROW(readSnapshotFile(path), CorruptSnapshot);
}

TEST_F(SnapshotStoreTest, BestPrefersHighestEligibleCycle)
{
    SnapshotStore store(dir_, &stats_);
    for (const std::uint64_t cycle : {10ull, 30ull, 20ull})
        ASSERT_TRUE(store.save(sampleSnapshot(cycle)));
    EXPECT_EQ(stats_.saves.load(), 3u);
    EXPECT_GT(stats_.saveBytes.load(), 0u);

    const std::string key = sampleSnapshot().key;
    const auto any = store.best(key, [](const Snapshot &) { return true; });
    ASSERT_TRUE(any.has_value());
    EXPECT_EQ(any->cycle, 30u);

    // Eligibility skips newer snapshots without discarding older ones.
    const auto capped = store.best(
        key, [](const Snapshot &s) { return s.cycle <= 15; });
    ASSERT_TRUE(capped.has_value());
    EXPECT_EQ(capped->cycle, 10u);

    EXPECT_FALSE(store.best("other-key", [](const Snapshot &) {
                          return true;
                      }).has_value());
    EXPECT_EQ(stats_.corruptSkipped.load(), 0u);
}

TEST_F(SnapshotStoreTest, CorruptNewestIsSkippedCountedAndOlderWins)
{
    SnapshotStore store(dir_, &stats_);
    ASSERT_TRUE(store.save(sampleSnapshot(100)));
    ASSERT_TRUE(store.save(sampleSnapshot(200)));

    // Tear the newest file the way a power cut would.
    const std::string key = sampleSnapshot().key;
    const std::string newest = dir_ + "/" +
        [&] {
            char buf[17];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(keyHash64(key)));
            return std::string(buf);
        }() +
        "-200.ckpt";
    ASSERT_TRUE(std::filesystem::exists(newest));
    std::filesystem::resize_file(newest, 9);

    const auto best =
        store.best(key, [](const Snapshot &) { return true; });
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->cycle, 100u);
    EXPECT_EQ(stats_.corruptSkipped.load(), 1u);
}

TEST_F(SnapshotStoreTest, HashCollisionKeyEchoMismatchIsSilentlySkipped)
{
    SnapshotStore store(dir_, &stats_);
    const std::string key = "the-real-key";

    // Simulate a 64-bit file-name hash collision: a valid envelope for a
    // *different* key parked under this key's file name.
    Snapshot foreign = sampleSnapshot(50, "a-colliding-key");
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(keyHash64(key)));
    ASSERT_TRUE(writeSnapshotFile(
        dir_ + "/" + std::string(buf) + "-50.ckpt", foreign));

    EXPECT_FALSE(
        store.best(key, [](const Snapshot &) { return true; }).has_value());
    // Not corruption — just not ours.
    EXPECT_EQ(stats_.corruptSkipped.load(), 0u);
}

TEST_F(SnapshotStoreTest, InjectedTornWriteIsRejectedOnLoad)
{
    SnapshotStore store(dir_, &stats_);
    fault::configure("ckpt.write:limit=1;param=16");
    EXPECT_FALSE(store.save(sampleSnapshot(77)));
    EXPECT_EQ(stats_.saveFailures.load(), 1u);
    fault::reset();

    // The torn file was still published (rename happened); best() must
    // reject it via CRC, count it, and fall back to "no snapshot".
    EXPECT_FALSE(store.best(sampleSnapshot().key, [](const Snapshot &) {
                          return true;
                      }).has_value());
    EXPECT_EQ(stats_.corruptSkipped.load(), 1u);

    // A healthy save afterwards repairs the store.
    ASSERT_TRUE(store.save(sampleSnapshot(77)));
    const auto best = store.best(
        sampleSnapshot().key, [](const Snapshot &) { return true; });
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->cycle, 77u);
}

TEST_F(SnapshotStoreTest, InjectedLoadFaultSkipsThenRecovers)
{
    SnapshotStore store(dir_, &stats_);
    ASSERT_TRUE(store.save(sampleSnapshot(42)));

    fault::configure("ckpt.load:limit=1");
    EXPECT_FALSE(store.best(sampleSnapshot().key, [](const Snapshot &) {
                          return true;
                      }).has_value());
    EXPECT_EQ(stats_.corruptSkipped.load(), 1u);
    fault::reset();

    // The file itself was never damaged; the next scan resumes from it.
    const auto best = store.best(
        sampleSnapshot().key, [](const Snapshot &) { return true; });
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->cycle, 42u);
}

} // namespace
} // namespace ckpt
} // namespace smtflex
