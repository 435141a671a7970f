/**
 * @file
 * Tests for the set-associative LRU cache, including the non-power-of-two
 * geometries from Table 1 and property sweeps over geometries.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/log.h"
#include "common/rng.h"

namespace smtflex {
namespace {

constexpr std::uint64_t kKiB = 1024;

TEST(CacheTest, ColdMissesThenHits)
{
    SetAssocCache cache("l1", {32 * kKiB, 4});
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1038, false).hit); // same line
    EXPECT_FALSE(cache.access(0x1040, false).hit); // next line
    EXPECT_EQ(cache.stats().accesses, 4u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheTest, LruEviction)
{
    // One set: 2 ways, 2 lines total.
    SetAssocCache cache("tiny", {128, 2});
    ASSERT_EQ(cache.geometry().numSets(), 1u);
    cache.access(0 * 64, false);   // A
    cache.access(1 * 64, false);   // B
    cache.access(0 * 64, false);   // touch A -> B is LRU
    cache.access(2 * 64, false);   // C evicts B
    EXPECT_TRUE(cache.contains(0 * 64));
    EXPECT_FALSE(cache.contains(1 * 64));
    EXPECT_TRUE(cache.contains(2 * 64));
}

TEST(CacheTest, DirtyEvictionTriggersWriteback)
{
    SetAssocCache cache("tiny", {128, 2});
    cache.access(0 * 64, true);    // dirty A
    cache.access(1 * 64, false);   // clean B
    const auto r = cache.access(2 * 64, false); // evicts A (LRU, dirty)
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimAddr, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, CleanEvictionNoWriteback)
{
    SetAssocCache cache("tiny", {128, 2});
    cache.access(0 * 64, false);
    cache.access(1 * 64, false);
    const auto r = cache.access(2 * 64, false);
    EXPECT_FALSE(r.writeback);
    EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(CacheTest, WriteToCleanLineMarksDirty)
{
    SetAssocCache cache("tiny", {128, 2});
    cache.access(0 * 64, false);   // clean fill
    cache.access(0 * 64, true);    // hit-for-write -> dirty
    cache.access(1 * 64, false);
    const auto r = cache.access(2 * 64, false); // evict line 0
    EXPECT_TRUE(r.writeback);
}

TEST(CacheTest, InvalidateAllEmptiesCache)
{
    SetAssocCache cache("l1", {4 * kKiB, 4});
    for (Addr a = 0; a < 4 * kKiB; a += 64)
        cache.access(a, false);
    cache.invalidateAll();
    EXPECT_FALSE(cache.contains(0));
    EXPECT_FALSE(cache.access(0, false).hit);
}

TEST(CacheTest, NonPowerOfTwoGeometry)
{
    // Table 1 small-core L1: 6 KB 2-way -> 48 sets.
    SetAssocCache cache("small-l1", {6 * kKiB, 2});
    EXPECT_EQ(cache.geometry().numSets(), 48u);
    // A working set equal to the capacity must fit entirely.
    const std::uint64_t lines = 6 * kKiB / 64;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i * 64, false);
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < lines; ++i)
        hits += cache.access(i * 64, false).hit;
    EXPECT_EQ(hits, lines);
}

TEST(CacheTest, BadGeometryRejected)
{
    EXPECT_THROW(SetAssocCache("bad", {100, 4}), FatalError);       // not line multiple
    EXPECT_THROW(SetAssocCache("bad", {1024, 0}), FatalError);      // zero assoc
    EXPECT_THROW(SetAssocCache("bad", {192, 4}), FatalError);       // 3 lines, 4-way
    EXPECT_THROW(SetAssocCache("bad", {0, 1}), FatalError);         // zero sets
}

TEST(CacheTest, ContainsDoesNotPerturbState)
{
    SetAssocCache cache("tiny", {128, 2});
    cache.access(0 * 64, false);
    cache.access(1 * 64, false);
    // Probing A must not refresh its LRU position.
    cache.contains(0 * 64);
    const auto before = cache.stats().accesses;
    cache.access(2 * 64, false); // evicts A (still LRU despite contains)
    EXPECT_FALSE(cache.contains(0 * 64));
    EXPECT_TRUE(cache.contains(1 * 64));
    EXPECT_EQ(cache.stats().accesses, before + 1);
}

TEST(CacheTest, MissRateTracksWorkingSetVsCapacity)
{
    // Random accesses over a working set 4x the cache capacity should miss
    // roughly 3/4 of the time; over half the capacity, ~0 (after warmup).
    Rng rng(1);
    SetAssocCache big_ws("c", {32 * kKiB, 8});
    const std::uint64_t ws_lines = (128 * kKiB) / 64;
    for (int i = 0; i < 200000; ++i)
        big_ws.access(rng.nextRange(ws_lines) * 64, false);
    EXPECT_NEAR(big_ws.stats().missRate(), 0.75, 0.05);

    SetAssocCache small_ws("c2", {32 * kKiB, 8});
    const std::uint64_t small_lines = (16 * kKiB) / 64;
    for (int i = 0; i < 50000; ++i)
        small_ws.access(rng.nextRange(small_lines) * 64, false);
    EXPECT_LT(small_ws.stats().missRate(), 0.02);
}

/** Property sweep across Table 1 geometries. */
class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>>
{
};

TEST_P(CacheGeometrySweep, CapacityWorkingSetAlwaysHitsAfterWarmup)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache cache("sweep", {size, assoc});
    const std::uint64_t lines = size / 64;
    // Two sequential passes: second pass must be all hits under true LRU
    // with modulo indexing of a dense footprint.
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i * 64, i % 3 == 0);
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < lines; ++i)
        hits += cache.access(i * 64, false).hit;
    EXPECT_EQ(hits, lines);
    EXPECT_EQ(cache.stats().misses, lines);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Geometries, CacheGeometrySweep,
    ::testing::Values(
        std::make_tuple(32 * kKiB, 4u),   // big L1
        std::make_tuple(16 * kKiB, 2u),   // medium L1
        std::make_tuple(6 * kKiB, 2u),    // small L1
        std::make_tuple(256 * kKiB, 8u),  // big L2
        std::make_tuple(128 * kKiB, 4u),  // medium L2
        std::make_tuple(48 * kKiB, 4u),   // small L2
        std::make_tuple(8 * 1024 * kKiB, 16u))); // LLC

TEST(CacheTest, LineSizeMustBeAPowerOfTwo)
{
    for (const std::uint32_t line_size : {0u, 48u}) {
        try {
            SetAssocCache("bad", {4 * kKiB, 2, line_size});
            FAIL() << "lineSize " << line_size << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("lineSize"),
                      std::string::npos) << e.what();
        }
    }
    // Another power of two indexes by its own shift.
    SetAssocCache cache("l32", {4 * kKiB, 2, 32});
    EXPECT_FALSE(cache.access(0x20, false).hit);
    EXPECT_TRUE(cache.access(0x3f, false).hit);
    EXPECT_FALSE(cache.access(0x40, false).hit);
}

// --- Cold fill: the bulk warmup must equal per-line install() exactly.

/** Fill @p forward with install() and @p cold with a ColdFill fed the
 * same sequence newest-first. */
void
fillBothWays(SetAssocCache &forward, SetAssocCache &cold,
             const std::vector<Addr> &sequence)
{
    for (const Addr addr : sequence)
        forward.install(addr);
    SetAssocCache::ColdFill fill(cold, sequence.size());
    for (auto it = sequence.rbegin(); it != sequence.rend(); ++it)
        fill.prepend(*it);
}

/** Drive both caches with one random access()/contains() stream over
 * @p lines plus fresh lines; every result and the statistics must agree
 * (victim addresses check the LRU order, not just the contents). */
void
expectSameBehaviour(SetAssocCache &a, SetAssocCache &b,
                    const std::vector<Addr> &lines, Rng &rng,
                    std::uint64_t ops)
{
    for (std::uint64_t i = 0; i < ops; ++i) {
        const Addr line = rng.nextBool(0.8)
            ? lines[rng.nextRange(lines.size())]
            : (Addr{1} << 41) + rng.nextRange(1 << 20);
        const Addr addr = line * 64 + rng.nextRange(64);
        if (rng.nextBool(0.25)) {
            ASSERT_EQ(a.contains(addr), b.contains(addr)) << "op " << i;
            continue;
        }
        const bool write = rng.nextBool(0.3);
        const bool prefetch = rng.nextBool(0.1);
        const CacheAccessResult ra = a.access(addr, write, prefetch);
        const CacheAccessResult rb = b.access(addr, write, prefetch);
        ASSERT_EQ(ra.hit, rb.hit) << "op " << i;
        ASSERT_EQ(ra.hitPrefetched, rb.hitPrefetched) << "op " << i;
        ASSERT_EQ(ra.writeback, rb.writeback) << "op " << i;
        ASSERT_EQ(ra.victimAddr, rb.victimAddr) << "op " << i;
    }
    EXPECT_EQ(a.stats().accesses, b.stats().accesses);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
    EXPECT_EQ(a.stats().writebacks, b.stats().writebacks);
}

class ColdFillProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>>
{
};

TEST_P(ColdFillProperty, EqualsPerLineInstall)
{
    const auto [size, assoc] = GetParam();
    const std::uint64_t capacity = size / 64;
    Rng rng(size + assoc);
    // (distinct lines, sequence length): duplicates throughout, as when
    // PARSEC threads share lines; shorter and longer than capacity.
    const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
        {capacity / 4, capacity / 2},
        {capacity, capacity},
        {2 * capacity, 3 * capacity},
    };
    for (const auto &[distinct, length] : shapes) {
        std::vector<Addr> lines(distinct);
        for (Addr &line : lines)
            line = (Addr{1} << 40) + rng.nextRange(Addr{1} << 30);
        std::vector<Addr> sequence(length);
        for (Addr &addr : sequence)
            addr = lines[rng.nextRange(distinct)] * 64 + rng.nextRange(64);
        SetAssocCache forward("forward", {size, assoc});
        SetAssocCache cold("cold", {size, assoc});
        fillBothWays(forward, cold, sequence);
        expectSameBehaviour(forward, cold, lines, rng, 2 * capacity);
    }
}

INSTANTIATE_TEST_SUITE_P(
    WarmedGeometries, ColdFillProperty,
    ::testing::Values(
        std::make_tuple(6 * kKiB, 2u),           // small L1: 48 sets
        std::make_tuple(48 * kKiB, 4u),          // small L2: 192 sets
        std::make_tuple(32 * kKiB, 4u),          // big L1: 128 sets
        std::make_tuple(8 * 1024 * kKiB, 16u))); // LLC: 8192 sets

TEST(CacheTest, ColdFillOfTouchedCacheFailsLoudly)
{
    SetAssocCache installed("l1", {32 * kKiB, 4});
    installed.install(0x40);
    EXPECT_THROW(SetAssocCache::ColdFill(installed, 1), FatalError);
    SetAssocCache accessed("l1", {32 * kKiB, 4});
    accessed.access(0x40, false);
    EXPECT_THROW(SetAssocCache::ColdFill(accessed, 1), FatalError);
    SetAssocCache filled("l1", {32 * kKiB, 4});
    SetAssocCache::ColdFill(filled, 1).prepend(0x40);
    EXPECT_THROW(SetAssocCache::ColdFill(filled, 1), FatalError);
}

TEST(CacheTest, ColdFillPastItsInstallCountPanics)
{
    SetAssocCache cache("l1", {32 * kKiB, 4});
    SetAssocCache::ColdFill fill(cache, 1);
    fill.prepend(0x40);
    EXPECT_THROW(fill.prepend(0x80), PanicError);
}

} // namespace
} // namespace smtflex
