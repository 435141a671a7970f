/**
 * @file
 * Tests for the sharded memoised-response cache.
 */

#include <gtest/gtest.h>

#include <string>

#include "serve/response_cache.h"

namespace smtflex {
namespace serve {
namespace {

TEST(ResponseCacheTest, StoreThenLookup)
{
    ResponseCache cache(64);
    EXPECT_FALSE(cache.lookup("a").has_value());
    cache.store("a", "body-a");
    cache.store("b", "body-b");
    ASSERT_TRUE(cache.lookup("a").has_value());
    EXPECT_EQ(*cache.lookup("a"), "body-a");
    EXPECT_EQ(*cache.lookup("b"), "body-b");
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ResponseCacheTest, OverwriteReplacesTheBody)
{
    ResponseCache cache(64);
    cache.store("key", "old");
    cache.store("key", "new");
    EXPECT_EQ(*cache.lookup("key"), "new");
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ResponseCacheTest, CapacityBoundsEntries)
{
    // Small capacity: inserting far more keys than fit must evict rather
    // than grow without bound.
    ResponseCache cache(16);
    for (int i = 0; i < 1000; ++i)
        cache.store("key-" + std::to_string(i), "body");
    EXPECT_LE(cache.size(), 16u);
    EXPECT_GT(cache.size(), 0u);
}

TEST(ResponseCacheTest, EvictionIsFifoWithinAShard)
{
    ResponseCache cache(8); // one entry per shard
    for (int i = 0; i < 64; ++i)
        cache.store("key-" + std::to_string(i), std::to_string(i));
    // Whatever survived must still map to its own body.
    for (int i = 0; i < 64; ++i) {
        const auto hit = cache.lookup("key-" + std::to_string(i));
        if (hit) {
            EXPECT_EQ(*hit, std::to_string(i));
        }
    }
}

} // namespace
} // namespace serve
} // namespace smtflex
