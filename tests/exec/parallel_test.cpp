/**
 * @file
 * Tests for map / mapItems: every index runs exactly once for any worker
 * count, results land by index, a failing index fails the map, and
 * nesting matches the serial semantics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/log.h"
#include "exec/parallel.h"

namespace smtflex {
namespace exec {
namespace {

TEST(MapTest, EveryIndexExactlyOnceForAnyWorkerCount)
{
    for (const unsigned workers : {0u, 1u, 2u, 3u, 8u}) {
        ThreadPool pool(workers);
        const std::size_t n = 10'000;
        std::vector<std::atomic<int>> hits(n);
        const auto before = map(
            n, [&](std::size_t i) { return hits[i].fetch_add(1); }, &pool);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(before[i], 0)
                << "index " << i << ", " << workers << " workers";
            ASSERT_EQ(hits[i].load(), 1)
                << "index " << i << ", " << workers << " workers";
        }
    }
}

TEST(MapTest, EmptyAndSingletonMaps)
{
    ThreadPool pool(2);
    int calls = 0;
    const auto fn = [&](std::size_t i) {
        ++calls;
        return static_cast<int>(i) + 5;
    };
    EXPECT_TRUE(map(0, fn, &pool).empty());
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(map(1, fn, &pool), std::vector<int>{5});
    EXPECT_EQ(calls, 1);
}

TEST(MapTest, NestedMapsSumCorrectly)
{
    ThreadPool pool(4);
    const std::size_t rows = 32, cols = 64;
    const auto rowSums = map(
        rows,
        [&](std::size_t r) {
            const auto cells = map(
                cols,
                [&](std::size_t c) { return static_cast<long>(r * cols + c); },
                &pool);
            return std::accumulate(cells.begin(), cells.end(), 0L);
        },
        &pool);
    const long total = std::accumulate(rowSums.begin(), rowSums.end(), 0L);
    const long n = static_cast<long>(rows * cols);
    EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(MapTest, ResultsLandByIndexForAnyWorkerCount)
{
    for (const unsigned workers : {0u, 1u, 4u, 8u}) {
        ThreadPool pool(workers);
        const auto results = map(
            257, [](std::size_t i) { return static_cast<double>(i * i); },
            &pool);
        ASSERT_EQ(results.size(), 257u);
        for (std::size_t i = 0; i < results.size(); ++i)
            ASSERT_DOUBLE_EQ(results[i], static_cast<double>(i * i))
                << workers << " workers";
    }
}

TEST(MapTest, MapItemsKeepsItemOrder)
{
    ThreadPool pool(3);
    const std::vector<std::string> items = {"aa", "b", "cccc", "", "dd"};
    const auto lengths = mapItems(
        items, [](const std::string &s) { return s.size(); }, &pool);
    EXPECT_EQ(lengths,
              (std::vector<std::size_t>{2, 1, 4, 0, 2}));
}

TEST(MapTest, UnbalancedTaskCostsStillOrdered)
{
    // Tasks with wildly different costs finish out of order; results must
    // not.
    ThreadPool pool(4);
    const auto results = map(
        64,
        [](std::size_t i) {
            volatile double sink = 0;
            for (std::size_t k = 0; k < (i % 2 ? 200'000u : 10u); ++k)
                sink = sink + static_cast<double>(k);
            return static_cast<int>(i);
        },
        &pool);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[i], i);
}

TEST(MapTest, ThrowingIndexFailsTheMap)
{
    // One failing experiment fails the whole map, whatever the worker
    // count: no retry, no partial result to aggregate.
    for (const unsigned workers : {0u, 1u, 4u}) {
        ThreadPool pool(workers);
        const auto fn = [](std::size_t i) {
            if (i == 7)
                throw FatalError("experiment 7 failed");
            return static_cast<int>(i);
        };
        EXPECT_THROW(map(12, fn, &pool), FatalError)
            << workers << " workers";
    }
}

} // namespace
} // namespace exec
} // namespace smtflex
