/**
 * @file
 * The one parallel primitive callers use: map / mapItems over a batch of
 * independent experiments, with results in index order. Both block until
 * every index finished and rethrow the first exception, so call sites read
 * like their serial equivalents. On a pool without workers
 * (SMTFLEX_JOBS=1) they degrade to a plain ascending loop.
 */

#ifndef SMTFLEX_EXEC_PARALLEL_H
#define SMTFLEX_EXEC_PARALLEL_H

#include <cstddef>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace smtflex {
namespace exec {

/**
 * Evaluate fn(0..n-1) on @p pool (nullptr = the global pool), one claim
 * per index so the pool balances even when experiment costs vary wildly,
 * and return the results in index order. Result i is fn(i) for any worker
 * count or claim order, which is what makes SMTFLEX_JOBS=1 and
 * SMTFLEX_JOBS=N produce byte-identical figures (the simulations are
 * deterministic functions of their inputs). R must be
 * default-constructible. The first exception propagates: a failing
 * experiment fails the whole map.
 */
template <typename Fn>
auto
map(std::size_t n, Fn &&fn, ThreadPool *pool = nullptr)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    std::vector<decltype(fn(std::size_t{0}))> results(n);
    // An empty map neither builds the global pool nor reads SMTFLEX_JOBS.
    if (n > 0)
        (pool ? *pool : ThreadPool::global())
            .forEach(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

/** map() over @p items; result i corresponds to items[i]. */
template <typename T, typename Fn>
auto
mapItems(const std::vector<T> &items, Fn &&fn, ThreadPool *pool = nullptr)
    -> std::vector<decltype(fn(std::declval<const T &>()))>
{
    return map(
        items.size(), [&](std::size_t i) { return fn(items[i]); }, pool);
}

} // namespace exec
} // namespace smtflex

#endif // SMTFLEX_EXEC_PARALLEL_H
