/**
 * @file
 * Structured parallel primitives over the work-stealing ThreadPool:
 * parallel_for over an index range, par_do for two-way forks, and map /
 * mapItems for batches of independent experiments with results in index
 * order. All block until the work completes and rethrow the first task
 * exception, so call sites read like their serial equivalents. On a pool
 * without workers (SMTFLEX_JOBS=1) they degrade to plain loops/calls.
 */

#ifndef SMTFLEX_EXEC_PARALLEL_H
#define SMTFLEX_EXEC_PARALLEL_H

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace smtflex {
namespace exec {

/**
 * Run fn(i) for every i in [begin, end). Iterations are grouped into
 * chunks of @p grain (0 = pick automatically from the pool width) and
 * executed on @p pool (nullptr = the global pool). Iteration order inside
 * a chunk is ascending; chunks run in any order, so the body must only
 * touch per-index state.
 */
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)> &fn,
                  std::size_t grain = 0, ThreadPool *pool = nullptr);

/** Run two independent thunks, potentially in parallel. */
void par_do(const std::function<void()> &left,
            const std::function<void()> &right, ThreadPool *pool = nullptr);

/**
 * Evaluate fn(0..n-1) on @p pool (nullptr = the global pool), one task per
 * index so the pool balances even when experiment costs vary wildly, and
 * return the results in index order. Result i is fn(i) for any worker
 * count or steal order, which is what makes SMTFLEX_JOBS=1 and
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
    parallel_for(
        0, n, [&](std::size_t i) { results[i] = fn(i); }, /*grain=*/1,
        pool);
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
