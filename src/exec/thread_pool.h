/**
 * @file
 * Host-parallel execution of independent experiments (smtflex::exec).
 *
 * The design-space sweeps behind the paper's figures are thousands of
 * independent simulations; this pool spreads them across host cores. Its
 * one unit of work is a batch: forEach(n, body) opens a batch of n
 * indices, and the calling thread plus every idle worker claim indices
 * from its shared counter until none are left. Idle workers join the
 * newest open batch. Nested parallelism is the common case here — a
 * bench driver fans out over designs, each design fans out over
 * workloads — and a thread waiting on a batch only ever claims that
 * batch's indices, which keeps nested waits acyclic (no re-entrant
 * deadlocks through memoised engine state).
 *
 * Worker count comes from SMTFLEX_JOBS (default: hardware concurrency).
 * SMTFLEX_JOBS=1 builds a pool with no worker threads: every batch runs
 * on the calling thread in ascending index order, byte-for-byte
 * reproducing serial execution.
 */

#ifndef SMTFLEX_EXEC_THREAD_POOL_H
#define SMTFLEX_EXEC_THREAD_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smtflex {
namespace exec {

/**
 * Pool of @p workers threads that help callers of forEach(). A pool with
 * zero workers runs every batch on the calling thread (the serial mode
 * selected by SMTFLEX_JOBS=1).
 */
class ThreadPool
{
  public:
    /** Spawn @p workers threads. */
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 = inline/serial execution). */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Degree of parallelism this pool provides (>= 1). */
    unsigned concurrency() const { return std::max(1u, workerCount()); }

    /**
     * Run body(i) for every i in [0, n) and return once all have finished.
     * The calling thread claims indices alongside idle workers and, once
     * none are left to claim, waits only for the indices others claimed.
     * Every index runs even when one throws; the first exception is then
     * rethrown. Without workers the indices run in ascending order on the
     * calling thread. The body may call forEach() again (nesting).
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body);

    /**
     * The process-wide pool, built on first use from SMTFLEX_JOBS.
     * Thread-safe.
     */
    static ThreadPool &global();

    /** Worker count SMTFLEX_JOBS requests (>= 1; 1 = serial). */
    static unsigned configuredJobs();

    /**
     * Build the global pool with @p jobs workers instead of the
     * SMTFLEX_JOBS default (the CLI's `serve --jobs N`). Must run before
     * anything touches global(); fatal() once the pool exists — replacing
     * a pool that may have batches in flight is not supported.
     */
    static void configureGlobal(unsigned jobs);

    /**
     * Replace the global pool (tests only: lets one process compare
     * SMTFLEX_JOBS=1 vs =N behaviour). Must not race with batches in
     * flight. @p jobs follows SMTFLEX_JOBS semantics: 1 = serial.
     */
    static void resetGlobalForTesting(unsigned jobs);

  private:
    struct Batch;

    /** Run one index, keeping the batch's first exception. */
    void runIndex(Batch &batch, std::size_t i);
    void workerLoop();

    std::mutex mutex_;             ///< guards open_, stop_, Batch::done/error
    std::condition_variable wake_; ///< a batch opened, or stop_
    std::vector<Batch *> open_;    ///< batches to join, newest last
    bool stop_ = false;
    /** Declared last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace exec
} // namespace smtflex

#endif // SMTFLEX_EXEC_THREAD_POOL_H
