/**
 * @file
 * Host-parallel execution of independent experiments (smtflex::exec).
 *
 * The design-space sweeps behind the paper's figures are thousands of
 * independent simulations; this pool spreads them across host cores. It is
 * a work-stealing pool: every worker owns a deque, pushes work it spawns to
 * the front (LIFO, for locality), pops its own front, and steals from the
 * back of other workers' deques when idle. Nested parallelism is the
 * common case here — a bench driver fans out over designs, each design
 * fans out over workloads — so TaskGroup::wait() *helps*: a thread waiting
 * on a group executes that group's queued tasks itself instead of
 * blocking. Helping is restricted to the waited-on group, which keeps
 * waits acyclic (no re-entrant deadlocks through memoised engine state).
 *
 * Worker count comes from SMTFLEX_JOBS (default: hardware concurrency).
 * SMTFLEX_JOBS=1 builds a pool with no worker threads: every task runs
 * inline at submission, byte-for-byte reproducing serial execution.
 */

#ifndef SMTFLEX_EXEC_THREAD_POOL_H
#define SMTFLEX_EXEC_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace smtflex {
namespace exec {

class TaskGroup;

/**
 * Work-stealing pool of @p workers threads. A pool with zero workers runs
 * every submitted task inline on the submitting thread (the serial mode
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
        return static_cast<unsigned>(workers_.size());
    }

    /** Degree of parallelism this pool provides (>= 1). */
    unsigned concurrency() const { return std::max(1u, workerCount()); }

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
     * a pool that may have tasks in flight is not supported.
     */
    static void configureGlobal(unsigned jobs);

    /**
     * Replace the global pool (tests only: lets one process compare
     * SMTFLEX_JOBS=1 vs =N behaviour). Must not race with tasks in
     * flight. @p jobs follows SMTFLEX_JOBS semantics: 1 = serial.
     */
    static void resetGlobalForTesting(unsigned jobs);

  private:
    friend class TaskGroup;

    struct Task
    {
        std::function<void()> fn;
        TaskGroup *group;
    };

    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> deque;
        std::thread thread;
    };

    /** Enqueue @p task; runs it inline when the pool has no workers. */
    void submit(Task task);

    /**
     * Find and run one queued task, preferring the current worker's own
     * deque (front) and stealing from other deques (back) otherwise. When
     * @p only is non-null, only tasks of that group are eligible.
     * @return whether a task was run.
     */
    bool runOneTask(const TaskGroup *only);

    bool popTask(Worker &worker, bool own, const TaskGroup *only,
                 Task &out);
    void workerLoop(std::size_t index);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::atomic<std::size_t> nextWorker_{0};
    std::atomic<bool> stop_{false};
    std::mutex idleMutex_;
    std::condition_variable idleCv_;
    std::atomic<std::size_t> queued_{0};
};

/**
 * A batch of tasks whose completion can be awaited. Submit with run(),
 * then wait(); run() must not be called again after wait() returns. The
 * first exception thrown by a task is captured and rethrown from wait().
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool) : pool_(pool) {}

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit @p fn as one task of this group. */
    void run(std::function<void()> fn);

    /**
     * Block until every task of the group finished, executing the group's
     * queued tasks on this thread while waiting. Rethrows the first task
     * exception.
     */
    void wait();

  private:
    friend class ThreadPool;

    void execute(const std::function<void()> &fn);

    ThreadPool &pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    std::mutex errorMutex_;
    std::exception_ptr error_;
};

} // namespace exec
} // namespace smtflex

#endif // SMTFLEX_EXEC_THREAD_POOL_H
