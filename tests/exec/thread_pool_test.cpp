/**
 * @file
 * Tests for ThreadPool::forEach, the pool's one batch primitive:
 * completion, nesting, a caller that claims indices while workers are
 * busy, a waiting thread that claims only its own batch's indices,
 * exception propagation, and the serial (zero-worker) mode.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/log.h"
#include "exec/thread_pool.h"

namespace smtflex {
namespace exec {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    EXPECT_EQ(pool.concurrency(), 1u);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.forEach(5, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    // Inline mode runs every index on the caller, in ascending order.
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, RunsAllTasksOnWorkers)
{
    for (const unsigned workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        std::atomic<int> count{0};
        pool.forEach(100, [&](std::size_t) { count.fetch_add(1); });
        EXPECT_EQ(count.load(), 100) << workers << " workers";
    }
}

TEST(ThreadPoolTest, NestedGroupsComplete)
{
    ThreadPool pool(3);
    std::atomic<int> leaves{0};
    pool.forEach(8, [&](std::size_t) {
        pool.forEach(8, [&](std::size_t) { leaves.fetch_add(1); });
    });
    EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolTest, WaitHelpsFromSubmittingThread)
{
    // The one worker parks on the first index it claims until the caller
    // has run ten: the caller claims indices itself instead of waiting.
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> release{false};
    std::atomic<int> onCaller{0}, done{0};
    pool.forEach(11, [&](std::size_t) {
        if (std::this_thread::get_id() != caller) {
            while (!release.load())
                std::this_thread::yield();
        } else if (onCaller.fetch_add(1) + 1 == 10) {
            release.store(true);
        }
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 11);
    EXPECT_GE(onCaller.load(), 10);
}

TEST(ThreadPoolTest, WaitingThreadRunsOnlyItsOwnBatch)
{
    // Outer index 0 opens an inner batch and waits on it. While it waits,
    // outer indices are still unclaimed; none may run on its thread, or a
    // wait could re-enter state its own stack holds (the once_flag behind
    // StudyEngine::offline()).
    using namespace std::chrono_literals;
    for (const unsigned workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        std::mutex mutex;
        std::thread::id waiter;
        bool innerOpen = false;
        int violations = 0;
        pool.forEach(32, [&](std::size_t i) {
            if (i == 0) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    waiter = std::this_thread::get_id();
                    innerOpen = true;
                }
                pool.forEach(8, [](std::size_t) {
                    std::this_thread::sleep_for(1ms);
                });
                std::lock_guard<std::mutex> lock(mutex);
                innerOpen = false;
                return;
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (innerOpen && std::this_thread::get_id() == waiter)
                    ++violations;
            }
            std::this_thread::sleep_for(1ms);
        });
        EXPECT_EQ(violations, 0) << workers << " workers";
    }
}

TEST(ThreadPoolTest, ExceptionsPropagateToWait)
{
    for (const unsigned workers : {0u, 2u}) {
        ThreadPool pool(workers);
        std::atomic<int> survivors{0};
        const auto body = [&](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("index failed");
            survivors.fetch_add(1);
        };
        EXPECT_THROW(pool.forEach(10, body), std::runtime_error)
            << workers << " workers";
        // A failure aborts nothing else: every other index still ran.
        EXPECT_EQ(survivors.load(), 9);
    }
}

TEST(ThreadPoolTest, FatalErrorCrossesThreads)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.forEach(
                     64, [](std::size_t) { fatal("simulated user error"); }),
                 FatalError);
}

TEST(ThreadPoolTest, ConfiguredJobsReadsEnv)
{
    setenv("SMTFLEX_JOBS", "5", 1);
    EXPECT_EQ(ThreadPool::configuredJobs(), 5u);
    setenv("SMTFLEX_JOBS", "0", 1);
    EXPECT_THROW(ThreadPool::configuredJobs(), FatalError);
    setenv("SMTFLEX_JOBS", "many", 1);
    EXPECT_THROW(ThreadPool::configuredJobs(), FatalError);
    setenv("SMTFLEX_JOBS", "4294967297", 1);
    EXPECT_THROW(ThreadPool::configuredJobs(), FatalError);
    unsetenv("SMTFLEX_JOBS");
    EXPECT_GE(ThreadPool::configuredJobs(), 1u);
}

TEST(ThreadPoolTest, GlobalPoolResetForTesting)
{
    ThreadPool::resetGlobalForTesting(1);
    EXPECT_EQ(ThreadPool::global().workerCount(), 0u);
    ThreadPool::resetGlobalForTesting(4);
    EXPECT_EQ(ThreadPool::global().workerCount(), 4u);
    std::atomic<int> count{0};
    ThreadPool::global().forEach(32,
                                 [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 32);
    ThreadPool::resetGlobalForTesting(1);
}

} // namespace
} // namespace exec
} // namespace smtflex
