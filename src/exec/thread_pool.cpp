#include "thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>

#include "common/env.h"
#include "common/log.h"

namespace smtflex {
namespace exec {

/** One forEach() call; lives on its caller's stack. */
struct ThreadPool::Batch
{
    const std::function<void(std::size_t)> &body;
    const std::size_t n;
    std::atomic<std::size_t> next{0};   ///< next index to hand out
    std::size_t done = 0;               ///< indices finished (mutex_)
    std::exception_ptr error{};         ///< first exception (mutex_)
    std::condition_variable finished{}; ///< done reached n

    std::size_t claim() { return next.fetch_add(1); }
};

ThreadPool::ThreadPool(unsigned workers)
{
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

unsigned
ThreadPool::configuredJobs()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = envU32("SMTFLEX_JOBS", hw);
    if (jobs == 0)
        fatal("SMTFLEX_JOBS: must be >= 1 (1 = serial execution)");
    return jobs;
}

namespace {

std::mutex globalPoolMutex;
std::unique_ptr<ThreadPool> globalPool;

ThreadPool &
makeGlobal(unsigned jobs)
{
    // jobs == 1 means "no extra threads": batches run inline on the
    // calling thread, which reproduces serial execution exactly.
    globalPool = std::make_unique<ThreadPool>(jobs <= 1 ? 0 : jobs);
    return *globalPool;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    if (!globalPool)
        makeGlobal(configuredJobs());
    return *globalPool;
}

void
ThreadPool::configureGlobal(unsigned jobs)
{
    if (jobs == 0)
        fatal("jobs: must be >= 1 (1 = serial execution)");
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    if (globalPool)
        fatal("configureGlobal: the global pool is already running");
    makeGlobal(jobs);
}

void
ThreadPool::resetGlobalForTesting(unsigned jobs)
{
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    globalPool.reset(); // join old workers before replacing
    makeGlobal(jobs);
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &body)
{
    Batch batch{body, n};
    // One index, or no worker to share with: run inline, in order.
    const bool shared = n > 1 && !threads_.empty();
    if (shared) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_.push_back(&batch);
        }
        wake_.notify_all();
    }
    std::size_t mine = 0;
    for (std::size_t i = batch.claim(); i < n; i = batch.claim(), ++mine)
        runIndex(batch, i);
    if (shared) {
        std::unique_lock<std::mutex> lock(mutex_);
        // Off the list, no worker can reach the batch any more; wait for
        // the indices workers already claimed.
        std::erase(open_, &batch);
        batch.done += mine;
        batch.finished.wait(lock, [&] { return batch.done == n; });
    }
    if (batch.error)
        std::rethrow_exception(batch.error);
}

void
ThreadPool::runIndex(Batch &batch, std::size_t i)
{
    try {
        batch.body(i);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!batch.error)
            batch.error = std::current_exception();
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || !open_.empty(); });
        if (stop_)
            return;
        // The newest batch: its caller may be a worker blocked inside an
        // index of an older one. Claim under mutex_, so a worker touches a
        // batch only while it is listed or to finish an index it claimed;
        // its caller waits for both before the batch leaves its stack.
        Batch &batch = *open_.back();
        const std::size_t i = batch.claim();
        if (i + 1 >= batch.n)
            open_.pop_back(); // nothing left to hand out
        if (i >= batch.n)
            continue;
        lock.unlock();
        runIndex(batch, i);
        lock.lock();
        if (++batch.done == batch.n)
            batch.finished.notify_all();
    }
}

} // namespace exec
} // namespace smtflex
