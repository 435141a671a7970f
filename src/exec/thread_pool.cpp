#include "thread_pool.h"

#include "common/env.h"
#include "common/log.h"

namespace smtflex {
namespace exec {

namespace {

/** Which pool (if any) the current thread is a worker of. */
struct WorkerIdentity
{
    ThreadPool *pool = nullptr;
    std::size_t index = 0;
};

thread_local WorkerIdentity tlsWorker;

} // namespace

ThreadPool::ThreadPool(unsigned workers)
{
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
    for (unsigned i = 0; i < workers; ++i)
        workers_[i]->thread = std::thread([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(idleMutex_);
        stop_.store(true, std::memory_order_release);
    }
    idleCv_.notify_all();
    for (auto &worker : workers_) {
        if (worker->thread.joinable())
            worker->thread.join();
    }
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
    // jobs == 1 means "no extra threads": tasks run inline on the
    // submitting thread, which reproduces serial execution exactly.
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
ThreadPool::submit(Task task)
{
    if (workers_.empty()) {
        task.group->execute(task.fn);
        return;
    }
    const WorkerIdentity id = tlsWorker;
    if (id.pool == this) {
        // Spawned from a worker: LIFO on the owner's deque for locality.
        Worker &own = *workers_[id.index];
        std::lock_guard<std::mutex> lock(own.mutex);
        own.deque.push_front(std::move(task));
    } else {
        const std::size_t victim =
            nextWorker_.fetch_add(1, std::memory_order_relaxed) %
            workers_.size();
        Worker &worker = *workers_[victim];
        std::lock_guard<std::mutex> lock(worker.mutex);
        worker.deque.push_back(std::move(task));
    }
    queued_.fetch_add(1, std::memory_order_release);
    {
        // Pairs with the re-check sleeping workers do under idleMutex_:
        // prevents a worker from going to sleep between our queue push
        // and this notification.
        std::lock_guard<std::mutex> lock(idleMutex_);
    }
    idleCv_.notify_one();
}

bool
ThreadPool::popTask(Worker &worker, bool own, const TaskGroup *only,
                    Task &out)
{
    std::lock_guard<std::mutex> lock(worker.mutex);
    auto &dq = worker.deque;
    if (own) {
        for (auto it = dq.begin(); it != dq.end(); ++it) {
            if (only == nullptr || it->group == only) {
                out = std::move(*it);
                dq.erase(it);
                return true;
            }
        }
    } else {
        for (auto it = dq.rbegin(); it != dq.rend(); ++it) {
            if (only == nullptr || it->group == only) {
                out = std::move(*it);
                dq.erase(std::next(it).base());
                return true;
            }
        }
    }
    return false;
}

bool
ThreadPool::runOneTask(const TaskGroup *only)
{
    if (workers_.empty())
        return false;
    Task task;
    bool found = false;
    const WorkerIdentity id = tlsWorker;
    const std::size_t start = id.pool == this ? id.index : 0;
    if (id.pool == this)
        found = popTask(*workers_[start], /*own=*/true, only, task);
    for (std::size_t k = 0; !found && k < workers_.size(); ++k) {
        const std::size_t victim = (start + k) % workers_.size();
        if (id.pool == this && victim == id.index)
            continue;
        found = popTask(*workers_[victim], /*own=*/false, only, task);
    }
    if (!found)
        return false;
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    task.group->execute(task.fn);
    return true;
}

void
ThreadPool::workerLoop(std::size_t index)
{
    tlsWorker = {this, index};
    for (;;) {
        if (runOneTask(nullptr))
            continue;
        std::unique_lock<std::mutex> lock(idleMutex_);
        idleCv_.wait(lock, [this] {
            return stop_.load(std::memory_order_acquire) ||
                   queued_.load(std::memory_order_acquire) > 0;
        });
        if (stop_.load(std::memory_order_acquire))
            break;
    }
    tlsWorker = {};
}

void
TaskGroup::run(std::function<void()> fn)
{
    pending_.fetch_add(1, std::memory_order_acq_rel);
    pool_.submit({std::move(fn), this});
}

void
TaskGroup::execute(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (!error_)
            error_ = std::current_exception();
    }
    {
        // The decrement and notification stay inside one doneMutex_
        // critical section, and wait() only concludes "done" while holding
        // the same mutex. That pairing is what makes it safe for the
        // waiter to destroy the group the moment wait() returns: a waiter
        // can observe pending_ == 0 only after the final decrementer
        // released the mutex, and past that point this thread never
        // touches the group again.
        std::lock_guard<std::mutex> lock(doneMutex_);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            doneCv_.notify_all();
    }
}

void
TaskGroup::wait()
{
    for (;;) {
        // Help: run this group's queued tasks on the waiting thread. Only
        // this group's tasks are eligible, so a wait can never wander into
        // an unrelated task that waits back on us.
        if (pool_.runOneTask(this))
            continue;
        // Nothing left to help with: any remaining tasks are running on
        // other threads. Completion may only be observed under doneMutex_
        // (see execute()). Sleep until a task finishes, then rescan — a
        // running task may have spawned more work we can help with.
        std::unique_lock<std::mutex> lock(doneMutex_);
        if (pending_.load(std::memory_order_acquire) == 0)
            break;
        doneCv_.wait(lock);
    }
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(errorMutex_);
        error = error_;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace exec
} // namespace smtflex
