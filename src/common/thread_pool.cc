#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

namespace procrustes {

namespace {

/** True while the current thread is executing a pool chunk. */
thread_local bool t_inside_pool = false;

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("PROCRUSTES_NUM_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
        WARN(std::string("ignoring bad PROCRUSTES_NUM_THREADS='") + env +
             "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

ThreadPool::ThreadPool(int num_threads)
{
    const int total = resolveThreadCount(num_threads);
    workers_.reserve(static_cast<size_t>(total - 1));
    for (int i = 0; i < total - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;   // keeps the job alive past the wait
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock, [&] {
                return stop_ || (job_ != nullptr && generation_ != seen);
            });
            if (stop_)
                return;
            seen = generation_;
            job = job_;
        }
        runChunks(*job);
    }
}

void
ThreadPool::runChunks(Job &job)
{
    t_inside_pool = true;
    for (;;) {
        const int64_t b = job.next.fetch_add(job.chunk,
                                             std::memory_order_relaxed);
        if (b >= job.end)
            break;
        const int64_t e = std::min(job.end, b + job.chunk);
        (*job.body)(b, e);
        if (job.remaining.fetch_sub(e - b, std::memory_order_acq_rel) ==
            e - b) {
            // Last elements retired: wake the submitting thread.
            std::lock_guard<std::mutex> lock(mu_);
            doneCv_.notify_all();
        }
    }
    t_inside_pool = false;
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)> &body,
                        int64_t grain)
{
    if (end <= begin)
        return;
    const int64_t n = end - begin;
    grain = std::max<int64_t>(1, grain);
    // Serial fast paths: tiny ranges, no workers, or a nested call from
    // inside a chunk (the outer job's threads are all busy here).
    if (workers_.empty() || n <= grain || t_inside_pool) {
        body(begin, end);
        return;
    }

    // One job at a time: a second submitter (another application
    // thread sharing this pool) degrades to inline serial execution
    // rather than aborting or deadlocking.
    std::unique_lock<std::mutex> submit(submitMu_, std::try_to_lock);
    if (!submit.owns_lock()) {
        body(begin, end);
        return;
    }

    auto job = std::make_shared<Job>();
    job->body = &body;
    job->end = end;
    // ~4 chunks per thread for load balance without cursor contention,
    // rounded up to a grain multiple: callers pass their tile size as
    // the grain, so chunk boundaries never split a tile and the work
    // decomposition — hence the fp reduction pattern — is identical
    // for every thread count.
    int64_t chunk = std::max(
        grain, (n + numThreads() * 4 - 1) / (numThreads() * 4));
    chunk = (chunk + grain - 1) / grain * grain;
    job->chunk = chunk;
    job->next.store(begin, std::memory_order_relaxed);
    job->remaining.store(n, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lock(mu_);
        PROCRUSTES_ASSERT(job_ == nullptr,
                          "concurrent parallelFor submissions");
        job_ = job;
        ++generation_;
    }
    workCv_.notify_all();

    runChunks(*job);

    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock, [&] {
        return job->remaining.load(std::memory_order_acquire) == 0;
    });
    job_.reset();
    // `body` may dangle once we return, but late-waking workers only see
    // an exhausted cursor through their own shared_ptr and never call it.
}

namespace {

/** Slot + guard for the replaceable process-wide pool. The published
 *  pointer makes the steady-state global() lookup a single atomic
 *  load; the mutex only serializes creation and resetGlobal. */
std::mutex &
globalPoolMutex()
{
    static std::mutex mu;
    return mu;
}

/** Never destroyed at exit. A child forked while a worker held the
 *  pool's mutex (a gtest death test, say) would otherwise deadlock in
 *  ~ThreadPool when it exit()s; the OS reclaims the idle workers. */
std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static auto *pool = new std::unique_ptr<ThreadPool>();
    return *pool;
}

std::atomic<ThreadPool *> &
globalPoolCache()
{
    static std::atomic<ThreadPool *> cache{nullptr};
    return cache;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    if (ThreadPool *pool =
            globalPoolCache().load(std::memory_order_acquire))
        return *pool;
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    std::unique_ptr<ThreadPool> &slot = globalPoolSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(0);
    globalPoolCache().store(slot.get(), std::memory_order_release);
    return *slot;
}

void
ThreadPool::resetGlobal(int num_threads)
{
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    // Unpublish, then destroy the old pool so its workers exit before
    // the new ones spin up (keeps peak thread count bounded during
    // sweeps). Callers guarantee no work is in flight across a reset.
    globalPoolCache().store(nullptr, std::memory_order_release);
    globalPoolSlot().reset();
    globalPoolSlot() = std::make_unique<ThreadPool>(num_threads);
    globalPoolCache().store(globalPoolSlot().get(),
                            std::memory_order_release);
}

} // namespace procrustes
