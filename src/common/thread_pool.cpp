#include "common/thread_pool.h"

#include <algorithm>

namespace paqoc {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    threads = std::max(1u, threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::postToFreeWorkers(const std::function<void()> &task,
                              std::size_t max)
{
    std::size_t count = 0;
    {
        MutexLock lock(mutex_);
        const std::size_t claimed = busy_ + queue_.size();
        if (claimed < workers_.size())
            count = std::min(max, workers_.size() - claimed);
        for (std::size_t i = 0; i < count; ++i)
            queue_.push_back(task);
    }
    for (std::size_t i = 0; i < count; ++i)
        cv_.notify_one();
}

bool
ThreadPool::backlogged()
{
    MutexLock lock(mutex_);
    return busy_ + queue_.size() > workers_.size();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stop_ && queue_.empty())
                cv_.wait(mutex_);
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
            ++busy_;
        }
        task();
        MutexLock lock(mutex_);
        --busy_;
    }
}

unsigned
ThreadPool::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace {

std::unique_ptr<ThreadPool> &
globalSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

Mutex &
globalMutex()
{
    static Mutex m;
    return m;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    MutexLock lock(globalMutex());
    std::unique_ptr<ThreadPool> &slot = globalSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(defaultThreads());
    return *slot;
}

void
ThreadPool::setGlobalThreads(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    MutexLock lock(globalMutex());
    std::unique_ptr<ThreadPool> &slot = globalSlot();
    if (slot && slot->size() == threads)
        return;
    slot = std::make_unique<ThreadPool>(threads);
}

} // namespace paqoc
