#ifndef PAQOC_COMMON_THREAD_POOL_H_
#define PAQOC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace paqoc {

/**
 * Fixed-size worker pool behind all parallelism in the compiler: batch
 * pulse generation, concurrent GRAPE duration probes, and the blocked
 * gemm. Tasks are plain queued closures; parallelFor additionally lets
 * the calling thread run loop iterations itself and hands the rest
 * only to free workers, so a pool of size 1 is an ordinary serial
 * loop, a busy pool leaves the whole loop to its caller, and a call
 * made from inside a worker (a daemon request's duration probes, say)
 * fans out onto the idle workers without deadlocking.
 *
 * Determinism contract: the pool schedules *when* work runs, never
 * *what* work runs. Every parallel site in the compiler derives its
 * task set and its result folding order from program state alone, so
 * compile reports are bit-identical for any pool size, including 1.
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers; 0 means hardware_concurrency. */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (>= 1). */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Queue a task and get a future for its result. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        post([task]() { (*task)(); });
        return fut;
    }

    /**
     * Run body(i) for every i in [0, n), one index at a time. The
     * caller participates: it drains indices alongside helper tasks
     * posted only to free workers (neither running a task nor claimed
     * by a queued one), then waits only for indices another thread has
     * already started. A helper stops taking indices once queued tasks
     * outnumber the free workers, so work submitted meanwhile (another
     * daemon request, say) waits only for the index a helper is
     * running, not for the rest of the loop. Nesting -- a call from
     * inside a pool worker, even with every worker nested -- never
     * deadlocks. The first exception thrown by any body is rethrown on
     * the caller once all finished.
     */
    template <typename F>
    void
    parallelFor(std::size_t n, F &&body)
    {
        if (size() <= 1 || n <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                body(i);
            return;
        }

        struct State
        {
            std::atomic<std::size_t> next{0};
            std::size_t n = 0;
            std::function<void(std::size_t)> body;
            Mutex mutex;
            CondVar cv;
            std::size_t done PAQOC_GUARDED_BY(mutex) = 0;
            std::exception_ptr error PAQOC_GUARDED_BY(mutex);
        };
        auto st = std::make_shared<State>();
        st->n = n;
        st->body = std::forward<F>(body);

        // `pool` is null for the caller, which must drain to the end.
        auto drain = [](const std::shared_ptr<State> &s, ThreadPool *pool) {
            for (;;) {
                if (pool != nullptr && pool->backlogged())
                    return;
                const std::size_t i =
                    s->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= s->n)
                    return;
                std::exception_ptr err;
                try {
                    s->body(i);
                } catch (...) {
                    err = std::current_exception();
                }
                MutexLock lock(s->mutex);
                if (err && !s->error)
                    s->error = err;
                if (++s->done == s->n)
                    s->cv.notify_all();
            }
        };

        postToFreeWorkers([st, drain, this]() { drain(st, this); },
                          std::min<std::size_t>(size(), n) - 1);
        drain(st, nullptr);

        MutexLock lock(st->mutex);
        while (st->done != st->n)
            st->cv.wait(st->mutex);
        if (st->error)
            std::rethrow_exception(st->error);
    }

    /**
     * The process-wide pool (default size: hardware_concurrency).
     * Intended to be resized only from single-threaded context (CLI
     * startup, bench setup) via setGlobalThreads.
     */
    static ThreadPool &global();
    static void setGlobalThreads(unsigned threads);

    /** The default worker count a `threads = 0` knob resolves to. */
    static unsigned defaultThreads();

  private:
    void post(std::function<void()> task);
    /** Queue up to `max` copies of `task`, no more than there are free
     *  workers to run them at once. */
    void postToFreeWorkers(const std::function<void()> &task,
                           std::size_t max);
    /** True when queued tasks outnumber the free workers. */
    bool backlogged();
    void workerLoop();

    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar cv_;
    std::deque<std::function<void()>> queue_ PAQOC_GUARDED_BY(mutex_);
    /** Workers running a task. */
    std::size_t busy_ PAQOC_GUARDED_BY(mutex_) = 0;
    bool stop_ PAQOC_GUARDED_BY(mutex_) = false;
};

} // namespace paqoc

#endif // PAQOC_COMMON_THREAD_POOL_H_
