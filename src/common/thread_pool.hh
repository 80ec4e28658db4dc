/**
 * @file
 * Minimal fixed-size worker pool for the parallel experiment runner.
 *
 * Workers are std::jthread instances draining a FIFO task queue;
 * submit() returns a std::future so results and exceptions propagate
 * to the caller.  The pool itself imposes no ordering on task
 * *completion* -- callers that need deterministic output must reduce
 * results in submission order (as experiment::run_cells does).
 */

#ifndef PPM_COMMON_THREAD_POOL_HH
#define PPM_COMMON_THREAD_POOL_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ppm {

/** Fixed-size FIFO worker pool. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; <= 0 means one worker per
     *                    hardware thread (at least one).
     */
    explicit ThreadPool(int num_threads = 0);

    /** Joins all workers; queued tasks still run to completion. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * True when the calling thread is one of this pool's workers.
     * Lets nested fan-outs (a pool task that itself calls
     * for_chunks() on the same pool) detect the recursion and run
     * inline instead of enqueueing chunks they would then block on --
     * with every worker blocked in a nested wait, the queued chunks
     * could never be scheduled and the pool would deadlock.
     */
    bool on_worker_thread() const { return current_pool() == this; }

    /**
     * Enqueue `fn` for execution on some worker and return a future
     * for its result.  An exception thrown by `fn` is captured and
     * rethrown from future::get().
     */
    template <typename Fn>
    auto submit(Fn fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::move(fn));
        std::future<Result> future = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back([task]() { (*task)(); });
        }
        ready_.notify_one();
        return future;
    }

    /** Resolve a worker-count request: <= 0 -> hardware concurrency. */
    static int resolve_jobs(int requested);

    /**
     * Dispatch `fn(begin, end)` over the fixed-size chunks of [0, n)
     * and block until all of them finished.  The chunk boundaries are
     * a pure function of `n` and `grain` -- ceil(n/grain) chunks of
     * `grain` indices, the last one shorter -- and never depend on the
     * worker count, so callers whose chunks touch disjoint state get
     * identical results for every pool size.  With a null `pool`, a
     * single worker, or a single chunk, the chunks run inline on the
     * calling thread, in order, with zero allocation; otherwise each
     * chunk is submitted as one pool task and the futures are drained
     * in chunk order (the first chunk exception, in that order, is
     * rethrown).  `fn` must be safe to invoke concurrently on
     * disjoint ranges.
     *
     * Reentrancy: when the calling thread is itself a worker of
     * `pool` (code inside a fleet shard or sweep cell reaching the
     * pool that steps it), the chunks run inline -- blocking a worker
     * on futures whose chunks sit behind it in the queue could
     * deadlock the pool, and oversubscribing a busy pool is exactly
     * what sharing one pool is meant to avoid.
     * Results are bit-identical either way (chunk boundaries do not
     * change).
     */
    template <typename Fn>
    static void for_chunks(ThreadPool* pool, std::size_t n,
                           std::size_t grain, Fn&& fn)
    {
        if (n == 0)
            return;
        if (grain == 0)
            grain = 1;
        const std::size_t chunks = (n + grain - 1) / grain;
        if (pool == nullptr || pool->size() <= 1 || chunks <= 1 ||
            pool->on_worker_thread()) {
            for (std::size_t c = 0; c < chunks; ++c)
                fn(c * grain, std::min(n, (c + 1) * grain));
            return;
        }
        std::vector<std::future<void>> futures;
        futures.reserve(chunks);
        for (std::size_t c = 0; c < chunks; ++c) {
            futures.push_back(pool->submit([&fn, c, grain, n]() {
                fn(c * grain, std::min(n, (c + 1) * grain));
            }));
        }
        for (auto& f : futures)
            f.get();
    }

  private:
    /** Worker loop: drain the queue until stop is requested. */
    void work(std::stop_token stop);

    /**
     * The pool (if any) whose worker the calling thread is.  A
     * function-local thread_local behind an accessor so the header
     * needs no exported TLS definition.
     */
    static ThreadPool*& current_pool();

    std::mutex mutex_;
    std::condition_variable_any ready_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::jthread> workers_;
};

} // namespace ppm

#endif // PPM_COMMON_THREAD_POOL_HH
