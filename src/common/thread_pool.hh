/**
 * @file
 * Fixed-size fork-join pool: one parallel loop, for_chunks().
 *
 * The pool's workers live as long as the pool and wait between jobs.
 * for_chunks() publishes one job -- a chunk count and a body -- and
 * the calling thread then claims chunks alongside the workers, in
 * index order, through one atomic counter.  It returns once every
 * chunk has finished, so the body and everything it captures may die
 * right after.  Chunk boundaries are a pure function of (n, grain),
 * so callers whose chunks touch disjoint state get the same results
 * for every pool size, the null pool included.
 *
 * Waiting: a worker that finished a job polls for the next one for a
 * bounded number of polls, then parks on a condition variable; the
 * caller waits for a job's last chunk the same way.  Polls pause the
 * CPU and yield it every few polls, so a poller gives way to the
 * thread it waits for, even when every thread shares one CPU.  A job
 * published while workers still poll starts without a wake-up.
 *
 * Reentrancy: a chunk that calls for_chunks() on the pool running it
 * -- on a worker or on the calling thread -- runs the inner chunks
 * inline on its own thread.  A thread outside the pool that calls
 * for_chunks() while another one's job runs on it runs its own job
 * inline too, rather than wait: the running job may be waiting on it.
 *
 * Exceptions: a throwing chunk does not stop the job.  Every other
 * chunk still runs, and once all of them have finished for_chunks()
 * rethrows the exception of the lowest throwing chunk index.  On the
 * inline path the chunks run in order, so the first exception ends
 * the loop, which is again the lowest index.
 */

#ifndef PPM_COMMON_THREAD_POOL_HH
#define PPM_COMMON_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ppm {

/** Fixed-size fork-join pool. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count, not counting the threads that
     *                    call for_chunks(); <= 0 means one worker per
     *                    hardware thread (at least one).
     */
    explicit ThreadPool(int num_threads = 0);

    /** Joins all workers (no job can be running). */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * True when the calling thread works for this pool: it is one of
     * the pool's workers, or it is inside a for_chunks() job on the
     * pool (the job enrolls its caller for its duration).  Such a
     * thread already holds a claim in the pool's current job, so a
     * nested for_chunks() on the pool runs inline.
     */
    bool on_worker_thread() const;

    /** Resolve a thread-count request: <= 0 -> hardware concurrency. */
    static int resolve_jobs(int requested);

    /**
     * The pool that, with the thread calling for_chunks() on it, makes
     * `threads` threads (<= 0: one per hardware thread): that many
     * workers minus one.  Null when that is a single thread, which
     * for_chunks() runs inline.  This is what every `--jobs N` means.
     */
    static std::unique_ptr<ThreadPool> for_threads(int threads);

    /**
     * Run `fn(begin, end)` over the fixed-size chunks of [0, n) and
     * return once all of them finished.  The chunks are ceil(n/grain)
     * runs of `grain` indices, the last one shorter (a zero grain
     * means 1).  With a null `pool`, a single chunk, or a caller that
     * already works for `pool`, the chunks run inline on the calling
     * thread, in order, with zero allocation.  Otherwise the caller
     * and the workers claim chunks in index order; see the file
     * comment for the exception order.  `fn` must be safe to invoke
     * concurrently on disjoint ranges.
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
        if (pool == nullptr || chunks <= 1 || pool->on_worker_thread()) {
            for (std::size_t c = 0; c < chunks; ++c)
                fn(c * grain, std::min(n, (c + 1) * grain));
            return;
        }
        const auto chunk = [&fn, n, grain](std::size_t c) {
            fn(c * grain, std::min(n, (c + 1) * grain));
        };
        using Chunk = decltype(chunk);
        pool->fork_join(
            chunks,
            [](const void* ctx, std::size_t c) {
                (*static_cast<const Chunk*>(ctx))(c);
            },
            &chunk);
    }

  private:
    /** A job's body: run chunk `c` of the job whose context is `ctx`. */
    using Body = void (*)(const void* ctx, std::size_t c);

    /**
     * A link in the calling thread's chain of pools it works for, from
     * construction to destruction: a worker enrolls in its pool for
     * its lifetime, a for_chunks() caller for the job's duration.
     */
    struct Enrolment {
        explicit Enrolment(const ThreadPool* p);
        ~Enrolment();
        Enrolment(const Enrolment&) = delete;
        Enrolment& operator=(const Enrolment&) = delete;

        const ThreadPool* pool;
        const Enrolment* outer;
    };

    /** Publish one job, claim chunks until none is left, wait for the
     *  last one, then rethrow the lowest-index chunk exception; or,
     *  while another caller's job runs, run the chunks inline. */
    void fork_join(std::size_t chunks, Body body, const void* ctx);

    /** Claim and run chunks of the current job until it has none left. */
    void run_chunks();

    /** Worker loop: wait for each new job, help run it, until stopped. */
    void work();

    /** The calling thread's innermost enrolment (null outside pools). */
    static const Enrolment*& current_enrolment();

    // The job.  claim_ packs (chunk count << 32 | next index); a claim
    // that reads an index below the count owns that chunk of the job
    // that published the word, and only then reads body_ and ctx_,
    // which that job stored before the word.  A job cannot end before
    // its claimed chunks do, so those fields stay put while the chunk
    // runs; a claim on an exhausted word runs nothing, whichever job
    // it came late for.
    std::atomic<Body> body_{nullptr};
    std::atomic<const void*> ctx_{nullptr};
    std::atomic<std::uint64_t> claim_{0};
    std::atomic<std::size_t> pending_{0};      ///< Unfinished chunks.
    std::atomic<std::uint64_t> generation_{0}; ///< Jobs published.

    std::mutex job_mutex_;  ///< Held by the caller whose job runs.

    // Parking and errors, guarded by mutex_.
    std::mutex mutex_;
    std::condition_variable work_cv_;  ///< A job was published, or stop.
    std::condition_variable done_cv_;  ///< The job's last chunk finished.
    std::atomic<int> parked_{0};       ///< Workers asleep on work_cv_.
    bool caller_parked_ = false;
    std::atomic<bool> stopping_{false};
    std::exception_ptr error_;
    std::size_t error_chunk_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace ppm

#endif // PPM_COMMON_THREAD_POOL_HH
