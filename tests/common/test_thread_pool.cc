/** @file Unit tests for the fork-join pool under fleets and sweeps. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"

namespace ppm {
namespace {

/**
 * Yield until `count` reaches `target`; false after 10 s.  A job of
 * k chunks whose every chunk first waits for all k to start needs k
 * threads at once, so it proves who runs chunks (and that parked
 * workers wake up) without depending on timing.
 */
bool
await_count(const std::atomic<int>& count, int target)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (count.load() < target) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(ThreadPool, ResolveJobsDefaultsToHardwareConcurrency)
{
    const int resolved = ThreadPool::resolve_jobs(0);
    EXPECT_GE(resolved, 1);
    EXPECT_EQ(ThreadPool::resolve_jobs(-3), resolved);
    EXPECT_EQ(ThreadPool::resolve_jobs(7), 7);
}

TEST(ThreadPool, ForThreadsCountsTheCaller)
{
    // `--jobs N` means N threads, the calling thread included.
    EXPECT_EQ(ThreadPool::for_threads(1), nullptr);
    EXPECT_EQ(ThreadPool::for_threads(2)->size(), 1);
    EXPECT_EQ(ThreadPool::for_threads(4)->size(), 3);
    const auto all = ThreadPool::for_threads(0);
    EXPECT_EQ(all == nullptr ? 0 : all->size(),
              ThreadPool::resolve_jobs(0) - 1);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::vector<std::atomic<int>> runs(64);
    ThreadPool::for_chunks(&pool, runs.size(), 1,
                           [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i)
                                   ++runs[i];
                           });
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].load(), 1) << "chunk " << i;
}

TEST(ThreadPool, ForChunksSlotsKeepInputOrder)
{
    // Completion order is arbitrary (later chunks sleep less), but
    // each chunk writes its own pre-sized slot, so reading the slots
    // in index order yields each chunk's own result -- the property
    // run_cells' fixed-order reduction rests on.
    ThreadPool pool(4);
    std::vector<int> slots(100, -1);
    ThreadPool::for_chunks(
        &pool, slots.size(), 1, [&](std::size_t begin, std::size_t) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(100 - begin));
            const int i = static_cast<int>(begin);
            slots[begin] = i * i;
        });
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(slots[static_cast<std::size_t>(i)], i * i);
}

TEST(ThreadPool, SingleThreadFallbackStillCompletes)
{
    // One thread means no pool at all: the chunks run inline, in
    // order, on the calling thread.
    const auto pool = ThreadPool::for_threads(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    ThreadPool::for_chunks(pool.get(), 16, 1,
                           [&](std::size_t begin, std::size_t) {
                               EXPECT_EQ(std::this_thread::get_id(),
                                         caller);
                               order.push_back(begin);
                           });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, OneWorkerPoolForkJoinsOnTwoThreads)
{
    // Two chunks that each wait for the other to start can only
    // finish on two threads: the worker and the caller.
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    std::atomic<int> started{0};
    std::atomic<bool> met{true};
    ThreadPool::for_chunks(&pool, 2, 1, [&](std::size_t, std::size_t) {
        ++started;
        if (!await_count(started, 2))
            met = false;
    });
    EXPECT_TRUE(met.load());
}

TEST(ThreadPool, ExceptionPropagatesToTheCaller)
{
    ThreadPool pool(2);
    const auto caller = std::this_thread::get_id();

    // Thrown by the chunk the calling thread runs: three chunks wait
    // for each other, so each of the three threads runs one.
    std::atomic<int> started{0};
    EXPECT_THROW(ThreadPool::for_chunks(
                     &pool, 3, 1,
                     [&](std::size_t, std::size_t) {
                         ++started;
                         await_count(started, 3);
                         if (std::this_thread::get_id() == caller)
                             throw std::runtime_error("caller chunk");
                     }),
                 std::runtime_error);

    // Inline, the first throwing chunk ends the loop.
    int ran = 0;
    EXPECT_THROW(ThreadPool::for_chunks(nullptr, 8, 1,
                                        [&](std::size_t begin,
                                            std::size_t) {
                                            ++ran;
                                            if (begin == 2)
                                                throw std::runtime_error(
                                                    "inline chunk");
                                        }),
                 std::runtime_error);
    EXPECT_EQ(ran, 3);

    // The pool survives a throwing job.
    std::atomic<int> after{0};
    ThreadPool::for_chunks(&pool, 8, 1,
                           [&](std::size_t, std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, DestructorJoinsPollingAndParkedWorkers)
{
    // Never used: the workers poll, park, and are joined.
    for (int i = 0; i < 20; ++i)
        ThreadPool pool(3);

    // Destroyed right after a job, while the workers still poll for
    // the next one.  for_chunks returned only after every chunk, so
    // every effect is in place before the pool dies.
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i) {
        ThreadPool pool(3);
        ThreadPool::for_chunks(&pool, 16, 1,
                               [&](std::size_t begin, std::size_t end) {
                                   counter += static_cast<int>(end - begin);
                               });
    }
    EXPECT_EQ(counter.load(), 50 * 16);

    // Parked workers wake for a new job (three chunks that wait for
    // each other need both workers), and are joined while parked.
    ThreadPool pool(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::atomic<int> started{0};
    std::atomic<bool> met{true};
    ThreadPool::for_chunks(&pool, 3, 1, [&](std::size_t, std::size_t) {
        ++started;
        if (!await_count(started, 3))
            met = false;
    });
    EXPECT_TRUE(met.load());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
}

/** Record the chunk ranges for_chunks() hands out, in call order. */
std::vector<std::pair<std::size_t, std::size_t>>
collect_chunks(ThreadPool* pool, std::size_t n, std::size_t grain)
{
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::mutex mu;
    ThreadPool::for_chunks(pool, n, grain,
                           [&](std::size_t begin, std::size_t end) {
                               std::lock_guard<std::mutex> lock(mu);
                               chunks.emplace_back(begin, end);
                           });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

TEST(ThreadPool, ForChunksCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{100}}) {
        const auto chunks = collect_chunks(&pool, n, 8);
        std::size_t expect_begin = 0;
        for (const auto& [begin, end] : chunks) {
            EXPECT_EQ(begin, expect_begin);
            EXPECT_LT(begin, end);
            expect_begin = end;
        }
        EXPECT_EQ(expect_begin, n) << "n=" << n;
    }
    // A zero grain is normalized to 1 instead of dividing by zero.
    EXPECT_EQ(collect_chunks(&pool, 5, 0).size(), 5u);
}

TEST(ThreadPool, ForChunksBoundariesIndependentOfWorkerCount)
{
    // The determinism contract of for_chunks: the chunk
    // decomposition is a pure function of (n, grain), so the inline
    // path and pools of any size hand out identical ranges.
    const auto inline_chunks = collect_chunks(nullptr, 100, 7);
    EXPECT_EQ(inline_chunks.size(), 15u);
    for (int jobs : {1, 2, 3, 8}) {
        ThreadPool pool(jobs);
        EXPECT_EQ(collect_chunks(&pool, 100, 7), inline_chunks)
            << "jobs=" << jobs;
    }
}

TEST(ThreadPool, ForChunksPropagatesWorkerException)
{
    // Four chunks on three workers plus the caller, each waiting for
    // all four to start, so every thread runs one; the three on
    // workers throw.
    ThreadPool pool(3);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> started{0};
    EXPECT_THROW(ThreadPool::for_chunks(
                     &pool, 4, 1,
                     [&](std::size_t, std::size_t) {
                         ++started;
                         await_count(started, 4);
                         if (std::this_thread::get_id() != caller)
                             throw std::runtime_error("worker chunk");
                     }),
                 std::runtime_error);
    // The pool survives for later work.
    std::atomic<int> after{0};
    ThreadPool::for_chunks(&pool, 8, 1,
                           [&](std::size_t, std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ForChunksJoinsEveryChunkBeforeRethrowing)
{
    // fn and its captures die when for_chunks returns, so a throwing
    // chunk must not end the job early: the other seven chunks have
    // all finished by the time the exception reaches the caller.
    ThreadPool pool(3);
    std::atomic<int> finished{0};
    try {
        ThreadPool::for_chunks(&pool, 8, 1,
                               [&](std::size_t begin, std::size_t) {
                                   if (begin == 0)
                                       throw std::runtime_error("chunk 0");
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(5));
                                   ++finished;
                               });
        ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error&) {
        EXPECT_EQ(finished.load(), 7);
    }

    // With chunks 3 and 5 throwing, chunk 3's exception is rethrown,
    // even when chunk 5 throws first.
    try {
        ThreadPool::for_chunks(&pool, 8, 1,
                               [&](std::size_t begin, std::size_t) {
                                   if (begin == 5)
                                       throw std::runtime_error("chunk 5");
                                   if (begin == 3) {
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(5));
                                       throw std::runtime_error("chunk 3");
                                   }
                               });
        ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "chunk 3");
    }
}

TEST(ThreadPool, BackToBackJobsRunEveryIndexOnce)
{
    // Thousands of jobs of 1-64 chunks of uneven length, published
    // while the previous job's workers may still be on their way out:
    // a lost wake-up hangs, and a late claim that ran a chunk of the
    // wrong job, or one chunk twice, breaks a job's index sum.
    ThreadPool pool(3);
    std::uint64_t state = 2014;
    long bad_jobs = 0;
    for (int job = 0; job < 3000; ++job) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t n = 1 + (state >> 33) % 64;
        const std::size_t grain = 1 + (state >> 13) % 3;
        std::atomic<std::size_t> sum{0};
        ThreadPool::for_chunks(
            &pool, n, grain, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    volatile std::size_t spin = 0;
                    for (std::size_t k = 0; k < (i * 37) % 11 * 40; ++k)
                        spin = spin + k;
                    sum += i + 1;
                }
            });
        if (sum.load() != n * (n + 1) / 2)
            ++bad_jobs;
    }
    EXPECT_EQ(bad_jobs, 0);
}

TEST(ThreadPool, TwoExternalThreadsShareOnePool)
{
    // While one outside thread's job runs, another outside caller runs
    // its job inline on its own thread instead of waiting for it.
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    std::atomic<int> started{0};
    std::thread holder([&] {
        ThreadPool::for_chunks(&pool, 2, 1, [&](std::size_t, std::size_t) {
            ++started;
            while (!release.load())
                std::this_thread::yield();
        });
    });
    ASSERT_TRUE(await_count(started, 1));
    const auto caller = std::this_thread::get_id();
    std::atomic<int> inline_chunks{0};
    ThreadPool::for_chunks(&pool, 4, 1, [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() == caller)
            ++inline_chunks;
    });
    EXPECT_EQ(inline_chunks.load(), 4);
    release = true;
    holder.join();

    // Two outside threads publish jobs to the pool at once; no job may
    // lose or repeat an index, so every job still sums exactly.
    std::atomic<long> bad_jobs{0};
    const auto drive = [&](std::size_t salt) {
        for (std::size_t job = 0; job < 500; ++job) {
            const std::size_t n = 1 + (job * 7 + salt) % 40;
            std::atomic<std::size_t> sum{0};
            ThreadPool::for_chunks(&pool, n, 1,
                                   [&](std::size_t begin, std::size_t) {
                                       sum += begin + 1;
                                   });
            if (sum.load() != n * (n + 1) / 2)
                ++bad_jobs;
        }
    };
    std::thread a(drive, 1);
    std::thread b(drive, 2);
    a.join();
    b.join();
    EXPECT_EQ(bad_jobs.load(), 0);
}

TEST(ThreadPool, OnWorkerThreadOnlyInsideOwnWorkers)
{
    // Inside a job every thread running its chunks -- the workers and
    // the enrolled caller -- works for the pool, and keeps doing so
    // inside a nested job of another pool; outside it, the caller
    // does not.
    ThreadPool pool(2);
    ThreadPool other(2);
    EXPECT_FALSE(pool.on_worker_thread());
    std::atomic<int> started{0};
    std::atomic<bool> inside{true};
    ThreadPool::for_chunks(&pool, 3, 1, [&](std::size_t, std::size_t) {
        ++started;
        await_count(started, 3);
        if (!pool.on_worker_thread() || other.on_worker_thread())
            inside = false;
        ThreadPool::for_chunks(&other, 4, 1,
                               [&](std::size_t, std::size_t) {
                                   if (!other.on_worker_thread())
                                       inside = false;
                               });
        if (!pool.on_worker_thread())
            inside = false;
    });
    EXPECT_TRUE(inside.load());
    EXPECT_FALSE(pool.on_worker_thread());
    EXPECT_FALSE(other.on_worker_thread());
}

TEST(ThreadPool, NestedForChunksOnSamePoolRunsInline)
{
    // A chunk may itself call for_chunks() on the SAME pool (code
    // inside a fleet shard or sweep cell reaching the pool that steps
    // it).  The nested call must run inline on the chunk's own thread
    // -- never re-publish into the job it is part of -- or the pool
    // would livelock or deadlock.
    ThreadPool pool(2);
    std::atomic<int> inner_calls{0};
    std::atomic<bool> same_thread{true};
    ThreadPool::for_chunks(
        &pool, 4, 1, [&](std::size_t, std::size_t) {
            const auto outer = std::this_thread::get_id();
            ThreadPool::for_chunks(&pool, 8, 2,
                                   [&](std::size_t, std::size_t) {
                                       if (std::this_thread::get_id() !=
                                           outer)
                                           same_thread = false;
                                       ++inner_calls;
                                   });
        });
    // 4 outer chunks x 4 inner chunks, all completed without deadlock.
    EXPECT_EQ(inner_calls.load(), 16);
    EXPECT_TRUE(same_thread.load());
}

TEST(ThreadPool, NestedForChunksFromTheCallersChunkRunsInline)
{
    // Three chunks that wait for each other put one on the calling
    // thread; its nested job on the same pool runs inline there.
    ThreadPool pool(2);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> started{0};
    std::atomic<int> caller_inner{0};
    std::atomic<bool> same_thread{true};
    ThreadPool::for_chunks(&pool, 3, 1, [&](std::size_t, std::size_t) {
        ++started;
        await_count(started, 3);
        const auto outer = std::this_thread::get_id();
        ThreadPool::for_chunks(&pool, 8, 2,
                               [&](std::size_t, std::size_t) {
                                   if (std::this_thread::get_id() != outer)
                                       same_thread = false;
                                   if (outer == caller)
                                       ++caller_inner;
                               });
    });
    EXPECT_EQ(caller_inner.load(), 4);
    EXPECT_TRUE(same_thread.load());
}

} // namespace
} // namespace ppm
