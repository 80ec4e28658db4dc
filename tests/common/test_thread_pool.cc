/** @file Unit tests for the worker pool under the sweep runner. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"

namespace ppm {
namespace {

TEST(ThreadPool, ResolveJobsDefaultsToHardwareConcurrency)
{
    const int resolved = ThreadPool::resolve_jobs(0);
    EXPECT_GE(resolved, 1);
    EXPECT_EQ(ThreadPool::resolve_jobs(-3), resolved);
    EXPECT_EQ(ThreadPool::resolve_jobs(7), 7);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([&counter]() { ++counter; }));
    for (auto& f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, FuturesPreserveSubmissionOrderValues)
{
    // Completion order is arbitrary, but reading the futures in
    // submission order must yield each task's own result -- the
    // property the sweep's fixed-order reduction rests on.
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SingleThreadFallbackStillCompletes)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(pool.submit([i]() { return i; }));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([]() { return 1; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("cell failed"); });
    EXPECT_EQ(ok.get(), 1);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([]() { return 2; }).get(), 2);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i) {
            futures.push_back(pool.submit([&counter]() {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                ++counter;
            }));
        }
    }
    // Every future is satisfied even though the pool died right away.
    for (auto& f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 32);
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
    ThreadPool pool(3);
    EXPECT_THROW(
        ThreadPool::for_chunks(&pool, 64, 4,
                               [](std::size_t begin, std::size_t) {
                                   if (begin == 32)
                                       throw std::runtime_error("chunk");
                               }),
        std::runtime_error);
    // The pool survives for later work.
    EXPECT_EQ(pool.submit([]() { return 3; }).get(), 3);
}

TEST(ThreadPool, OnWorkerThreadOnlyInsideOwnWorkers)
{
    ThreadPool pool(2);
    ThreadPool other(2);
    EXPECT_FALSE(pool.on_worker_thread());
    EXPECT_TRUE(pool.submit([&]() {
                        return pool.on_worker_thread() &&
                               !other.on_worker_thread();
                    })
                    .get());
}

TEST(ThreadPool, NestedForChunksOnSamePoolRunsInline)
{
    // The fleet shards a run over the pool and each shard's market
    // may itself call for_chunks() on the SAME pool for clearing.
    // The nested call must run inline on the worker (never re-queue
    // into the pool it is already draining), or two shards could
    // deadlock waiting on each other's queued chunks.
    ThreadPool pool(2);
    std::atomic<int> inner_calls{0};
    ThreadPool::for_chunks(
        &pool, 4, 1, [&](std::size_t, std::size_t) {
            EXPECT_TRUE(pool.on_worker_thread());
            ThreadPool::for_chunks(&pool, 8, 2,
                                   [&](std::size_t, std::size_t) {
                                       ++inner_calls;
                                   });
        });
    // 4 outer chunks x 4 inner chunks, all completed without deadlock.
    EXPECT_EQ(inner_calls.load(), 16);
}

} // namespace
} // namespace ppm
