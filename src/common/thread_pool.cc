#include "common/thread_pool.hh"

#include <utility>

#include "common/logging.hh"

namespace ppm {

namespace {

/**
 * Polls a waiting thread makes before it parks: about 150 us on a
 * 4-thread Xeon VM (~18 ns per pause, ~0.3 us per yield), which
 * outlasts a fleet's settlement barrier between two shard jobs.
 */
constexpr int kPolls = 1 << 12;

/** Every kYieldEvery-th poll yields the CPU instead of pausing it. */
constexpr int kYieldEvery = 16;

/** The low half of the claim word: the next chunk index. */
constexpr std::uint64_t kIndexMask = 0xffffffffu;

/** Spin-wait hint to the CPU; a no-op where there is none. */
inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
}

/** Poll `ready` up to kPolls times; true once it holds. */
template <typename Ready>
bool
poll(const Ready& ready)
{
    for (int i = 1; i <= kPolls; ++i) {
        if (ready())
            return true;
        if (i % kYieldEvery == 0)
            std::this_thread::yield();
        else
            cpu_relax();
    }
    return ready();
}

} // namespace

int
ThreadPool::resolve_jobs(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::unique_ptr<ThreadPool>
ThreadPool::for_threads(int threads)
{
    const int workers = resolve_jobs(threads) - 1;
    return workers > 0 ? std::make_unique<ThreadPool>(workers) : nullptr;
}

ThreadPool::ThreadPool(int num_threads)
{
    const int n = resolve_jobs(num_threads);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { work(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_.store(true);
    }
    work_cv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

const ThreadPool::Enrolment*&
ThreadPool::current_enrolment()
{
    thread_local const Enrolment* current = nullptr;
    return current;
}

ThreadPool::Enrolment::Enrolment(const ThreadPool* p)
    : pool(p), outer(current_enrolment())
{
    current_enrolment() = this;
}

ThreadPool::Enrolment::~Enrolment()
{
    current_enrolment() = outer;
}

bool
ThreadPool::on_worker_thread() const
{
    for (const Enrolment* e = current_enrolment(); e != nullptr;
         e = e->outer) {
        if (e->pool == this)
            return true;
    }
    return false;
}

void
ThreadPool::fork_join(std::size_t chunks, Body body, const void* ctx)
{
    PPM_ASSERT(chunks <= (kIndexMask >> 1), "too many chunks for one job");
    const Enrolment self(this);
    std::unique_lock<std::mutex> job(job_mutex_, std::try_to_lock);
    if (!job.owns_lock()) {
        for (std::size_t c = 0; c < chunks; ++c)
            body(ctx, c);
        return;
    }

    // Publish: the body, context and chunk count first, then the
    // claim word that opens them to claims, then the generation that
    // sends polling workers to claim.  Parked workers need a wake-up.
    body_.store(body, std::memory_order_relaxed);
    ctx_.store(ctx, std::memory_order_relaxed);
    pending_.store(chunks, std::memory_order_relaxed);
    claim_.store(static_cast<std::uint64_t>(chunks) << 32,
                 std::memory_order_release);
    generation_.fetch_add(1);
    if (parked_.load() > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        work_cv_.notify_all();
    }

    run_chunks();
    const auto finished = [this] {
        return pending_.load(std::memory_order_acquire) == 0;
    };
    if (!poll(finished)) {
        std::unique_lock<std::mutex> lock(mutex_);
        caller_parked_ = true;
        done_cv_.wait(lock, finished);
        caller_parked_ = false;
    }
    if (error_ != nullptr)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
ThreadPool::run_chunks()
{
    for (;;) {
        const std::uint64_t word =
            claim_.fetch_add(1, std::memory_order_acq_rel);
        const auto c = static_cast<std::size_t>(word & kIndexMask);
        if (c >= static_cast<std::size_t>(word >> 32))
            return;
        try {
            body_.load(std::memory_order_relaxed)(
                ctx_.load(std::memory_order_relaxed), c);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error_ == nullptr || c < error_chunk_) {
                error_ = std::current_exception();
                error_chunk_ = c;
            }
        }
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (caller_parked_)
                done_cv_.notify_one();
        }
    }
}

void
ThreadPool::work()
{
    const Enrolment self(this);
    std::uint64_t seen = 0;
    const auto ready = [this, &seen] {
        return generation_.load() != seen || stopping_.load();
    };
    for (;;) {
        if (!poll(ready)) {
            std::unique_lock<std::mutex> lock(mutex_);
            parked_.fetch_add(1);
            work_cv_.wait(lock, ready);
            parked_.fetch_sub(1);
        }
        if (stopping_.load())
            return;
        seen = generation_.load();
        run_chunks();
    }
}

} // namespace ppm
