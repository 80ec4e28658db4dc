#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace ppm {

namespace {

/**
 * Bitwise double equality.  The coalescing and fixed-point checks must
 * distinguish 0.0 from -0.0 (operator== does not): substituting one
 * for the other would change later subtraction results by a sign bit.
 */
bool
bit_equal(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

} // namespace

void
OnlineStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
OnlineStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

void
OnlineStats::reset()
{
    *this = OnlineStats{};
}

void
DutyCycle::add(bool condition, SimTime duration)
{
    PPM_ASSERT(duration >= 0, "negative duration");
    total_ += duration;
    if (condition)
        true_ += duration;
}

double
DutyCycle::fraction() const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(true_) / static_cast<double>(total_);
}

void
DutyCycle::reset()
{
    total_ = 0;
    true_ = 0;
}

WindowRate::WindowRate(SimTime window) : window_(window)
{
    PPM_ASSERT(window > 0, "window must be positive");
}

void
WindowRate::evict(SimTime now) const
{
    const SimTime start = now - window_;
    while (runs_ > 0) {
        Run& r = ring_[head_];
        if (r.first > start)
            break;
        // How many of the run's samples fall at or before the window
        // start.  r.first <= start here, so k >= 1; skip the division
        // in the common steady case where only the oldest sample ages
        // out (the run's second sample is already past the start).
        long k = 1;
        if (r.n >= 2 && r.first + r.stride <= start)
            k = std::min<long>(r.n, (start - r.first) / r.stride + 1);
        // One subtraction per evicted sample, oldest first: the exact
        // floating-point op sequence of the per-sample ring.
        for (long i = 0; i < k; ++i)
            window_sum_ -= r.count;
        count_ -= k;
        if (k == r.n) {
            head_ = (head_ + 1) & (ring_.size() - 1);
            --runs_;
        } else {
            r.first += k * r.stride;
            r.n -= k;
            break;  // Remaining samples are newer than the start.
        }
    }
    if (count_ == 0)
        window_sum_ = 0.0;  // Clear floating-point residue.
}

void
WindowRate::grow()
{
    const std::size_t cap = ring_.size();
    PPM_ASSERT(cap < kMaxRingRuns, "window ring exceeds kMaxRingRuns");
    std::vector<Run> next(std::max<std::size_t>(8, cap * 2));
    for (std::size_t i = 0; i < runs_; ++i)
        next[i] = ring_[(head_ + i) & (cap - 1)];
    ring_ = std::move(next);
    head_ = 0;
}

void
WindowRate::add(SimTime now, double count)
{
    // Steady-window fast path: a single uniform run, the new sample
    // extends it at the same stride with the same bits, and exactly
    // one sample ages out.  The net effect of evict-then-append is
    // then "-= count, += count, shift the run by one stride", with
    // the identical floating-point op sequence the general path would
    // execute and no run bookkeeping.
    if (runs_ == 1) {
        Run& r = ring_[head_];
        const SimTime start = now - window_;
        if (r.n >= 2 && now - r.last() == r.stride &&
            bit_equal(r.count, count) && r.first <= start &&
            r.first + r.stride > start) {
            window_sum_ -= count;
            window_sum_ += count;
            r.first += r.stride;
            return;
        }
    }
    evict(now);
    if (runs_ > 0) {
        Run& back = ring_[(head_ + runs_ - 1) & (ring_.size() - 1)];
        const SimTime gap = now - back.last();
        // Coalesce into the newest run when the sample value repeats
        // bit-for-bit at a uniform positive spacing.  Repeated
        // timestamps (gap == 0) stay separate runs so eviction order
        // is well defined.
        if (bit_equal(back.count, count) && gap > 0 &&
            (back.n == 1 || gap == back.stride)) {
            if (back.n == 1)
                back.stride = gap;
            ++back.n;
            ++count_;
            window_sum_ += count;
            return;
        }
    }
    if (runs_ == ring_.size())
        grow();
    ring_[(head_ + runs_) & (ring_.size() - 1)] =
        Run{now, 0, 1, count};
    ++runs_;
    ++count_;
    window_sum_ += count;
}

void
WindowRate::add_span(SimTime t0, SimTime dt, long n, double count,
                     double* rates)
{
    PPM_ASSERT(dt > 0 && n >= 0, "span needs dt > 0 and n >= 0");
    const SimTime window = window_;
    const double width = to_seconds(window);
    // The general path places the span's first samples: the first add
    // coalesces into the newest run or appends one (growing the ring
    // if full), and a coalesce at a stride other than dt makes the
    // next add append again.  Once the newest run ends at the last
    // sample with stride dt (or holds it alone), every later sample
    // coalesces into it: with dt < window that run never ages out, so
    // no later add appends a run or grows the ring, and the window
    // never empties (no residue reset applies).
    long k = 0;
    for (; k < n; ++k) {
        if (k > 0 && dt < window) {
            const Run& back =
                ring_[(head_ + runs_ - 1) & (ring_.size() - 1)];
            if (back.n == 1 || back.stride == dt)
                break;
        }
        add(t0 + k * dt, count);
        if (rates != nullptr)
            rates[k] = window_sum_ / width;
    }
    if (k == n)
        return;
    // evict()'s walk, with the sum, the live count and the cursor in
    // locals: the loop stores only into runs, so the sum's dependent
    // chain never round-trips through memory.
    Run* const ring = ring_.data();
    const std::size_t mask = ring_.size() - 1;
    std::size_t head = head_;
    std::size_t runs = runs_;
    long live = count_;
    double sum = window_sum_;
    Run& back = ring[(head + runs - 1) & mask];
    back.stride = dt;  // What the next coalesce sets on a 1-sample run.
    for (; k < n; ++k) {
        const SimTime start = t0 + k * dt - window;
        for (;;) {
            Run& r = ring[head];
            if (r.first > start)
                break;
            long aged = 1;
            if (r.n >= 2 && r.first + r.stride <= start)
                aged = std::min<long>(r.n, (start - r.first) / r.stride + 1);
            // One subtraction per evicted sample, oldest first.
            for (long i = 0; i < aged; ++i)
                sum -= r.count;
            live -= aged;
            if (aged < r.n) {
                r.first += aged * r.stride;
                r.n -= aged;
                break;
            }
            head = (head + 1) & mask;
            --runs;
        }
        ++back.n;
        ++live;
        sum += count;
        if (rates != nullptr)
            rates[k] = sum / width;
    }
    head_ = head;
    runs_ = runs;
    count_ = live;
    window_sum_ = sum;
}

double
WindowRate::rate(SimTime now) const
{
    evict(now);
    return window_sum_ / to_seconds(window_);
}

bool
WindowRate::replay_steady(SimTime now, SimTime dt, double count) const
{
    PPM_ASSERT(dt > 0, "sampling period must be positive");
    evict(now);
    if (runs_ != 1 || window_ % dt != 0)
        return false;
    const Run& r = ring_[head_];
    if (r.n != window_ / dt || r.last() != now)
        return false;
    if (r.n >= 2 && r.stride != dt)
        return false;
    if (!bit_equal(r.count, count))
        return false;
    // One more add would evict exactly one sample and append one:
    // sum' = (sum - count) + count.  Steady only if that round-trips
    // to the same bits, making every further step the identity.
    return bit_equal((window_sum_ - count) + count, window_sum_);
}

void
WindowRate::advance_steady(SimTime shift)
{
    PPM_ASSERT(shift >= 0, "negative shift");
    PPM_ASSERT(runs_ == 1, "advance_steady needs a steady window");
    ring_[head_].first += shift;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(samples.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

} // namespace ppm
