/** @file Unit tests for the statistics helpers. */

#include <bit>
#include <cstdint>
#include <deque>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "snapshot/archive.hh"

namespace ppm {
namespace {

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, SingleSample)
{
    OnlineStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(OnlineStats, MeanAndVariance)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, NegativeValues)
{
    OnlineStats s;
    s.add(-2.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -2.0);
    EXPECT_DOUBLE_EQ(s.max(), 2.0);
}

TEST(OnlineStats, ResetClears)
{
    OnlineStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(DutyCycle, EmptyIsZero)
{
    DutyCycle d;
    EXPECT_DOUBLE_EQ(d.fraction(), 0.0);
    EXPECT_EQ(d.total_time(), 0);
}

TEST(DutyCycle, MixedConditions)
{
    DutyCycle d;
    d.add(true, 30);
    d.add(false, 70);
    EXPECT_DOUBLE_EQ(d.fraction(), 0.3);
    EXPECT_EQ(d.total_time(), 100);
    EXPECT_EQ(d.true_time(), 30);
}

TEST(DutyCycle, AlwaysTrue)
{
    DutyCycle d;
    d.add(true, 10);
    d.add(true, 10);
    EXPECT_DOUBLE_EQ(d.fraction(), 1.0);
}

TEST(DutyCycle, ResetClears)
{
    DutyCycle d;
    d.add(true, 10);
    d.reset();
    EXPECT_DOUBLE_EQ(d.fraction(), 0.0);
}

TEST(WindowRate, RateWithinWindow)
{
    WindowRate w(kSecond);
    // 10 events spread over 1 s -> 10 events/s.
    for (int i = 1; i <= 10; ++i)
        w.add(i * 100 * kMillisecond, 1.0);
    EXPECT_DOUBLE_EQ(w.rate(kSecond), 10.0);
}

TEST(WindowRate, OldSamplesEvicted)
{
    WindowRate w(kSecond);
    w.add(100 * kMillisecond, 5.0);
    EXPECT_DOUBLE_EQ(w.rate(kSecond), 5.0);
    // 2 s later the sample is outside the window.
    EXPECT_DOUBLE_EQ(w.rate(2 * kSecond + 100 * kMillisecond), 0.0);
}

TEST(WindowRate, FractionalCounts)
{
    WindowRate w(kSecond);
    w.add(500 * kMillisecond, 0.25);
    w.add(kSecond, 0.25);
    EXPECT_DOUBLE_EQ(w.rate(kSecond), 0.5);
}

TEST(WindowRate, BoundaryEviction)
{
    WindowRate w(kSecond);
    w.add(0, 1.0);
    // A sample exactly at (now - window) is evicted.
    EXPECT_DOUBLE_EQ(w.rate(kSecond), 0.0);
}

TEST(Percentile, EmptyVector)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, MedianAndExtremes)
{
    std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(Percentile, ClampsOutOfRangeP)
{
    std::vector<double> v{1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, -10.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 200.0), 2.0);
}

/**
 * Reference model for WindowRate: a literal per-sample deque with the
 * same FIFO eviction and "-= each evicted count" arithmetic.  The
 * run-coalescing ring must match it bit for bit on any add pattern.
 */
class NaiveWindowRate
{
  public:
    explicit NaiveWindowRate(SimTime window) : window_(window) {}

    void add(SimTime now, double count)
    {
        evict(now);
        samples_.push_back({now, count});
        sum_ += count;
    }

    double rate(SimTime now)
    {
        evict(now);
        return sum_ / to_seconds(window_);
    }

  private:
    void evict(SimTime now)
    {
        while (!samples_.empty() &&
               samples_.front().first <= now - window_) {
            sum_ -= samples_.front().second;
            samples_.pop_front();
        }
        if (samples_.empty())
            sum_ = 0.0;
    }

    SimTime window_;
    std::deque<std::pair<SimTime, double>> samples_;
    double sum_ = 0.0;
};

TEST(WindowRate, CoalescedRingMatchesPerSampleRingBitForBit)
{
    WindowRate w(100 * kMillisecond);
    NaiveWindowRate naive(100 * kMillisecond);
    // Mixed pattern: uniform stretches (coalescible), value changes,
    // stride changes, repeated timestamps and idle gaps.
    SimTime t = 0;
    const auto feed = [&](SimTime dt, double c, int n) {
        for (int i = 0; i < n; ++i) {
            t += dt;
            w.add(t, c);
            naive.add(t, c);
            const double a = w.rate(t);
            const double b = naive.rate(t);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                      std::bit_cast<std::uint64_t>(b))
                << "diverged at t=" << t;
        }
    };
    feed(kMillisecond, 0.3, 250);       // Long uniform run.
    feed(kMillisecond, 0.7, 40);        // Value change.
    feed(2 * kMillisecond, 0.7, 40);    // Stride change.
    feed(0, 0.7, 3);                    // Repeated timestamps.
    t += 500 * kMillisecond;            // Idle gap: full eviction.
    feed(kMillisecond, 0.1, 150);
}

TEST(WindowRate, ReplaySteadyDetectsUniformFullWindow)
{
    const SimTime window = 100 * kMillisecond;
    const SimTime dt = kMillisecond;
    WindowRate w(window);
    SimTime t = 0;
    for (int i = 0; i < 100; ++i) {
        t += dt;
        w.add(t, 0.25);
    }
    // Window full of bit-identical uniform samples: steady.
    EXPECT_TRUE(w.replay_steady(t, dt, 0.25));
    // A different count, stride or phase is not steady.
    EXPECT_FALSE(w.replay_steady(t, dt, 0.26));
    EXPECT_FALSE(w.replay_steady(t, 2 * dt, 0.25));
    EXPECT_FALSE(w.replay_steady(t + dt, dt, 0.25));
}

TEST(WindowRate, AdvanceSteadyMatchesExplicitAdds)
{
    const SimTime window = 100 * kMillisecond;
    const SimTime dt = kMillisecond;
    WindowRate fast(window);
    WindowRate slow(window);
    SimTime t = 0;
    for (int i = 0; i < 100; ++i) {
        t += dt;
        fast.add(t, 0.25);
        slow.add(t, 0.25);
    }
    ASSERT_TRUE(fast.replay_steady(t, dt, 0.25));
    const long n = 5000;
    fast.advance_steady(n * dt);
    for (long i = 0; i < n; ++i)
        slow.add(t + (i + 1) * dt, 0.25);
    const double a = fast.rate(t + n * dt);
    const double b = slow.rate(t + n * dt);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b));
}

/** A window's snapshot bytes: its runs, ring capacity, count and sum. */
std::string
window_bytes(const WindowRate& w)
{
    snap::Writer out;
    out(w);
    return out.payload();
}

TEST(WindowRate, AddSpanMatchesPerSampleAdds)
{
    // Seeded random histories drive two windows through the same
    // sequence: one takes every span as add_span(), the other as n
    // add() calls.  The histories mix single samples and spans, a
    // small value palette (so runs repeat and coalesce), repeated
    // timestamps, gaps longer than the window, partial windows,
    // window/dt of 1 (and below) and spans longer than the window.
    const double palette[] = {0.0, 0.25, 0.5, 1.0 / 3.0};
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        const SimTime dt = rng.chance(0.5) ? kMillisecond
                                           : 2 * kMillisecond;
        const SimTime windows[] = {dt / 2, dt, 3 * dt, 16 * dt, 100 * dt};
        const SimTime window = windows[rng.uniform_int(0, 4)];
        const long per_window = std::max<SimTime>(1, window / dt);
        WindowRate span(window);
        WindowRate ref(window);
        std::vector<double> rates;
        SimTime t = 0;
        const auto value = [&] {
            return palette[rng.uniform_int(0, 3)];
        };
        const auto gap = [&]() -> SimTime {
            switch (rng.uniform_int(0, 5)) {
            case 0:
                return 0;  // Repeated timestamp.
            case 1:
                return 3 * dt;
            case 2:
                return window + dt;  // The window empties.
            default:
                return dt;
            }
        };
        for (int op = 0; op < 60; ++op) {
            if (rng.chance(0.5)) {
                t += gap();
                const double c = value();
                span.add(t, c);
                ref.add(t, c);
            } else {
                const long lengths[] = {0,
                                        1,
                                        2,
                                        per_window - 1,
                                        per_window,
                                        per_window + 5,
                                        3 * per_window + 1};
                const long n = std::max<long>(
                    0, lengths[rng.uniform_int(0, 6)]);
                const SimTime t0 = t + gap();
                const double c = value();
                rates.assign(static_cast<std::size_t>(n), -1.0);
                span.add_span(t0, dt, n, c, rates.data());
                for (long k = 0; k < n; ++k) {
                    ref.add(t0 + k * dt, c);
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(
                                  rates[static_cast<std::size_t>(k)]),
                              std::bit_cast<std::uint64_t>(
                                  ref.rate(t0 + k * dt)))
                        << "seed " << seed << " op " << op << " tick "
                        << k;
                }
                if (n > 0)
                    t = t0 + (n - 1) * dt;
            }
            ASSERT_EQ(window_bytes(span), window_bytes(ref))
                << "seed " << seed << " op " << op;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(span.rate(t + dt)),
                  std::bit_cast<std::uint64_t>(ref.rate(t + dt)));
    }
}

TEST(WindowRate, PartiallyFilledWindowIsNotSteady)
{
    const SimTime window = 100 * kMillisecond;
    const SimTime dt = kMillisecond;
    WindowRate w(window);
    SimTime t = 0;
    for (int i = 0; i < 50; ++i) {  // Only half the window.
        t += dt;
        w.add(t, 0.25);
    }
    EXPECT_FALSE(w.replay_steady(t, dt, 0.25));
}

} // namespace
} // namespace ppm
