/** @file Unit tests for the statistics helpers. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

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
    // The palette mixes dyadic values with non-dyadic ones, and two
    // that sit exactly halfway between two ulps of a sum in [2, 4)
    // and in [4, 8) (a rounding tie the closed form must refuse).
    // Spans are judged in blocks of at most SpanHits::kMaxTicks
    // against a band whose edges are rates the block really reads,
    // so every strict comparison is tested at equality too.  A third
    // window takes each span whole, in one add_span() without hits.
    const double palette[] = {0.0,       0.25,  0.5,
                              1.0 / 3.0, 0.1,   0.7,
                              0.02,      1.0 / 7.0,
                              0.25 + 0x1p-52, 0.5 + 0x1p-51};
    constexpr int kPalette = sizeof palette / sizeof palette[0];
    long samples = 0;
    long iterated = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        const SimTime dt = rng.chance(0.5) ? kMillisecond
                                           : 2 * kMillisecond;
        const SimTime windows[] = {dt / 2, dt,        3 * dt,
                                   16 * dt, 100 * dt, 1000 * dt};
        const SimTime window = windows[rng.uniform_int(0, 5)];
        const long per_window = std::max<SimTime>(1, window / dt);
        WindowRate span(window);
        WindowRate whole(window);
        WindowRate ref(window);
        std::vector<double> rates;
        SimTime t = 0;
        const auto value = [&] {
            return palette[rng.uniform_int(0, kPalette - 1)];
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
                whole.add(t, c);
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
                whole.add_span(t0, dt, n, c);
                for (long b = 0; b < n; b += SpanHits::kMaxTicks) {
                    const long m = std::min(n - b, SpanHits::kMaxTicks);
                    const SimTime tb = t0 + b * dt;
                    rates.clear();
                    for (long k = 0; k < m; ++k) {
                        ref.add(tb + k * dt, c);
                        rates.push_back(ref.rate(tb + k * dt));
                    }
                    RateBand band;
                    band.lo = rates[static_cast<std::size_t>(
                        rng.uniform_int(0, m - 1))];
                    band.hi = std::max(
                        band.lo, rates[static_cast<std::size_t>(
                                     rng.uniform_int(0, m - 1))]);
                    band.ranged = rng.chance(0.8);
                    SpanHits hits;
                    SpanHits want;
                    iterated += span.add_span(tb, dt, m, c, &hits, band);
                    samples += m;
                    for (long k = 0; k < m; ++k)
                        want.mark(band, k,
                                  rates[static_cast<std::size_t>(k)]);
                    ASSERT_EQ(hits.below, want.below)
                        << "seed " << seed << " op " << op << " block "
                        << b;
                    ASSERT_EQ(hits.outside, want.outside)
                        << "seed " << seed << " op " << op << " block "
                        << b;
                    ASSERT_EQ(window_bytes(span), window_bytes(ref))
                        << "seed " << seed << " op " << op << " block "
                        << b;
                }
                if (n > 0)
                    t = t0 + (n - 1) * dt;
            }
            ASSERT_EQ(window_bytes(span), window_bytes(ref))
                << "seed " << seed << " op " << op;
            ASSERT_EQ(window_bytes(whole), window_bytes(ref))
                << "seed " << seed << " op " << op;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(span.rate(t + dt)),
                  std::bit_cast<std::uint64_t>(ref.rate(t + dt)));
    }
    // The closed form must carry most samples, or the bitwise checks
    // above only exercised the one-by-one path.
    EXPECT_LT(iterated * 4, samples) << iterated << " of " << samples;
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

/** The plain loop add_repeated() must reproduce bit for bit. */
double
repeated_by_loop(double x, double minus, double plus, long n)
{
    for (long i = 0; i < n; ++i)
        x = (x - minus) + plus;
    return x;
}

/** ulp of a positive normal x: the gap to the next double up. */
double
ulp_of(double x)
{
    return std::nextafter(x, std::numeric_limits<double>::infinity()) - x;
}

TEST(AddRepeated, MatchesTheLoop)
{
    // Seeded cases aimed at the closed form's edges: steps at exactly
    // (m + 1/2) ulps of x (rounding ties), x a few ulps either side of
    // a power of two, progressions long enough to cross a binade,
    // zeros of both signs, subnormal, negative and huge values,
    // minus > x, and n up to 10^6 (far more steps than a binade holds
    // at the larger slopes, so the step count must be bounded without
    // forming n times the slope).
    // Fixed cases first: long sums climbing (and falling) through many
    // binades, where each crossing ends one closed-form stretch and
    // the next resumes, and a sum that crosses 0 and stays refused.
    const struct {
        double x, minus, plus;
        long n;
    } fixed[] = {{1e-3, 0.0, 0.1, 3000000},
                 {1e5, 0.3, 0.2, 900000},
                 {10.0, 0.7, 0.2, 50}};
    for (const auto& c : fixed) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      add_repeated(c.x, c.minus, c.plus, c.n)),
                  std::bit_cast<std::uint64_t>(
                      repeated_by_loop(c.x, c.minus, c.plus, c.n)))
            << "x=" << c.x << " n=" << c.n;
    }
    const double specials[] = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               0x1p-1030,
                               std::numeric_limits<double>::min(),
                               -3.5,
                               1e300,
                               std::numeric_limits<double>::max() / 4};
    for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
        Rng rng(seed);
        double x = 0.0;
        switch (rng.uniform_int(0, 4)) {
        case 0:
            x = specials[rng.uniform_int(0, 7)];
            break;
        case 1:
        case 2: {
            // A few ulps either side of a power of two.
            const double p =
                std::ldexp(1.0, static_cast<int>(rng.uniform_int(-20, 40)));
            x = p;
            const auto steps = rng.uniform_int(-4, 4);
            for (std::int64_t i = 0; i < std::abs(steps); ++i)
                x = std::nextafter(x, steps < 0 ? 0.0 : 2 * p);
            break;
        }
        default:
            x = std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.uniform_int(-20, 40)));
            break;
        }
        const double u = x > 0.0 && std::isnormal(x) ? ulp_of(x) : 0x1p-60;
        const auto step = [&]() -> double {
            switch (rng.uniform_int(0, 7)) {
            case 0:
                return 0.0;
            case 7:  // A few ulps and a random fraction of one.
                return (static_cast<double>(rng.uniform_int(0, 8)) +
                        rng.uniform()) *
                    u;
            case 1:  // A tie: exactly halfway between two ulps of x.
                return (static_cast<double>(rng.uniform_int(0, 40)) + 0.5) *
                    u;
            case 2:  // A whole number of ulps, with a quarter or not.
                return static_cast<double>(rng.uniform_int(0, 40)) * u +
                    (rng.chance(0.5) ? 0.25 * u : 0.0);
            case 3:  // Around x itself: minus > x, or a binade's worth.
                return x * rng.uniform(0.5, 2.0);
            case 4:
                return -rng.uniform(0.0, 64.0) * u;
            default:  // Non-dyadic, small against x.
                return x * rng.uniform(0.0, 1e-3);
            }
        };
        const double minus = step();
        const double plus = step();
        long n = 0;
        switch (rng.uniform_int(0, 9)) {
        case 0:
            n = rng.uniform_int(0, 2);
            break;
        case 1:
            n = seed % 50 == 0 ? 1000000 : rng.uniform_int(0, 100000);
            break;
        default:
            n = rng.uniform_int(0, 2000);
            break;
        }
        const double want = repeated_by_loop(x, minus, plus, n);
        const double got = add_repeated(x, minus, plus, n);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "seed " << seed << ": x=" << x << " minus=" << minus
            << " plus=" << plus << " n=" << n;
    }
}

} // namespace
} // namespace ppm
