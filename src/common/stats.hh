/**
 * @file
 * Small statistics helpers used by the metrics layer and benchmarks:
 * online accumulators (Welford), duty-cycle counters, sliding-window
 * rate estimators, and percentile computation over stored samples.
 */

#ifndef PPM_COMMON_STATS_HH
#define PPM_COMMON_STATS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ppm {

/**
 * Online mean / variance / min / max accumulator (Welford's algorithm).
 * Constant memory; suitable for per-epoch signals over long runs.
 */
class OnlineStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added. */
    std::size_t count() const { return n_; }

    /** Arithmetic mean, or 0 with no samples. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Population variance, or 0 with fewer than 2 samples. */
    double variance() const;

    /** Standard deviation. */
    double stddev() const;

    /** Smallest sample (0 if empty). */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest sample (0 if empty). */
    double max() const { return n_ ? max_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Reset to the empty state. */
    void reset();

    template <class A>
    void visit(A& a)
    {
        a(n_, mean_, m2_, min_, max_, sum_);
    }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Fraction of (simulated) time a boolean condition held.
 *
 * Feed it (condition, duration) pairs; it reports the duty cycle.  This
 * is the primitive behind the paper's "percentage of time the reference
 * heart rate range is not met" metric (Figures 4, 6, 7).
 */
class DutyCycle
{
  public:
    /** Record that `condition` held for `duration` microseconds. */
    void add(bool condition, SimTime duration);

    /** Fraction of accumulated time the condition held, in [0, 1]. */
    double fraction() const;

    /** Total accumulated time. */
    SimTime total_time() const { return total_; }

    /** Time the condition held. */
    SimTime true_time() const { return true_; }

    /** Reset to the empty state. */
    void reset();

    template <class A>
    void visit(A& a)
    {
        a(total_, true_);
    }

  private:
    SimTime total_ = 0;
    SimTime true_ = 0;
};

/**
 * x after n steps of x = (x - minus) + plus, bit for bit as the plain
 * loop computes them (n <= 0 returns x).  Wherever it is provably
 * exact the steps are taken in O(1): inside one binade, with no
 * rounding tie and one ulp of margin at each edge, every step moves x
 * by the same whole number of ulps (ARCHITECTURE.md, "Time advance").
 * Elsewhere -- x not a positive normal, a tie, a step that leaves the
 * binade -- it takes the plain steps until the closed form applies
 * again.
 */
double add_repeated(double x, double minus, double plus, long n);

/**
 * A reference band on a rate, and the one definition of the QoS
 * predicates every sampler uses.  An unranged band is never outside.
 */
struct RateBand {
    double lo = 0.0;
    double hi = 0.0;
    bool ranged = false;

    /** The rate misses the band's floor. */
    bool below(double rate) const { return rate < lo; }

    /** The band is ranged and the rate is below it or above it. */
    bool outside(double rate) const
    {
        return ranged && (below(rate) || rate > hi);
    }
};

/**
 * The ticks of a span of at most kMaxTicks ticks whose rate fell below
 * or outside a RateBand: bit k stands for the k-th tick.
 */
struct SpanHits {
    static constexpr long kMaxTicks = 64;

    std::uint64_t below = 0;
    std::uint64_t outside = 0;

    /** Judge tick k's rate against `band`. */
    void mark(const RateBand& band, long k, double rate)
    {
        below |= std::uint64_t{band.below(rate)} << k;
        outside |= std::uint64_t{band.outside(rate)} << k;
    }
};

/**
 * Sliding-window event-rate estimator: events per second over the most
 * recent `window` of simulated time.  The Heart Rate Monitor is built
 * on this (heartbeats per second).
 *
 * Storage is a ring of *runs*: maximal groups of consecutive samples
 * with a uniform spacing and a bitwise-identical per-sample count.
 * The per-tick steady state -- one identical sample every simulation
 * tick -- collapses to a single run, so memory stays O(distinct
 * sample values) instead of O(window / tick), and the macro-stepping
 * engine can fast-forward a steady window in O(1) (advance_steady).
 * Eviction still subtracts sample counts one at a time, in FIFO
 * order, so the floating-point trajectory of the window sum is
 * bit-identical to the historical one-sample-per-slot ring; add_span()
 * takes stretches of that same trajectory in add_repeated()'s exact
 * closed form.
 */
class WindowRate
{
  public:
    /** @param window Width of the sliding window (must be > 0). */
    explicit WindowRate(SimTime window);

    /** Record `count` events (possibly fractional) at time `now`. */
    void add(SimTime now, double count);

    /**
     * Record `n` samples of `count` at t0, t0 + dt, ..., t0 + (n-1)*dt,
     * bit for bit as n add() calls would: each sample first evicts
     * the aged-out samples oldest first, then clears the residue of an
     * emptied window, then adds its count, and the runs and ring
     * capacity end up exactly as the per-sample path leaves them.
     * When `hits` is not null (then n <= SpanHits::kMaxTicks), bit k
     * of its masks is set by rate(t0 + k*dt), the rate right after the
     * k-th sample, judged against `band`; bits are only ever set.
     * @return the samples replayed one by one rather than in closed
     *         form (the first one or two, and where no closed form
     *         was exact).
     */
    long add_span(SimTime t0, SimTime dt, long n, double count,
                  SpanHits* hits = nullptr, RateBand band = {});

    /** Events per second over [now - window, now]. */
    double rate(SimTime now) const;

    /** Window width. */
    SimTime window() const { return window_; }

    /**
     * True when the window is in the uniform steady state under a
     * `dt` sampling period: it holds exactly window/dt live samples,
     * all spaced `dt` apart with the last at `now`, every sample's
     * count is bitwise equal to `count`, and one more
     * evict-oldest/add-newest step provably returns the window sum to
     * the same bits (the floating-point fixed point).  When this
     * holds, any number of further `add(now + k*dt, count)` calls
     * leaves the sum and rate bit-identical, so a replay engine may
     * substitute advance_steady() for them.
     */
    bool replay_steady(SimTime now, SimTime dt, double count) const;

    /**
     * Fast-forward a steady window by `shift` of simulated time, as
     * if shift/dt identical samples had been added (and as many
     * evicted).  Caller must have established replay_steady(); the
     * sum, live count and rate are unchanged, only the sample
     * timestamps advance.
     */
    void advance_steady(SimTime shift);

    /** Largest run-ring capacity grow() may reach (a 1 s window
     *  sampled every 1 ms tick needs at most 1,024). */
    static constexpr std::size_t kMaxRingRuns = std::size_t{1} << 20;

    /**
     * Snapshot field list.  The live runs travel in FIFO order from
     * head_, and a load rebuilds the ring rotated to head 0: ring
     * arithmetic is masked, so logical run equality reproduces the
     * exact future sum/eviction trajectory.  A loaded capacity must
     * be one grow() can produce: 0, or a power of two from 8 to
     * kMaxRingRuns.
     */
    template <class A>
    void visit(A& a)
    {
        std::size_t capacity = ring_.size();
        a(window_, capacity, runs_);
        if constexpr (A::kLoading) {
            PPM_ASSERT(capacity == 0 ||
                           (capacity >= 8 && capacity <= kMaxRingRuns &&
                            std::has_single_bit(capacity)),
                       "snapshot mismatch: window ring capacity");
            PPM_ASSERT(runs_ <= capacity,
                       "snapshot mismatch: window ring overfull");
            ring_.assign(capacity, Run{});
            head_ = 0;
        }
        for (std::size_t i = 0; i < runs_; ++i)
            a(ring_[(head_ + i) & (ring_.size() - 1)]);
        a(count_, window_sum_);
    }

  private:
    /** `n` samples at first, first+stride, ..., each worth `count`. */
    struct Run {
        SimTime first;
        SimTime stride;  ///< Sample spacing; meaningful when n >= 2.
        long n;
        double count;

        template <class A>
        void visit(A& a)
        {
            a(first, stride, n, count);
        }

        SimTime last() const
        {
            return n >= 2 ? first + (n - 1) * stride : first;
        }
    };

    /** Drop samples older than the window start (logically const). */
    void evict(SimTime now) const;

    /** Double the run-ring capacity, linearizing the live runs. */
    void grow();

    SimTime window_;
    mutable std::vector<Run> ring_;  ///< Capacity = ring_.size() (pow2).
    mutable std::size_t head_ = 0;   ///< Index of the oldest run.
    mutable std::size_t runs_ = 0;   ///< Live runs in the ring.
    mutable long count_ = 0;         ///< Live samples across all runs.
    mutable double window_sum_ = 0.0;
};

/**
 * Percentile over an explicit sample vector (nearest-rank on a sorted
 * copy).  `p` in [0, 100].  Returns 0 for an empty vector.
 */
double percentile(std::vector<double> samples, double p);

} // namespace ppm

#endif // PPM_COMMON_STATS_HH
