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

// A positive normal double x with biased exponent E is X * ulp with
// ulp = 2^(E - 1075) and X = 2^52 + mantissa, an integer in
// [2^52, 2^53).  Scaled values from kLowest to kHighest keep one ulp
// of margin from both binade edges.
constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
constexpr std::int64_t kHidden = std::int64_t{1} << 52;
constexpr std::int64_t kLowest = kHidden + 1;
constexpr std::int64_t kHighest = 2 * kHidden - 1;

/**
 * v / ulp rounded to the nearest integer, for the ulp of the binade
 * with biased exponent `exponent` (at least 52, so that 1 / ulp is a
 * normal double).  False when v / ulp is not finite, lies exactly
 * halfway between two integers (a tie: the rounded step would then
 * depend on the running value's parity), or reaches 2^53 in magnitude
 * (such a step leaves the binade anyway).
 */
bool
round_to_ulps(double v, int exponent, std::int64_t* out)
{
    // Scaling by a power of two is exact unless the product
    // underflows, and a product that small is far below 1/2: it
    // rounds to 0 either way, with no tie.
    const double scaled = v *
        std::bit_cast<double>(static_cast<std::uint64_t>(2098 - exponent)
                              << 52);
    if (!(std::abs(scaled) < 0x1p53))
        return false;
    const auto whole = static_cast<std::int64_t>(scaled);  // Toward 0.
    const double frac = scaled - static_cast<double>(whole);  // Exact.
    if (frac == 0.5 || frac == -0.5)
        return false;
    *out = whole + (frac > 0.5) - (frac < -0.5);
    return true;
}

/**
 * Terms p, p + d, p + 2d, ... (at most n >= 1) inside
 * [kLowest, kHighest].  The terms are monotone, so all n fit when the
 * last one does.  That check multiplies only while (n - 1) * d stays
 * far below 2^63 (|d| < 2^54); beyond that, or when the last term
 * falls outside, the room divided by the slope counts the terms, so n
 * may be far larger than the binade holds and n * d is never formed.
 */
long
terms_in_range(std::int64_t p, std::int64_t d, long n)
{
    if (p < kLowest || p > kHighest)
        return 0;
    if (n <= 256) {
        const std::int64_t last = p + (n - 1) * d;
        if (last >= kLowest && last <= kHighest)
            return n;
    }
    if (d == 0)
        return n;
    const std::int64_t room =
        d > 0 ? (kHighest - p) / d : (p - kLowest) / -d;
    return static_cast<long>(std::min<std::int64_t>(n, room + 1));
}

/**
 * The longest stretch, at most n steps, of x = (x - minus) + plus from
 * x that one exact closed form covers: after step k (0 <= k <= steps())
 * x is at(k).
 *
 * With A = minus / ulp and C = plus / ulp (exact: ulp is a power of
 * two), neither a tie, DA = round(A) and DC = round(C), step k takes
 * Y_k = X_{k-1} - DA and X_k = Y_k + DC.  While both lie in
 * [kLowest, kHighest] the exact value of each operation is within 1/2
 * of them, strictly, on a grid of spacing ulp, so round-to-nearest
 * returns exactly Y_k * ulp and X_k * ulp.  Both sequences are
 * arithmetic progressions with slope D = DC - DA, so their first terms
 * and the slope bound the stretch, and inside one binade the bit
 * pattern of X * ulp is the bit pattern of x plus (X - X_0): at(k) is
 * bits(x) + k * D.  Where that form refuses (x not a positive normal
 * of at least 2^-971, a tie, a first step past the margins) a step
 * that returns x itself is a fixed point, covered with D = 0.
 */
class AdditiveRun
{
  public:
    AdditiveRun(double x, double minus, double plus, long n)
        : bits_(std::bit_cast<std::uint64_t>(x))
    {
        // The sign bit lands above 0x7ff, so negative x is refused
        // too, and so are x below 2^-971 (whose 1 / ulp overflows).
        const auto e = static_cast<int>(bits_ >> 52);
        std::int64_t da = 0;
        std::int64_t dc = 0;
        if (e >= 52 && e < 0x7ff && round_to_ulps(minus, e, &da) &&
            round_to_ulps(plus, e, &dc)) {
            const std::int64_t x0 =
                static_cast<std::int64_t>(bits_ & kMantissa) | kHidden;
            slope_ = dc - da;
            steps_ = std::min(terms_in_range(x0 - da, slope_, n),
                              terms_in_range(x0 + slope_, slope_, n));
        }
        if (steps_ == 0 && n > 0 && bit_equal((x - minus) + plus, x)) {
            slope_ = 0;
            steps_ = n;
        }
    }

    long steps() const { return steps_; }

    /** x after step k of the stretch, 0 <= k <= steps(). */
    double at(long k) const
    {
        return std::bit_cast<double>(
            bits_ + static_cast<std::uint64_t>(k * slope_));
    }

  private:
    std::uint64_t bits_;
    std::int64_t slope_ = 0;  ///< Ulps per step.
    long steps_ = 0;
};

/**
 * n steps of x = (x - minus) + plus: AdditiveRun stretches where they
 * apply, plain steps elsewhere.  on_run(i, run) sees each stretch,
 * whose step k is overall step i + k - 1 (0-based); on_step(i, x) sees
 * plain step i and its result.  After a refusal the closed form is
 * retried after 1, 2, 4, ... plain steps, so a stretch that merely
 * crossed a binade edge resumes at once while a lasting refusal (a
 * tie) costs O(log n) tries.  Returns x after the n steps and adds the
 * plain steps to `iterated`.
 */
template <class OnRun, class OnStep>
double
repeat_additive(double x, double minus, double plus, long n,
                long& iterated, OnRun on_run, OnStep on_step)
{
    long burst = 1;
    for (long done = 0; done < n;) {
        const AdditiveRun run(x, minus, plus, n - done);
        if (run.steps() > 0) {
            on_run(done, run);
            x = run.at(run.steps());
            done += run.steps();
            burst = 1;
            continue;
        }
        const long end = std::min(n, done + burst);
        iterated += end - done;
        for (; done < end; ++done) {
            x = (x - minus) + plus;
            on_step(done, x);
        }
        burst = std::min(2 * burst, n);
    }
    return x;
}

/** Bits first .. first + count - 1 of a span mask. */
std::uint64_t
bit_span(long first, long count)
{
    if (count <= 0)
        return 0;
    const std::uint64_t ones = count >= 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << count) - 1;
    return ones << first;
}

/**
 * The steps of `run` whose rate (value / width) satisfies `pred`, as
 * mask bits from `first` (step k at bit first + k - 1).  The values are
 * monotone in k, and so are their rates (division by a positive width
 * is monotone), so a threshold predicate holds on a prefix or a suffix
 * of the steps: read both ends and binary-search the one flip.
 */
template <class Pred>
std::uint64_t
run_hits(const AdditiveRun& run, double width, long first, Pred pred)
{
    const long s = run.steps();
    const bool head = pred(run.at(1) / width);
    if (pred(run.at(s) / width) == head)
        return head ? bit_span(first, s) : 0;
    long lo = 1;  // Last step known to read `head`.
    long hi = s;  // First step known to read !head.
    while (hi - lo > 1) {
        const long mid = lo + (hi - lo) / 2;
        (pred(run.at(mid) / width) == head ? lo : hi) = mid;
    }
    return head ? bit_span(first, lo) : bit_span(first + hi - 1, s - hi + 1);
}

/** SpanHits::mark() for every step of `run`, from bit `first`. */
void
mark_run(const RateBand& band, const AdditiveRun& run, double width,
         long first, SpanHits& hits)
{
    const std::uint64_t below = run_hits(
        run, width, first, [&band](double r) { return band.below(r); });
    hits.below |= below;
    if (band.ranged)
        hits.outside |= below | run_hits(run, width, first,
                                         [&band](double r) {
                                             return r > band.hi;
                                         });
}

} // namespace

double
add_repeated(double x, double minus, double plus, long n)
{
    long iterated = 0;
    return repeat_additive(x, minus, plus, n, iterated,
                           [](long, const AdditiveRun&) {},
                           [](long, double) {});
}

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

long
WindowRate::add_span(SimTime t0, SimTime dt, long n, double count,
                     SpanHits* hits, RateBand band)
{
    PPM_ASSERT(dt > 0 && n >= 0, "span needs dt > 0 and n >= 0");
    PPM_ASSERT(hits == nullptr || n <= SpanHits::kMaxTicks,
               "span longer than SpanHits::kMaxTicks");
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
        if (hits != nullptr)
            hits->mark(band, k, window_sum_ / width);
    }
    long iterated = k;
    if (k == n)
        return iterated;
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
    // `len` ticks from tick k that each evict the same `minus` (0, or
    // one sample's count) and add `count`: one additive recurrence.
    const auto piece = [&](double minus, long len) {
        sum = repeat_additive(
            sum, minus, count, len, iterated,
            [&](long i, const AdditiveRun& run) {
                if (hits != nullptr)
                    mark_run(band, run, width, k + i, *hits);
            },
            [&](long i, double s) {
                if (hits != nullptr)
                    hits->mark(band, k + i, s / width);
            });
        back.n += len;
        k += len;
    };
    while (k < n) {
        const SimTime start = t0 + k * dt - window;
        Run& r = ring[head];
        if (r.first > start) {
            // Nothing ages out before the start reaches r.first.
            const long len =
                std::min(n - k, (r.first - start + dt - 1) / dt);
            live += len;
            piece(0.0, len);
            continue;
        }
        if (r.first == start && (r.n == 1 || r.stride == dt)) {
            // Each tick ages out exactly the next sample of r.  The
            // newest run (runs == 1) gains a sample per tick and never
            // runs dry; an older one empties after r.n ticks, unless
            // the next run's first sample shares r's last timestamp
            // and would age out on that same tick.
            long len = n - k;
            if (runs > 1) {
                const Run& next = ring[(head + 1) & mask];
                len = std::min(len, next.first == r.last() ? r.n - 1 : r.n);
            }
            if (len > 0) {
                const double minus = r.count;
                if (runs > 1 && len == r.n) {
                    head = (head + 1) & mask;
                    --runs;
                } else {
                    r.first += len * dt;
                    r.n -= len;
                }
                piece(minus, len);
                continue;
            }
        }
        // An irregular tick: evict()'s walk, one subtraction per
        // evicted sample, oldest first.
        for (;;) {
            Run& old = ring[head];
            if (old.first > start)
                break;
            long aged = 1;
            if (old.n >= 2 && old.first + old.stride <= start)
                aged = std::min<long>(old.n,
                                      (start - old.first) / old.stride + 1);
            for (long i = 0; i < aged; ++i)
                sum -= old.count;
            live -= aged;
            if (aged < old.n) {
                old.first += aged * old.stride;
                old.n -= aged;
                break;
            }
            head = (head + 1) & mask;
            --runs;
        }
        ++back.n;
        ++live;
        sum += count;
        if (hits != nullptr)
            hits->mark(band, k, sum / width);
        ++k;
        ++iterated;
    }
    head_ = head;
    runs_ = runs;
    count_ = live;
    window_sum_ = sum;
    return iterated;
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
