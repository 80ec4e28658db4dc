/**
 * @file
 * Heart Rate Monitor (HRM) infrastructure, after Hoffmann et al.'s
 * Application Heartbeats, as used by the paper to express QoS.
 *
 * A task emits (fractional) heartbeats as it retires work; the monitor
 * measures heartbeats per second over a sliding window, compares the
 * rate against a user-specified [min, max] reference range, and
 * converts the observation into a demand in Processing Units using the
 * paper's Table 4 rule:
 *
 *     d_t = target_hr * s_t / current_hr,
 *
 * where s_t is the supply (PU) the task actually received and
 * target_hr is the midpoint of the reference range.
 */

#ifndef PPM_WORKLOAD_HRM_HH
#define PPM_WORKLOAD_HRM_HH

#include "common/stats.hh"
#include "common/types.hh"

namespace ppm::workload {

/** Per-task heart-rate monitor and demand estimator. */
class HeartRateMonitor
{
  public:
    /**
     * @param min_hr Lower edge of the reference heart-rate range (hb/s).
     * @param max_hr Upper edge of the reference range.
     * @param window Sliding measurement window (default 1 s).
     *
     * A (0, 0) range means "no reference range": the task free-runs,
     * is never below/outside range, and demands nothing.
     */
    HeartRateMonitor(double min_hr, double max_hr,
                     SimTime window = kSecond);

    /** Record `beats` heartbeats and `supplied` PU-seconds at `now`. */
    void record(SimTime now, double beats, double supplied_pu_seconds);

    /**
     * `n` record() calls at t0, t0 + dt, ..., t0 + (n-1)*dt with the
     * same values, bit for bit (WindowRate::add_span).  When `hits` is
     * not null, bit k of its masks is set by heart_rate(t0 + k*dt), as
     * it reads right after the k-th sample, judged against band().
     * @return the window samples replayed one by one (both windows).
     */
    long record_span(SimTime t0, SimTime dt, long n, double beats,
                     double supplied_pu_seconds, SpanHits* hits);

    /** Measured heart rate (hb/s) over the window ending at `now`. */
    double heart_rate(SimTime now) const;

    /** Average supply (PU) received over the window ending at `now`. */
    Pu supply(SimTime now) const;

    /** Reference range lower edge. */
    double min_hr() const { return min_hr_; }

    /** Reference range upper edge. */
    double max_hr() const { return max_hr_; }

    /** True when a reference range was set (min > 0). */
    bool has_range() const { return min_hr_ > 0.0; }

    /** Target heart rate: midpoint of the range (0 with no range). */
    double target_hr() const { return 0.5 * (min_hr_ + max_hr_); }

    /** The reference range as a band on the heart rate. */
    RateBand band() const { return {min_hr_, max_hr_, has_range()}; }

    /** True if the measured rate at `now` is below the range. */
    bool below_range(SimTime now) const;

    /** True if the measured rate at `now` is outside the range. */
    bool outside_range(SimTime now) const;

    /**
     * Demand estimate (PU) from the Table 4 conversion rule, clamped
     * to [0, clamp].  With no heartbeats observed yet (cold start or a
     * fully starved task) the estimate saturates at `clamp`.
     */
    Pu estimate_demand(SimTime now, Pu clamp) const;

    /**
     * True when both windows are in the uniform steady state for a
     * `dt` sampling period ending at `now` with per-sample values
     * (`beats`, `supplied`): further per-tick record() calls with
     * those values would leave the measured heart rate and supply
     * bit-identical (see WindowRate::replay_steady).
     */
    bool replay_steady(SimTime now, SimTime dt, double beats,
                       double supplied_pu_seconds) const;

    /**
     * Fast-forward both steady windows by `shift` of simulated time
     * (caller must have established replay_steady()).
     */
    void advance_steady(SimTime shift);

    template <class A>
    void visit(A& a)
    {
        a(beats_, supply_);
    }

  private:
    double min_hr_;
    double max_hr_;
    WindowRate beats_;
    WindowRate supply_;
};

} // namespace ppm::workload

#endif // PPM_WORKLOAD_HRM_HH
