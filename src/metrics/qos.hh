/**
 * @file
 * QoS accounting for the paper's headline metric: the percentage of
 * time the reference heart-rate range is not met (Figures 4, 6, 7).
 */

#ifndef PPM_METRICS_QOS_HH
#define PPM_METRICS_QOS_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "workload/task.hh"

namespace ppm::metrics {

/**
 * Tracks, per task and for the workload as a whole, the fraction of
 * time the heart rate was below / outside the reference range.
 *
 * The "any task" channel reproduces the paper's definition for
 * Figures 4 and 6: the percentage of time the observed heart rate was
 * smaller than the minimum prescribed heart rate for *any* task in
 * the workload.
 */
class QosTracker
{
  public:
    /** @param num_tasks Number of tasks to track. */
    explicit QosTracker(int num_tasks);

    /**
     * Start tracking one more task (mid-run admission).  The new
     * task's counters begin empty; its pre-admission time never
     * counts against it.
     */
    void add_task()
    {
        below_.emplace_back();
        outside_.emplace_back();
    }

    /**
     * Sample all tasks at time `now` and account `dt` of simulated
     * time to each duty-cycle counter.  `warmup` samples (with
     * now < warmup) are ignored so cold-start HRM windows do not
     * count as misses.  `alive`, when given, masks tasks outside
     * their lifetime window: they accrue no per-task time and do not
     * contribute to the any-task channels.  An interval in which no
     * task is alive accrues no any-task time at all (there is no QoS
     * to meet), so idle gaps never dilute the miss fractions.
     */
    void sample(const std::vector<workload::Task*>& tasks, SimTime now,
                SimTime dt, SimTime warmup = 0,
                const std::vector<bool>* alive = nullptr);

    /**
     * Account `n` consecutive ticks of length `dt` at once, all past
     * the warmup, bit for bit as n sample() calls would: hits[i] holds
     * task i's below/outside bits, bit k for the k-th tick's end (see
     * SpanHits::mark(), which judges a rate exactly as sample()
     * does), and `alive` masks as in sample().  Each counter gets k*dt
     * of true time and (n-k)*dt of false time for its k hits;
     * durations are integers, so the sums equal the n per-tick
     * additions.  n <= SpanHits::kMaxTicks.
     */
    void sample_span(long n, SimTime dt, const SpanHits* hits,
                     const std::vector<bool>* alive = nullptr);

    /** Fraction of time task `t` was below its reference range. */
    double task_below_fraction(TaskId t) const;

    /** Fraction of time task `t` was outside its reference range. */
    double task_outside_fraction(TaskId t) const;

    /** Fraction of time at least one task was below its range. */
    double any_below_fraction() const;

    /** Fraction of time at least one task was outside its range. */
    double any_outside_fraction() const;

    /** below_ and outside_ (one slot per task each) share a count. */
    template <class A>
    void visit(A& a)
    {
        a(below_);
        if constexpr (A::kLoading)
            outside_.resize(below_.size());
        for (DutyCycle& d : outside_)
            a(d);
        a(any_below_, any_outside_);
    }

  private:
    std::vector<DutyCycle> below_;
    std::vector<DutyCycle> outside_;
    DutyCycle any_below_;
    DutyCycle any_outside_;
};

} // namespace ppm::metrics

#endif // PPM_METRICS_QOS_HH
