/**
 * @file
 * Online cross-core-type demand estimation.
 *
 * The paper obtains each task's average demand per core type from
 * off-line profiling and names its elimination as future work (via
 * the power-performance prediction model of Pricopi et al. [27]).
 * This module provides that elimination: it learns, per task and per
 * core class, the task's cost in PU-seconds per heartbeat from the
 * (supply, heart-rate) observations the Heart Rate Monitor already
 * produces, and derives the big-core speedup from the ratio.
 *
 * cost_class = supply / heart_rate  [PU-s per heartbeat]
 * speedup    = cost_little / cost_big
 *
 * Estimates are EWMA-smoothed, gated on a minimum number of samples
 * per class, and fall back to a configurable default until the task
 * has actually been observed on both classes.
 */

#ifndef PPM_MARKET_ONLINE_ESTIMATOR_HH
#define PPM_MARKET_ONLINE_ESTIMATOR_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "hw/platform.hh"

namespace ppm::market {

/** Learns per-task big-core speedups from live HRM observations. */
class OnlineSpeedupEstimator
{
  public:
    /** Tuning knobs. */
    struct Params {
        double default_speedup = 1.6;  ///< Until both classes seen.
        double ewma_alpha = 0.05;      ///< Smoothing per observation.
        int min_samples = 10;          ///< Samples before trusting.
        double min_heart_rate = 0.5;   ///< Ignore starved windows.
        double min_speedup = 1.0;      ///< Physical lower bound.
        double max_speedup = 4.0;      ///< Physical upper bound.
    };

    /** Construct for `num_tasks` tasks with default tuning. */
    explicit OnlineSpeedupEstimator(int num_tasks);

    /** Construct for `num_tasks` tasks with explicit tuning. */
    OnlineSpeedupEstimator(int num_tasks, Params p);

    /**
     * Extend the task table to `num_tasks` entries (no-op when it is
     * already that large).  Mid-run admissions -- evacuated tasks
     * landing from a failed chip, dynamic arrivals -- enter with zero
     * samples and therefore use the population fallback until they
     * have been observed on both classes, exactly like an unseen
     * task present from init.
     */
    void grow(int num_tasks);

    /**
     * Record one observation window for task `t`: it ran on class
     * `cls` receiving `supply` PU while emitting `heart_rate` hb/s.
     * Windows with negligible rate or supply are discarded.
     */
    void observe(TaskId t, hw::CoreClass cls, Pu supply,
                 double heart_rate);

    /**
     * Current speedup estimate for task `t` (cost ratio LITTLE/big).
     * Falls back to the mean speedup of converged peer tasks when
     * task `t` itself has not visited both classes, and to the
     * configured default when no task has converged yet.
     */
    double speedup(TaskId t) const;

    /** Mean speedup across converged tasks (default if none). */
    double population_speedup() const;

    /** True once the estimate no longer uses the fallback default. */
    bool converged(TaskId t) const;

    /** Samples observed for task `t` on class `cls`. */
    int samples(TaskId t, hw::CoreClass cls) const;

    /** Learned cost on class `cls` in PU-seconds/hb (0 if unseen). */
    double cost(TaskId t, hw::CoreClass cls) const;

    /** Snapshot field list: the learned per-task, per-class EWMAs. */
    template <class A>
    void visit(A& a)
    {
        a.fixed(tasks_, "online estimator task count");
    }

  private:
    struct PerClass {
        double cost_ewma = 0.0;  ///< PU-seconds per heartbeat.
        int samples = 0;

        template <class A>
        void visit(A& a)
        {
            a(cost_ewma, samples);
        }
    };
    struct PerTask {
        std::array<PerClass, 2> cls;  ///< [kLittle, kBig].

        template <class A>
        void visit(A& a)
        {
            a(cls[0], cls[1]);
        }
    };

    static std::size_t index(hw::CoreClass cls)
    {
        return cls == hw::CoreClass::kBig ? 1u : 0u;
    }

    const PerTask& entry(TaskId t) const;
    PerTask& entry(TaskId t);

    Params params_;
    std::vector<PerTask> tasks_;
};

} // namespace ppm::market

#endif // PPM_MARKET_ONLINE_ESTIMATOR_HH
