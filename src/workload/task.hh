/**
 * @file
 * Task model.
 *
 * A task is a greedy CPU consumer with phase-structured computational
 * cost: in each phase it needs a given number of cycles per heartbeat,
 * different for LITTLE and big cores (the per-core-type demand of
 * Section 2 of the paper).  Its QoS goal is a reference heart-rate
 * range enforced externally by the power manager -- the task itself
 * never throttles unless an optional self-pacing rate cap is set.
 */

#ifndef PPM_WORKLOAD_TASK_HH
#define PPM_WORKLOAD_TASK_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "hw/platform.hh"
#include "workload/hrm.hh"

namespace ppm::workload {

/** One phase of a task's execution, delimited by wall-clock time. */
struct Phase {
    SimTime duration;        ///< Phase length in simulated time.
    Cycles work_per_hb_little; ///< Cycles per heartbeat on a LITTLE core.
    Cycles work_per_hb_big;    ///< Cycles per heartbeat on a big core.

    template <class A>
    void visit(A& a)
    {
        a(duration, work_per_hb_little, work_per_hb_big);
    }
};

/** Static description used to instantiate a Task. */
struct TaskSpec {
    std::string name;        ///< e.g. "swaptions_native".
    int priority = 1;        ///< User priority r_t (>= 1, higher = better).
    double min_hr = 0.0;     ///< Reference range lower edge (hb/s).
    double max_hr = 0.0;     ///< Reference range upper edge (hb/s).
    std::vector<Phase> phases; ///< Phase sequence (looped when exhausted).
    double self_pace_hr = 0.0; ///< If > 0, task sleeps above this rate.

    /** Full spec (the mid-run admission log and fleet rosters). */
    template <class A>
    void visit(A& a)
    {
        a(name, priority, min_hr, max_hr, phases, self_pace_hr);
    }
};

/**
 * Convenience builder: a single-phase task whose demand on a LITTLE
 * core is exactly `demand_little` PU at the target heart rate
 * (midpoint of a +/-5% reference range).
 *
 * @param name         Task name.
 * @param priority     User priority r_t (>= 1).
 * @param demand_little Demand on a LITTLE core in PU.
 * @param big_speedup  LITTLE/big cycles-per-heartbeat ratio.
 * @param target_hr    Target heart rate in hb/s.
 * @param self_pace_hr Optional self-pacing rate (0 = greedy).
 */
TaskSpec steady_task_spec(const std::string& name, int priority,
                          Pu demand_little, double big_speedup = 1.6,
                          double target_hr = 20.0,
                          double self_pace_hr = 0.0);

/**
 * Runtime task instance.
 *
 * The scheduler grants the task cycles each tick via advance(); the
 * task converts them to heartbeats at the current phase's cost on the
 * granting core's type, and feeds its HeartRateMonitor.
 */
class Task
{
  public:
    /** @param id Global task id.  @param spec Static description. */
    Task(TaskId id, TaskSpec spec);

    TaskId id() const { return id_; }
    const std::string& name() const { return spec_.name; }
    int priority() const { return spec_.priority; }
    const TaskSpec& spec() const { return spec_; }

    /** The task's heart-rate monitor (QoS reference and measurements). */
    const HeartRateMonitor& hrm() const { return hrm_; }

    /**
     * Consume `granted` cycles over tick [now, now+dt) on a core of
     * class `cls`, and advance phase time by dt.  Also records the HRM
     * sample for this tick.
     */
    void advance(SimTime now, SimTime dt, Cycles granted,
                 hw::CoreClass cls);

    /**
     * Replay path of advance(): identical effect, but `beats` and
     * `supplied_pu_seconds` are the caller's cached per-tick values
     * (granted / work_per_hb and granted / kCyclesPerPuSecond,
     * hoisted out of a quiescent interval where they are constant).
     */
    void replay_advance(SimTime now, SimTime dt, double beats,
                        double supplied_pu_seconds);

    /**
     * `n` replay_advance() calls over [now, now + n*dt) at once, bit
     * for bit: both HRM windows advance through
     * HeartRateMonitor::record_span, and the phase clock moves by
     * n*dt.  When `hits` is not null, bit k of its masks is set by
     * heart_rate(now + (k+1)*dt), the rate at the k-th tick's end,
     * against the HRM's band.  The caller keeps phase edges out of the
     * span, as for replay_bulk().
     * @return the HRM window samples replayed one by one.
     */
    long replay_span(long n, SimTime now, SimTime dt, double beats,
                     double supplied_pu_seconds, SpanHits* hits);

    /**
     * True when further replay_advance() calls with these cached
     * values would leave the task's observable floating-point state
     * (heart rate, supply) reproducible by replay_bulk(): both HRM
     * windows are at their uniform steady-state fixed point.
     */
    bool replay_steady(SimTime now, SimTime dt, double beats,
                       double supplied_pu_seconds) const;

    /**
     * `n` replay_advance() calls at the steady state, bit for bit: the
     * steady HRM windows shift in O(1) and the phase clock advances in
     * closed form.  Caller must have established replay_steady().
     */
    void replay_bulk(long n, SimTime dt);

    /** Time left in the current phase. */
    SimTime phase_remaining() const;

    /** Number of phases in the spec. */
    int num_phases() const
    {
        return static_cast<int>(spec_.phases.size());
    }

    /**
     * Cycles the task would consume this tick if given the chance:
     * unbounded for greedy tasks, paced for self-throttling ones.
     * `dt` is the tick length, `cls` the class of its current core.
     */
    Cycles desired_cycles(SimTime dt, hw::CoreClass cls) const;

    /** Cycles per heartbeat on class `cls` in the current phase. */
    Cycles work_per_hb(hw::CoreClass cls) const;

    /**
     * Ground-truth demand in PU on class `cls`: the supply needed to
     * sustain the target heart rate in the current phase.
     */
    Pu true_demand(hw::CoreClass cls) const;

    /** Measured heart rate at `now` (hb/s over the HRM window). */
    double heart_rate(SimTime now) const { return hrm_.heart_rate(now); }

    /** Index of the current phase. */
    int phase_index() const { return phase_idx_; }

    /** Dynamic state only (phase clock, HRM windows). */
    template <class A>
    void visit(A& a)
    {
        a(hrm_, phase_idx_, time_in_phase_);
    }

  private:
    /** Advance phase-relative time, looping over the phase list. */
    void advance_phase_clock(SimTime dt);

    const Phase& current_phase() const;

    TaskId id_;
    TaskSpec spec_;
    HeartRateMonitor hrm_;
    int phase_idx_ = 0;
    SimTime time_in_phase_ = 0;
};

} // namespace ppm::workload

#endif // PPM_WORKLOAD_TASK_HH
