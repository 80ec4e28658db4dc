/**
 * @file
 * Abstract power-management governor interface.
 *
 * A governor is the decision-making layer above the platform: every
 * simulation tick it may read sensors and scheduler state, and
 * actuate the three knobs the paper coordinates -- cluster V-F
 * levels, task placement (load balancing / migration), and per-task
 * nice values.  PPM, HPM and HL are all implementations.
 */

#ifndef PPM_SIM_GOVERNOR_HH
#define PPM_SIM_GOVERNOR_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace ppm::snap {
class Writer;
class Reader;
} // namespace ppm::snap

namespace ppm::sim {

class Simulation;

/**
 * Cumulative incremental-clearing counters: what a market keeps across
 * its rounds and what a governor exposes for the run summary.  Slots
 * count ledger entries considered per round (skipped + redone), so
 * skip rates are skipped/slots; a skip rate near zero on a steady
 * workload means the active set is silently degraded -- every entry
 * always dirty -- which is a bug worth seeing, not just slowness.
 */
struct ClearingStats {
    long rounds = 0;            ///< Clearing rounds completed.
    long task_slots = 0;        ///< Task entries considered, total.
    long tasks_skipped = 0;     ///< ...of which replayed memoized bits.
    long core_slots = 0;        ///< Core fold slots considered, total.
    long cores_skipped = 0;     ///< ...of which reused their folds.
    long rounds_early_exit = 0; ///< Rounds whose active set was empty.

    /** Snapshot field list. */
    template <class A>
    void visit(A& a)
    {
        a(rounds, task_slots, tasks_skipped, core_slots, cores_skipped,
          rounds_early_exit);
    }
};

/**
 * Typed admission-control verdict.  kNone means "admit"; a rejection
 * is counted on the telemetry bus and leaves a fleet's floating task
 * to retry at the next barrier.
 */
enum class AdmitReject {
    kNone = 0,       ///< Admitted.
    kEmergency,      ///< Local market over budget (emergency state).
};

/** Base class for power-management policies. */
class Governor
{
  public:
    virtual ~Governor() = default;

    /** Human-readable policy name ("PPM", "HPM", "HL"). */
    virtual std::string name() const = 0;

    /** Called once before the first tick, after tasks are placed. */
    virtual void init(Simulation& sim) = 0;

    /**
     * Called every simulation tick *before* the scheduler runs.
     * Implementations keep their own invocation periods internally.
     */
    virtual void tick(Simulation& sim, SimTime now, SimTime dt) = 0;

    /**
     * Earliest time at or after `now` at which tick() might act.
     * The macro-stepping engine skips governor polling strictly
     * before this time.  The conservative default -- wake every tick
     * -- keeps governors that poll unconditionally exact; periodic
     * governors override it with their next epoch edge.  While a
     * rest grant holds (Simulation::rest_until_change()) the engine
     * also skips polling past this time, so until its next tick()
     * catches its timers up a governor may report a time before `now`.
     */
    virtual SimTime next_wake(SimTime now) const { return now; }

    /**
     * True when the governor's tick() is a pure no-op between wake
     * times, i.e. it has no per-tick side conditions (such as an
     * always-on TDP kill check) that could fire mid-interval.  Only
     * quiescent governors are eligible for macro-stepping across an
     * interval; the default is true because a governor honouring
     * next_wake() has, by contract, nothing to do before it.
     * Overriders may consult live simulation state.
     */
    virtual bool quiescent(const Simulation& sim) const
    {
        (void)sim;
        return true;
    }

    /**
     * Re-confirm quiescence against the chip power the upcoming
     * macro-stepped interval will actually run at.  quiescent() is
     * evaluated before the interval's water-fill, so it can only see
     * the power of the last *executed* tick -- but when a scheduling
     * era ends exactly at the interval boundary (a task unblocking
     * from migration, a phase crossing), the interval's power differs
     * from that reading, and a per-tick side condition keyed on power
     * (HL's TDP kill) could fire on the first replayed tick.  The
     * engine calls this with the interval's true power and falls back
     * to per-tick execution on a veto.  Default: no power-keyed side
     * conditions, always quiescent.
     */
    virtual bool quiescent_at_power(Watts chip_power) const
    {
        (void)chip_power;
        return true;
    }

    /**
     * Replay the governor's per-tick *observations* over a quiescent
     * interval the engine is about to macro-step.  A governor that
     * reads sensors on every tick (not just at its wake epochs)
     * accumulates observation state -- e.g. the sensor guard's
     * last-good cache -- that per-tick execution would refresh on
     * each of the `n` replayed ticks; skipping those reads leaves it
     * holding values from an older era, and the next fault window
     * would fall back to a different last-good than the per-tick run.
     * Called after quiescent()/quiescent_at_power() have approved the
     * interval and before the sensor state advances, with the
     * interval's per-cluster watts (the reading every replayed tick
     * leaves in the sensors).  Implementations must reproduce the
     * per-tick end state bit-exactly.  Default: epoch-gated governors
     * observe nothing between wakes.
     */
    virtual void replay_quiescent(const Simulation& sim,
                                  const std::vector<Watts>& cluster_power,
                                  long n)
    {
        (void)sim;
        (void)cluster_power;
        (void)n;
    }

    /**
     * Retarget the governor's chip-level power budget (TDP) mid-run.
     * The fleet supervisor calls this at epoch barriers after
     * reallocating the fleet budget across chips; the governor clears
     * (or kills, for baselines) against the new cap from the next
     * wake onwards.  Default: the governor has no budget knob.
     */
    virtual void set_power_budget(Watts w_tdp) { (void)w_tdp; }

    /**
     * The chip's current unmet power demand in price units -- the
     * marginal-utility signal a chip reports to the fleet supervisor
     * (PPM forwards its clearing deficit; budgetless baselines report
     * zero).  Must be a pure observation of the last completed
     * control round.
     */
    virtual double power_deficit() const { return 0.0; }

    /**
     * Notify the governor that `sim` admitted a new task mid-run
     * (cross-chip placement at a fleet admission epoch).  Called
     * after the scheduler and QoS layers registered the task, with
     * its dense id and big-cluster speedup.  Governors holding
     * per-task state must extend it; the default is for governors
     * that discover tasks through the scheduler each epoch.
     */
    virtual void task_admitted(Simulation& sim, TaskId id,
                               double big_speedup)
    {
        (void)sim;
        (void)id;
        (void)big_speedup;
    }

    /**
     * Cumulative incremental-clearing counters (skip rates for the
     * run summary).  Governors without a market report all-zero.
     */
    virtual ClearingStats clearing_stats() const { return {}; }

    /**
     * Admission-control check consulted by Simulation::try_admit_task
     * before a mid-run admission: can this governor's economy absorb
     * another task right now?  A market governor rejects while its
     * chip sits in the emergency state (the market cannot clear the
     * load it already has within the power budget).  Budgetless
     * governors admit unconditionally.
     */
    virtual AdmitReject admission_check() const
    {
        return AdmitReject::kNone;
    }

    /**
     * Serialize the governor's dynamic state into a snapshot.  Called
     * between ticks; paired with load() in a fresh process whose
     * governor was constructed from the same config and has had
     * init() plus all mid-run task_admitted() calls replayed (so
     * every container already has its final size).  The default is a
     * no-op for stateless governors and test mocks; the shipped
     * governors forward both directions to one visit() field list
     * (see snapshot/archive.hh).
     */
    virtual void save(snap::Writer& w) const { (void)w; }

    /** Restore the state written by save() (see its contract). */
    virtual void load(snap::Reader& r) { (void)r; }
};

} // namespace ppm::sim

#endif // PPM_SIM_GOVERNOR_HH
