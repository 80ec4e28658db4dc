/**
 * @file
 * HL baseline: the Linaro heterogeneity-aware big.LITTLE scheduler
 * shipped with the Linux 3.8 Vexpress release, paired with the
 * cpufreq `ondemand` governor (Section 5.3 of the paper).
 *
 * Behavioural model:
 *  - Task "activeness" (time spent in the active run queue, tracked
 *    here by the scheduler's PELT-like load signal) drives
 *    migrations: above the up-threshold a task moves to the big
 *    cluster, below the down-threshold it moves back to LITTLE.
 *    The policy neither consults the target cluster's load nor the
 *    tasks' QoS demands.
 *  - Each cluster runs an independent ondemand governor: jump to the
 *    maximum frequency when utilization exceeds the up-threshold,
 *    otherwise settle at the lowest level that keeps utilization
 *    under it.
 *  - Under a TDP cap (the paper's 4 W experiment), the big cluster is
 *    switched off outright once chip power exceeds the cap, after
 *    evacuating its tasks to LITTLE.
 *
 * At a tick where both decisions ran and neither requested anything
 * (no migration, no level change, no kill), HL grants the engine rest
 * (sim::Simulation::rest_until_change()) on runs without a fault
 * injector and with the telemetry bus disabled: until the chip leaves
 * that steady state, every later wake would decide the same nothing,
 * so the engine may run past them.  tick() and save() catch the
 * timers up over the skipped wakes (catch_up()).
 */

#ifndef PPM_BASELINES_HL_GOVERNOR_HH
#define PPM_BASELINES_HL_GOVERNOR_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault.hh"
#include "metrics/telemetry.hh"
#include "sim/governor.hh"
#include "sim/simulation.hh"

namespace ppm::baselines {

/** Configuration of the HL baseline. */
struct HlConfig {
    /** Task-activeness threshold for LITTLE -> big migration. */
    double up_threshold = 0.80;

    /** Task-activeness threshold for big -> LITTLE migration. */
    double down_threshold = 0.30;

    /** ondemand utilization up-threshold (kernel default is 80%). */
    double ondemand_up = 0.80;

    /** Migration / balancing decision period. */
    SimTime sched_period = 32 * kMillisecond;

    /** ondemand sampling period. */
    SimTime dvfs_period = 64 * kMillisecond;

    /** TDP cap; big cluster is killed when chip power exceeds it. */
    Watts tdp = 1e9;
};

/** The Linaro HL scheduler + ondemand baseline. */
class HlGovernor : public sim::Governor
{
  public:
    explicit HlGovernor(HlConfig cfg);

    std::string name() const override { return "HL"; }
    void init(sim::Simulation& sim) override;
    void tick(sim::Simulation& sim, SimTime now, SimTime dt) override;

    /**
     * HL acts on the earlier of its scheduling and DVFS timers.  After
     * a rest the timers may lie before `now` until the next tick()
     * catches them up.
     */
    SimTime next_wake(SimTime now) const override
    {
        (void)now;
        return next_sched_ < next_dvfs_ ? next_sched_ : next_dvfs_;
    }

    /**
     * HL polls an always-on TDP kill check every tick, so it is only
     * quiescent while that check cannot fire: once the big cluster is
     * gone, or while chip power sits at or under the cap.  Under
     * fault injection the per-tick read goes through the sensor
     * guard, whose state evolves tick by tick, so HL is never
     * quiescent while a sensor fault is active or safe mode holds --
     * forcing per-tick execution there keeps macro-stepping
     * bit-identical.
     *
     * This check reads the power of the last *executed* tick; when a
     * scheduling era flips exactly at the interval boundary the
     * interval itself can run hotter, which quiescent_at_power()
     * (called by the engine with the interval's true power) vetoes.
     */
    bool quiescent(const sim::Simulation& sim) const override;

    /** Veto macro-stepping for intervals running above the TDP cap. */
    bool quiescent_at_power(Watts chip_power) const override
    {
        return big_killed_ || big_ == kInvalidId ||
            chip_power <= cfg_.tdp;
    }

    /**
     * Refresh the sensor guard's last-good cache as the interval's
     * replayed per-tick reads would have: HL reads the guard every
     * tick, and each clean read stores the cluster's instantaneous
     * power.  Without this, the guard enters the next sensor-fault
     * window holding power values from the last *stepped* tick --
     * an older scheduling era -- and the fallback reading (and so
     * the TDP kill decision) diverges from per-tick execution.
     */
    void replay_quiescent(const sim::Simulation& sim,
                          const std::vector<Watts>& cluster_power,
                          long n) override;

    /** Whether the sensor guard currently reports safe mode. */
    bool safe_mode() const { return guard_.safe_mode(); }

    /**
     * Retarget the TDP kill threshold (fleet reallocation).  The
     * big-cluster kill is a latch: a raised budget does not revive a
     * cluster already killed under the old one, mirroring the real
     * HL behaviour of hotplugging big cores out for good.
     */
    void set_power_budget(Watts w_tdp) override { cfg_.tdp = w_tdp; }

    void save(snap::Writer& w) const override;
    void load(snap::Reader& r) override;

    /**
     * Snapshot field list: the retargeted budget, timers, the
     * big-kill latch and the sensor guard.  save() catches the timers
     * up first, so a save inside a rest writes the per-tick values.
     */
    template <class A>
    void visit(A& a)
    {
        a(cfg_.tdp);  // set_power_budget() retargets it mid-run.
        a(next_sched_, next_dvfs_, big_killed_, guard_);
    }

  private:
    /**
     * Activeness-threshold migrations plus intra-cluster balancing.
     * @return whether it requested a migration.
     */
    bool schedule(sim::Simulation& sim, SimTime now);

    /**
     * Per-cluster ondemand frequency selection.
     * @return whether it requested a level other than the current one.
     */
    bool run_ondemand(sim::Simulation& sim);

    /**
     * Apply the per-tick timer recurrence for every wake that fell on
     * a tick before `now` (ticks sit at now - k*dt): each woke at the
     * first tick at or after its timer and re-armed it one period
     * later.  A no-op unless a rest skipped those ticks.
     */
    void catch_up(SimTime now, SimTime dt) const;

    /** Kill the big cluster after evacuating it (TDP emergency). */
    void kill_big_cluster(sim::Simulation& sim, SimTime now);

    HlConfig cfg_;
    ClusterId little_ = kInvalidId;
    ClusterId big_ = kInvalidId;
    const sim::Simulation* sim_ = nullptr;  ///< Kept from init() for save().
    // Mutable: the const save() catches them up (catch_up()).
    mutable SimTime next_sched_ = 0;
    mutable SimTime next_dvfs_ = 0;
    bool big_killed_ = false;

    /** Sensor fallback + safe-mode tracking (inert on clean runs). */
    fault::SensorGuard guard_;
    std::vector<Watts> replay_good_;  ///< replay_quiescent scratch.

    // Reusable epoch event + cached "clusterN_*" keys (built at init;
    // stable c_str() pointers) so tracing adds no per-epoch allocation.
    metrics::EventScratch epoch_event_{"hl_dvfs_epoch"};
    std::vector<std::string> cluster_keys_;  ///< 2 keys per cluster id.
};

} // namespace ppm::baselines

#endif // PPM_BASELINES_HL_GOVERNOR_HH
