/**
 * @file
 * HPM baseline: the hierarchical, control-theoretic power manager of
 * Muthukaruppan et al. (DAC'13), reference [25] of the paper.
 *
 * Behavioural model, per the paper's characterization ("multiple PID
 * controllers to meet the demand of tasks under a TDP constraint...
 * naive load balancing and task migration strategy"):
 *  - an inner PI controller per cluster tracks the constrained
 *    core's HRM-derived demand with the cluster's V-F level;
 *  - an outer TDP loop lowers per-cluster level caps when chip power
 *    exceeds the budget and relaxes them when there is headroom;
 *  - load balancing evens task counts within a cluster; migration is
 *    threshold-based and oblivious to the target cluster's state:
 *    a task unsatisfied for several periods on a maxed-out cluster
 *    moves up; a long-satisfied task moves back down when the LITTLE
 *    cluster has utilization headroom.
 */

#ifndef PPM_BASELINES_HPM_GOVERNOR_HH
#define PPM_BASELINES_HPM_GOVERNOR_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault.hh"
#include "metrics/telemetry.hh"
#include "sim/governor.hh"
#include "sim/simulation.hh"

namespace ppm::baselines {

/** A minimal PI(D) controller. */
class Pid
{
  public:
    /** Gains and output saturation. */
    struct Params {
        double kp = 0.0;
        double ki = 0.0;
        double kd = 0.0;
        double out_min = -1.0;
        double out_max = 1.0;
    };

    explicit Pid(Params p) : params_(p) {}

    /** One control step; `dt_s` in seconds. Returns saturated output. */
    double step(double error, double dt_s);

    /** Clear the integrator and derivative memory. */
    void reset();

    /** Snapshot field list: the integrator and derivative memory. */
    template <class A>
    void visit(A& a)
    {
        a(integral_, prev_error_, has_prev_);
    }

  private:
    Params params_;
    double integral_ = 0.0;
    double prev_error_ = 0.0;
    bool has_prev_ = false;
};

/** Configuration of the HPM baseline. */
struct HpmConfig {
    Watts tdp = 1e9;            ///< Power budget.
    SimTime dvfs_period = 32 * kMillisecond;  ///< Inner-loop period.
    SimTime lbt_period = 96 * kMillisecond;   ///< LB/migration period.
    SimTime tdp_period = 64 * kMillisecond;   ///< Outer-loop period.
    Pid::Params freq_pid{0.8, 4.0, 0.0, -2.0, 2.0};  ///< Inner gains.
    int up_migrate_after = 2;   ///< Unsatisfied periods before moving up.
    int down_migrate_after = 6; ///< Satisfied periods before moving down.
    double little_headroom = 0.5;  ///< Max LITTLE util for down-moves.
    Pu demand_clamp = 2400.0;   ///< HRM demand saturation.
};

/** The hierarchical PID power manager. */
class HpmGovernor : public sim::Governor
{
  public:
    explicit HpmGovernor(HpmConfig cfg);

    std::string name() const override { return "HPM"; }
    void init(sim::Simulation& sim) override;
    void tick(sim::Simulation& sim, SimTime now, SimTime dt) override;

    /** Whether the sensor guard currently reports safe mode. */
    bool safe_mode() const { return guard_.safe_mode(); }

    /** HPM acts on the earliest of its three loop timers. */
    SimTime next_wake(SimTime now) const override
    {
        (void)now;
        return std::min(next_dvfs_, std::min(next_tdp_, next_lbt_));
    }

    /** Retarget the outer TDP loop's budget (fleet reallocation). */
    void set_power_budget(Watts w_tdp) override { cfg_.tdp = w_tdp; }

    /** Extend the per-task streak counters for a mid-run admission. */
    void task_admitted(sim::Simulation& sim, TaskId id,
                       double big_speedup) override
    {
        (void)sim;
        (void)id;
        (void)big_speedup;
        demand_scratch_.reserve(unsat_count_.size() + 1);
        unsat_count_.push_back(0);
        sat_count_.push_back(0);
    }

    void save(snap::Writer& w) const override;
    void load(snap::Reader& r) override;

    /**
     * Snapshot field list: retargeted budget, PI integrators,
     * continuous levels, TDP caps, migration streaks, loop timers and
     * sensor guard.
     */
    template <class A>
    void visit(A& a)
    {
        a(cfg_.tdp);  // set_power_budget() retargets it mid-run.
        a.fixed(cluster_pid_, "HPM cluster count");
        a(level_f_, level_cap_, unsat_count_, sat_count_, next_dvfs_,
          next_lbt_, next_tdp_, guard_);
    }

  private:
    /** Inner loop: per-cluster PI on the constrained-core demand. */
    void run_dvfs(sim::Simulation& sim, SimTime dt);

    /** Outer loop: adjust per-cluster level caps against the TDP. */
    void run_tdp(sim::Simulation& sim);

    /** Naive load balancing and threshold migrations. */
    void run_lbt(sim::Simulation& sim, SimTime now);

    /** Demand-proportional nice values per core. */
    void assign_nice(sim::Simulation& sim, SimTime now);

    HpmConfig cfg_;
    ClusterId little_ = kInvalidId;
    ClusterId big_ = kInvalidId;
    std::vector<Pid> cluster_pid_;
    std::vector<double> level_f_;   ///< Continuous level state.
    std::vector<int> level_cap_;    ///< TDP-imposed level caps.
    std::vector<int> unsat_count_;  ///< Per-task unsatisfied streak.
    std::vector<int> sat_count_;    ///< Per-task satisfied streak.
    SimTime next_dvfs_ = 0;
    SimTime next_lbt_ = 0;
    SimTime next_tdp_ = 0;

    /** Sensor fallback + safe-mode tracking (inert on clean runs). */
    fault::SensorGuard guard_;

    /** assign_nice(): one core's demands, with room for every task. */
    std::vector<Pu> demand_scratch_;

    // Reusable epoch event + cached "clusterN_*" keys (built at init;
    // stable c_str() pointers) so tracing adds no per-epoch allocation.
    metrics::EventScratch epoch_event_{"hpm_dvfs_epoch"};
    std::vector<std::string> cluster_keys_;  ///< 4 keys per cluster id.
};

} // namespace ppm::baselines

#endif // PPM_BASELINES_HPM_GOVERNOR_HH
