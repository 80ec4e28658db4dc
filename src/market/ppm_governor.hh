/**
 * @file
 * PPM: the paper's price-theory power-management governor.
 *
 * Binds the Market (supply-demand module) and the LbtModule to a live
 * Simulation: every bid round it feeds HRM-derived demands and sensor
 * power readings into the market, lets the market run one round
 * (which performs DVFS), and enacts the purchased supplies as task
 * nice values; at the paper's lower rates it invokes load balancing
 * (every 3 bid rounds) and task migration (every 6), enacted through
 * the scheduler's affinity interface.
 */

#ifndef PPM_MARKET_PPM_GOVERNOR_HH
#define PPM_MARKET_PPM_GOVERNOR_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "market/lbt.hh"
#include "market/market.hh"
#include "market/online_estimator.hh"
#include "metrics/telemetry.hh"
#include "sim/governor.hh"
#include "sim/simulation.hh"

namespace ppm::market {

/** Configuration of the PPM governor. */
struct PpmGovernorConfig {
    PpmConfig market;  ///< Market mechanism parameters (incl. TDP).

    /**
     * Bid-round period.  The default 32 ms approximates the paper's
     * 31.7 ms at the millisecond simulation tick; set to 0 to derive
     * the paper's rule automatically at init:
     * max(Linux scheduling epoch, shortest task period), where a
     * task's period is 1/target-heart-rate rounded up to the tick.
     */
    SimTime bid_period = 32 * kMillisecond;

    /** Load balancing every this many bid rounds (paper: 3). */
    int lb_every_bids = 3;

    /** Task migration every this many load balances (paper: 2). */
    int mig_every_lbs = 2;

    /** Master switch for the LBT module. */
    bool enable_lbt = true;

    /** Power-gate clusters that host no tasks. */
    bool power_gate_idle = true;

    /**
     * Per-task big-core speedup used for cross-core-type demand
     * estimation (the paper's offline profiles).  Indexed by task id;
     * missing entries default to kDefaultSpeedup.
     */
    std::vector<double> big_speedup;

    /** Fallback cross-type speedup when no profile is given. */
    static constexpr double kDefaultSpeedup = 1.6;

    /**
     * Learn speedups online from HRM observations instead of the
     * offline profiles (the paper's stated future work, replacing
     * its off-line profiling step).  When enabled, `big_speedup`
     * entries only seed the estimator's fallback.
     */
    bool online_speedup = false;

    /** Tuning of the online estimator (used when enabled). */
    OnlineSpeedupEstimator::Params online_params;
};

/** The price-theory power manager. */
class PpmGovernor : public sim::Governor
{
  public:
    explicit PpmGovernor(PpmGovernorConfig cfg);

    std::string name() const override { return "PPM"; }
    void init(sim::Simulation& sim) override;
    void tick(sim::Simulation& sim, SimTime now, SimTime dt) override;

    /** PPM acts only on bid-round edges. */
    SimTime next_wake(SimTime now) const override
    {
        (void)now;
        return next_bid_;
    }

    /** The underlying market (for inspection in tests/benches). */
    const Market& market() const { return *market_; }

    /** The LBT module (for inspection in tests/benches). */
    const LbtModule& lbt() const { return *lbt_; }

    /** The online estimator, or nullptr when disabled. */
    const OnlineSpeedupEstimator* online_estimator() const
    {
        return online_.get();
    }

    /** Effective bid period (after auto-derivation at init). */
    SimTime bid_period() const { return bid_period_; }

    /** Market watchdog interventions so far (0 on healthy runs). */
    long watchdog_trips() const { return watchdog_trips_; }

    /** Whether the sensor guard currently reports safe mode. */
    bool safe_mode() const { return guard_.safe_mode(); }

    /**
     * Retarget the market's TDP cap (fleet budget reallocation): the
     * buffer-zone floor follows via derive_w_th(), and the market
     * re-converges from its current prices at the next bid round.
     */
    void set_power_budget(Watts w_tdp) override;

    /**
     * Marginal utility of additional power: the unmet cluster demand
     * (with V-F headroom) of the last cleared round.  This is the
     * signal the chip agent's allowance update acts on, so it is
     * exactly what the fleet supervisor should price.
     */
    double power_deficit() const override;

    /**
     * Register a mid-run task with the market and the telemetry key
     * cache.  Requires offline speedup profiles (the online
     * estimator is sized at init and cannot grow).
     */
    void task_admitted(sim::Simulation& sim, TaskId id,
                       double big_speedup) override;

    void save(snap::Writer& w) const override;
    void load(snap::Reader& r) override;

    /**
     * Snapshot field list: the live economy -- the market (with every
     * incremental memo), the online estimator (when enabled),
     * residency windows, freeze-edge memory, bid timers, sensor guard
     * and watchdog state.  Requires init() + admission replay first
     * (see sim::Governor::save).
     */
    template <class A>
    void visit(A& a)
    {
        // set_power_budget() retargets both the governor's config copy
        // and the market; everything else in cfg_ is construction-time.
        a(cfg_.market.w_tdp, cfg_.market.w_th);
        PPM_ASSERT(market_ != nullptr, "PPM snapshot before init()");
        a(market_);
        // Written as a flag; a load reads the saved flag back over
        // `online` and insists it matches this run's mode.
        bool online = online_ != nullptr;
        a(online);
        PPM_ASSERT(online == (online_ != nullptr),
                   "snapshot mismatch: online-speedup mode differs");
        if (online_ != nullptr)
            a(online_);
        a.fixed(residency_, "PPM residency count "
                            "(admission replay incomplete?)");
        a(prev_freeze_, bid_period_, next_bid_, bid_count_, guard_,
          last_good_supplies_, watchdog_trips_);
    }

    /**
     * Reject admissions while the chip sits in the emergency state:
     * the market could not clear its existing load within the power
     * budget in the last round, so another buyer would only deepen
     * the deficit.
     */
    sim::AdmitReject admission_check() const override
    {
        return market_ != nullptr &&
                market_->state() == ChipState::kEmergency
            ? sim::AdmitReject::kEmergency
            : sim::AdmitReject::kNone;
    }

    /**
     * Cumulative incremental-clearing skip counters from the market.
     * Identical with `PpmConfig::incremental` on or off (the dirty
     * bookkeeping runs in both modes); only the work saved differs.
     */
    sim::ClearingStats clearing_stats() const override
    {
        return market_ != nullptr ? market_->clearing_stats()
                                  : sim::ClearingStats{};
    }

  private:
    /** Feed demands + power, run a market round, enact nice values. */
    void bid_round(sim::Simulation& sim, SimTime now);

    /** Emit the post-round market snapshot onto the telemetry bus. */
    void emit_telemetry(sim::Simulation& sim, SimTime now);

    /** Run the LBT module and enact at most one movement. */
    void lbt_round(sim::Simulation& sim, SimTime now, bool migration);

    /** Translate purchased supplies into per-core nice values. */
    void enact_nice(sim::Simulation& sim);

    /** Gate clusters without tasks; ungate (at min level) on demand. */
    void apply_power_gating(sim::Simulation& sim);

    /** Cross-core-type demand estimate for task `t` on cluster `v`. */
    Pu estimate_demand_on(TaskId t, ClusterId v) const;

    PpmGovernorConfig cfg_;
    std::unique_ptr<Market> market_;
    std::unique_ptr<LbtModule> lbt_;
    std::unique_ptr<OnlineSpeedupEstimator> online_;

    /** Per-task core-class residency, for gating online observations
     *  to windows that lie entirely on one class. */
    struct Residency {
        hw::CoreClass cls = hw::CoreClass::kLittle;
        SimTime since = 0;

        template <class A>
        void visit(A& a)
        {
            a(cls, since);
        }
    };
    std::vector<Residency> residency_;

    /** Snapshot round() fills while a telemetry sink is attached. */
    MarketTelemetry telemetry_;

    /** Previous freeze flags, for the bid-freeze-epoch counter. */
    std::vector<bool> prev_freeze_;

    // Reusable telemetry plumbing, built once at init so each bid
    // round's emission is allocation-free: the scratch event keeps its
    // field layout, the key strings cache the "taskN_bid"-style names
    // (stable c_str() pointers -- core/cluster key vectors never grow
    // after init, and the per-task keys live in a deque precisely so
    // mid-run admissions can append without moving existing strings,
    // whose c_str() pointers EventScratch compares by identity), and
    // the counters/histograms go through interned handles.
    metrics::EventScratch round_event_{"market_round"};
    std::deque<std::string> task_keys_;      ///< 5 keys per task id.
    std::vector<std::string> core_keys_;     ///< 3 keys per core id.
    std::vector<std::string> cluster_keys_;  ///< 3 keys per cluster id.
    metrics::SeriesId market_allowance_id_ = 0;
    metrics::SeriesId bid_freeze_id_ = 0;
    metrics::SeriesId allowance_clamps_id_ = 0;
    metrics::SeriesId tasks_skipped_id_ = 0;
    metrics::SeriesId cores_skipped_id_ = 0;
    metrics::SeriesId early_exit_id_ = 0;

    // Per-core / per-cluster scratch for enact_nice / power gating.
    std::vector<Pu> max_supply_scratch_;
    std::vector<unsigned char> cluster_has_tasks_;

    SimTime bid_period_ = 0;
    sim::Simulation* sim_ = nullptr;
    SimTime next_bid_ = 0;
    long bid_count_ = 0;

    // Degradation machinery (inert on clean runs: the guard passes
    // reads through verbatim and the watchdog never trips).
    fault::SensorGuard guard_;
    std::vector<Pu> last_good_supplies_;  ///< Last sane cleared round.
    long watchdog_trips_ = 0;
};

} // namespace ppm::market

#endif // PPM_MARKET_PPM_GOVERNOR_HH
