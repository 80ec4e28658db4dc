/**
 * @file
 * Top-level simulation harness: wires the chip model, the scheduler,
 * the sensor bank, a workload, and one governor, then advances
 * simulated time in fixed ticks while collecting metrics.
 */

#ifndef PPM_SIM_SIMULATION_HH
#define PPM_SIM_SIMULATION_HH

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "hw/migration.hh"
#include "hw/platform.hh"
#include "hw/power_model.hh"
#include "hw/sensors.hh"
#include "hw/thermal.hh"
#include "metrics/qos.hh"
#include "metrics/recorder.hh"
#include "metrics/telemetry.hh"
#include "sched/scheduler.hh"
#include "sim/governor.hh"
#include "workload/task.hh"

namespace ppm::sim {

/** Configuration of one simulation run. */
struct SimConfig {
    SimTime tick = kMillisecond;       ///< Simulation step.
    SimTime duration = 300 * kSecond;  ///< Total simulated time.
    SimTime warmup = 2 * kSecond;      ///< QoS accounting starts here.
    SimTime trace_period = kSecond;    ///< Trace sampling period (0 = off).
    bool trace = false;                ///< Record time series.
    Watts tdp_for_metrics = 1e9;       ///< TDP used for violation stats.

    /**
     * Macro-stepping time advance: between governor wake times (and
     * every other event edge: task arrivals/exits, phase boundaries,
     * trace samples, the run end), advance the platform in closed
     * form instead of polling every subsystem each tick.  Results are
     * bit-identical to per-tick execution -- the engine only skips
     * work it can prove is a no-op and replays the exact
     * floating-point operation sequences otherwise.  Disable to force
     * the historical tick-by-tick loop (e.g. to cross-check).
     */
    bool macro_step = true;

    /**
     * Explicit initial core per task (by task id).  Empty = place
     * round-robin across cluster 0's cores (the boot cluster).  Used
     * by the pinned-task experiments (paper Figures 7 and 8).
     */
    std::vector<CoreId> placement;

    /** Arrival/departure window of one task. */
    struct Lifetime {
        static constexpr SimTime kForever = 1LL << 60;
        SimTime arrival = 0;                  ///< Activation time.
        SimTime departure = kForever;         ///< Deactivation time.

        template <class A>
        void visit(A& a)
        {
            a(arrival, departure);
        }
    };

    /**
     * Per-task lifetimes (by task id).  Empty = every task runs for
     * the whole simulation.  A task outside its window holds no
     * run-queue slot and is excluded from QoS accounting.
     */
    std::vector<Lifetime> lifetimes;

    /**
     * Thermal parameters.  Empty nodes = derive a default: the
     * TC2 calibration for the 2-cluster chip, otherwise one node per
     * cluster sized so its power peak lands near 80 deg C.
     */
    hw::ThermalParams thermal;

    /**
     * Fault schedule.  Empty (the default) = perfect platform and an
     * untouched hot path; a non-empty plan instantiates the
     * FaultInjector, whose event edges bound the macro-stepping
     * engine so results stay bit-identical to per-tick execution.
     */
    fault::FaultPlan faults;
};

/**
 * Aggregate results of a run.
 *
 * Accounting windows: the QoS fractions (any_*_miss, task_below,
 * task_outside) exclude the warmup period, while energy and avg_power
 * cover the whole run including warmup (the chip burns that energy
 * regardless).  avg_power_post_warmup is the average over the same
 * window as the QoS fractions, for consumers that need the two
 * metrics on a consistent footing.
 */
struct RunSummary {
    std::string governor;        ///< Policy name.
    double any_below_miss = 0;   ///< Fig 4/6 metric: any-task miss fraction.
    double any_outside_miss = 0; ///< Any-task outside-range fraction.
    Watts avg_power = 0;         ///< Average chip power (Fig 5 metric),
                                 ///< whole run including warmup.
    Watts avg_power_post_warmup = 0; ///< Average chip power over the
                                 ///< QoS window (warmup excluded).
    Joules energy = 0;           ///< Total chip energy (whole run).
    long migrations = 0;         ///< Task migrations performed.
    long vf_transitions = 0;     ///< Cluster V-F level changes.
    double over_tdp_fraction = 0;///< Fraction of time above the TDP,
                                 ///< whole run *including* warmup
                                 ///< (kept for continuity with older
                                 ///< tables; prefer the post-warmup
                                 ///< field for QoS-comparable numbers).
    double over_tdp_post_warmup = 0; ///< Fraction of time above the
                                 ///< TDP over the QoS window (warmup
                                 ///< excluded, mirroring
                                 ///< avg_power_post_warmup).
    double peak_temp_c = 0;      ///< Hottest cluster temperature seen.
    long thermal_cycles = 0;     ///< Completed >=3 K thermal swings.
    std::vector<double> task_below;   ///< Per-task below-range fraction.
    std::vector<double> task_outside; ///< Per-task outside-range fraction.

    // Fault-injection accounting (all zero on clean runs).
    long faults_injected = 0;    ///< Fault windows activated.
    long sensor_fallbacks = 0;   ///< Reads served degraded/last-good.
    long fault_retries = 0;      ///< DVFS + migration retry attempts.
    long safe_mode_entries = 0;  ///< Governor safe-mode transitions.
    long watchdog_trips = 0;     ///< Market watchdog interventions.
    double safe_mode_seconds = 0;///< Total time spent in safe mode.
    double over_tdp_during_fault = 0; ///< Fraction of fault-active
                                 ///< time the chip spent above TDP.

    // Incremental-clearing accounting (all zero for governors without
    // a market).  The skip counts come from mode-invariant dirty-set
    // bookkeeping, so they are identical with incrementality on or
    // off -- a skip rate near zero on a steady workload flags a
    // silently-degraded active set (everything always dirty).
    long market_rounds = 0;          ///< Clearing rounds completed.
    long market_task_slots = 0;      ///< Task entries considered, total.
    long market_tasks_skipped = 0;   ///< ...replayed memoized results.
    long market_core_slots = 0;      ///< Core fold slots considered.
    long market_cores_skipped = 0;   ///< ...reused their fold results.
    long market_rounds_early_exit = 0; ///< Rounds with empty active set.

    /** How a field combines across runs (see fields()). */
    enum Merge {
        kShare,  ///< A fraction of the run's time.
        kPeak,   ///< An extreme over the run.
        kTotal,  ///< Any other number: a count, an amount or a power.
    };

    /**
     * The field list: calls f(merge, &RunSummary::x) for every field
     * but `governor`, in fingerprint order with the two per-task
     * vectors (shares, task by task) last.  Everything that reduces
     * or compares whole summaries walks it, so a field added here
     * reaches each of them:
     *  - across seeds (experiment::aggregate_summaries) shares and
     *    totals are means (longs sum, then divide and truncate), a
     *    peak is the max and the vectors are elementwise means;
     *  - across chips (fleet::Fleet::run) shares are unweighted means
     *    (every chip runs the same duration), totals are sums (the
     *    fleet draws the sum of its chips' power), a peak is the max
     *    and the vectors concatenate in chip order;
     *  - summary_fingerprint() renders each at full precision.
     */
    template <class F>
    static void fields(F&& f)
    {
        f(kShare, &RunSummary::any_below_miss);
        f(kShare, &RunSummary::any_outside_miss);
        f(kTotal, &RunSummary::avg_power);
        f(kTotal, &RunSummary::avg_power_post_warmup);
        f(kTotal, &RunSummary::energy);
        f(kTotal, &RunSummary::migrations);
        f(kTotal, &RunSummary::vf_transitions);
        f(kShare, &RunSummary::over_tdp_fraction);
        f(kShare, &RunSummary::over_tdp_post_warmup);
        f(kPeak, &RunSummary::peak_temp_c);
        f(kTotal, &RunSummary::thermal_cycles);
        f(kTotal, &RunSummary::faults_injected);
        f(kTotal, &RunSummary::sensor_fallbacks);
        f(kTotal, &RunSummary::fault_retries);
        f(kTotal, &RunSummary::safe_mode_entries);
        f(kTotal, &RunSummary::watchdog_trips);
        f(kTotal, &RunSummary::safe_mode_seconds);
        f(kShare, &RunSummary::over_tdp_during_fault);
        f(kTotal, &RunSummary::market_rounds);
        f(kTotal, &RunSummary::market_task_slots);
        f(kTotal, &RunSummary::market_tasks_skipped);
        f(kTotal, &RunSummary::market_core_slots);
        f(kTotal, &RunSummary::market_cores_skipped);
        f(kTotal, &RunSummary::market_rounds_early_exit);
        f(kShare, &RunSummary::task_below);
        f(kShare, &RunSummary::task_outside);
    }
};

/**
 * Full-precision rendering of a RunSummary: the governor name, then
 * every RunSummary::fields() entry, one number per line (doubles as
 * %.17g).  The comparison key of every differential (macro-vs-tick,
 * incremental, any --jobs, fleet, snapshot): two runs are equivalent
 * iff their fingerprints are byte-identical.
 */
std::string summary_fingerprint(const RunSummary& s);

/**
 * What the engine did, in plain counters: ticks and intervals per
 * advance path, replay intervals by the horizon cap that closed them,
 * slot-cache lookups and power vetoes.  A macro-stepped and a
 * per-tick run of the same scenario count differently by design, so
 * the counters are a side channel: they never enter RunSummary,
 * traces or snapshots, and a restored run starts them from zero.
 */
struct EngineStats {
    /**
     * The horizon cap that closed a replay interval.  When several
     * caps end it on the same tick, the first one listed is named.
     */
    enum Cap {
        kWake,      ///< Governor::next_wake().
        kLifetime,  ///< A task arrival or departure.
        kUnblock,   ///< A task's migration charge ends.
        kPhase,     ///< A multi-phase task reaches its phase edge.
        kTrace,     ///< The next trace sample is due.
        kFault,     ///< A fault-injector edge.
        kWarmup,    ///< The QoS warmup edge.
        kRunUntil,  ///< The run_until() stop time.
        kDuration,  ///< The end of the run.
        kNumCaps
    };

    long step_ticks = 0;      ///< Boundary step()s (one tick each).
    long bulk_intervals = 0;  ///< Intervals advanced at the fixed point.
    long bulk_ticks = 0;
    long span_intervals = 0;  ///< Intervals replayed by the span kernel.
    long span_ticks = 0;
    /** HRM-window samples on the span path, by how they were taken:
     *  in closed form (add_repeated's exact stretches) or one by one
     *  (a span's first samples and wherever no closed form was exact). */
    long span_window_closed = 0;
    long span_window_iterated = 0;
    long closed_by[kNumCaps] = {};  ///< Replay intervals by closing cap.
    long cache_hits = 0;    ///< Slot-cache lookups (every macro-stepped
    long cache_misses = 0;  ///< boundary tick and interval start; none
                            ///< per tick): reused / rebuilt.
    long power_vetoes = 0;  ///< Intervals refused by quiescent_at_power().
    /** Bulk intervals that ran past a governor wake under a rest grant
     *  (Simulation::rest_until_change()). */
    long rest_intervals = 0;
    /** Intervals refused because a rest grant was voided at their
     *  start while a governor wake fell inside them. */
    long rest_refused = 0;
};

/** Short name of a horizon cap: "wake", "lifetime", ... */
const char* horizon_cap_name(EngineStats::Cap cap);

/** One complete experiment instance. */
class Simulation
{
  public:
    /**
     * @param chip     Platform (moved in; owned by the simulation).
     * @param specs    Workload: one TaskSpec per task.
     * @param governor Policy under test (owned by the simulation).
     * @param config   Run parameters.
     *
     * Tasks are initially placed round-robin across the cores of
     * cluster 0 (the paper boots Linux on the LITTLE cluster).
     */
    Simulation(hw::Chip chip, const std::vector<workload::TaskSpec>& specs,
               std::unique_ptr<Governor> governor, SimConfig config);

    /** Run to completion and return the summary. */
    RunSummary run();

    /**
     * Advance until simulated time reaches `stop` (clamped to the
     * configured duration), leaving the run resumable: no counter
     * flush, no summary.  The fleet engine interleaves shards by
     * slicing each run into supervisor epochs; because every
     * macro-stepping cap is a minimum bound, adding the `stop`
     * horizon never changes which work runs -- a run split into any
     * sequence of run_until() calls is bit-identical to one run().
     */
    void run_until(SimTime stop);

    /**
     * Close out a run advanced via run_until(): emit the final
     * counters event, flush attached sinks, and return the summary.
     * run() is exactly run_until(duration) followed by finish().
     */
    RunSummary finish();

    /** Advance exactly one tick (for fine-grained tests). */
    void step();

    /**
     * Rest grant, called by a governor from tick() when the wake it
     * just ran requested nothing: its wakes are no-ops for as long as
     * the chip stays at rest, i.e. in the bulk steady state it was
     * granted in.  While the grant holds, a bulk interval runs past
     * the governor's wakes (quiescent_ticks() leaves out only the
     * wake cap); the governor catches its timers up when it next
     * ticks or saves.  The engine voids the grant at the first sign
     * of change: a slot-cache lookup, a boundary step's or an
     * interval's, that leaves no latched bulk verdict (a miss drops
     * it), or an interval that a power veto refuses.  Not state:
     * snapshots leave it out and load() drops it.
     */
    void rest_until_change() { rest_ = true; }

    /**
     * Admit one task mid-run (cross-chip placement at a fleet
     * admission epoch).  The task gets the next dense id, is placed
     * on `core` (kInvalidId = round-robin over the boot cluster, as
     * at construction), gets `life` as its lifetime window, and the
     * governor is notified via Governor::task_admitted() with
     * `big_speedup` (its big-cluster speedup for market governors).
     * If the run so far had no lifetime windows, implicit
     * whole-run windows are materialized for the existing tasks
     * first.  Returns the new task's id.
     */
    TaskId admit_task(const workload::TaskSpec& spec,
                      SimConfig::Lifetime life, double big_speedup,
                      CoreId core = kInvalidId);

    /**
     * Admission-controlled variant of admit_task(): consult the
     * governor (Governor::admission_check) first, and on rejection
     * count it on the bus and return kInvalidId.  The fleet
     * placement layer and external submitters go through this;
     * admit_task() remains the unconditional path (restores, tests).
     */
    TaskId try_admit_task(const workload::TaskSpec& spec,
                          SimConfig::Lifetime life, double big_speedup,
                          CoreId core = kInvalidId);

    /**
     * Retarget task `t`'s departure time (fleet evacuation: the task
     * leaves this chip at `departure` and its spec is re-admitted
     * elsewhere).  Materializes implicit whole-run lifetime windows
     * first, exactly like a mid-run admission does.
     */
    void set_task_departure(TaskId t, SimTime departure);

    /** Current simulated time. */
    SimTime now() const { return now_; }

    hw::Chip& chip() { return chip_; }
    const hw::Chip& chip() const { return chip_; }
    sched::Scheduler& scheduler() { return *scheduler_; }
    const sched::Scheduler& scheduler() const { return *scheduler_; }
    Governor& governor() { return *governor_; }
    const Governor& governor() const { return *governor_; }
    hw::SensorBank& sensors() { return sensors_; }
    const hw::SensorBank& sensors() const { return sensors_; }
    const hw::ThermalModel& thermal() const { return *thermal_; }
    metrics::TraceRecorder& recorder() { return recorder_; }
    const SimConfig& config() const { return config_; }

    /**
     * The telemetry bus.  `config.trace` attaches an in-memory sink
     * feeding `recorder()`; callers may attach further sinks (CSV,
     * JSONL) before run().  Governors emit their per-epoch telemetry
     * here; everything is zero-cost while no sink is attached.
     */
    metrics::TraceBus& bus() { return bus_; }
    const metrics::TraceBus& bus() const { return bus_; }

    /** All tasks (non-owning views, built once at construction). */
    const std::vector<workload::Task*>& tasks() { return task_views_; }

    /** Whether task `t` is inside its lifetime window right now. */
    bool task_alive(TaskId t) const;

    /** Count of V-F transitions observed so far. */
    long vf_transitions() const { return vf_transitions_; }

    /** Engine counters since construction or the last load(). */
    const EngineStats& engine_stats() const { return stats_; }

    /** The fault injector; null on clean runs. */
    fault::FaultInjector* fault_injector() { return injector_.get(); }
    const fault::FaultInjector* fault_injector() const
    {
        return injector_.get();
    }

    /**
     * The DVFS actuation port governors should route level changes
     * through; null on clean runs (change levels directly).
     */
    fault::DvfsPort* dvfs_port() { return injector_.get(); }

    /**
     * Request a cluster level change, honoring any active DVFS fault
     * (the request may land late or be retried).  On clean runs this
     * is exactly `chip().cluster(v).set_level(level)`.
     */
    void request_level(ClusterId v, int level);

    /**
     * Request a task migration, honoring any active migration fault
     * and core offlining.  Returns true iff the task moved now; on
     * clean runs this is exactly `scheduler().migrate(t, core, now)`.
     */
    bool request_migration(TaskId t, CoreId core, SimTime now);

    /** Build the summary from the metrics collected so far. */
    RunSummary summary() const;

    /**
     * Serialize the complete dynamic state between ticks.  The
     * archive records the mid-run admission log first, then every
     * subsystem; load() -- called on a freshly constructed Simulation
     * built from the same configuration -- runs the governor's init,
     * replays the admissions (so every container reaches its final
     * size through the same code path), then overwrites the dynamic
     * state.  A run saved at time T and restored into a new process
     * continues byte-identically to the uninterrupted run.
     */
    void save(snap::Writer& w) const;
    void load(snap::Reader& r);

    /** The snapshot field list behind save() and load(). */
    template <class A>
    void visit(A& a)
    {
        // 1. Admission replay.  init() runs first because the restored
        // initialized_ flag would keep step() from running it; then
        // admit_task() re-records each entry, so the log is rebuilt
        // identically for a later re-save.
        a(admit_log_);
        if constexpr (A::kLoading) {
            const std::vector<AdmittedTask> log = std::move(admit_log_);
            admit_log_.clear();
            if (!initialized_) {
                governor_->init(*this);
                initialized_ = true;
            }
            for (const AdmittedTask& t : log)
                admit_task(t.spec, t.life, t.big_speedup, t.core);
        }

        // 2. Dynamic state, leaf subsystems first; the governor goes
        // through its save()/load() virtuals.  The fault-plan flag is
        // written, and on load read back and checked against this run.
        a(chip_);
        a.fixed(owned_tasks_, "task count (same workload?)");
        a(scheduler_, sensors_, thermal_, qos_, recorder_, bus_);
        bool faulted = injector_ != nullptr;
        a(faulted);
        PPM_ASSERT(faulted == (injector_ != nullptr),
                   "snapshot mismatch: fault plan presence differs "
                   "(same --faults spec?)");
        if (injector_ != nullptr)
            a(injector_);
        a(governor_);

        // 3. Harness state.  A load may materialize the lifetime
        // windows: an admission or an evacuation gives a run that
        // started with implicit whole-run windows explicit ones.
        const std::size_t lives = config_.lifetimes.size();
        a(config_.lifetimes);
        PPM_ASSERT(config_.lifetimes.size() == lives ||
                       (lives == 0 &&
                        config_.lifetimes.size() == owned_tasks_.size()),
                   "snapshot mismatch: lifetime window count");
        a(last_levels_, over_tdp_, over_tdp_post_, over_tdp_fault_, now_,
          next_trace_, vf_transitions_, last_migrations_, warmup_energy_,
          warmup_end_, warmup_snapshotted_);
    }

  private:
    /** One mid-run admission, recorded for snapshot replay. */
    struct AdmittedTask {
        workload::TaskSpec spec;
        SimConfig::Lifetime life;
        double big_speedup = 0.0;
        CoreId core = kInvalidId;

        template <class A>
        void visit(A& a)
        {
            a(spec, life, big_speedup, core);
        }
    };

    /**
     * The power model at the scheduler's current utilizations: fills
     * power_scratch_ with each cluster's watts and returns their
     * cluster-order sum, the chip power the sensors will then read.
     */
    Watts evaluate_power();

    /**
     * The one platform update: `n` ticks from now() at power_scratch_
     * into the sensors (which then read that power), the thermal
     * nodes and the three TDP duty cycles.  step() calls it for its
     * tick and advance_quiescent() once for a whole interval.
     */
    void advance_platform(long n);

    /** Apply lifetime windows to the scheduler's active flags. */
    void apply_lifetimes();

    /**
     * The QoS lifetime mask at now() (task_alive() per task, in
     * alive_scratch_), or null when the run has no lifetime windows.
     */
    const std::vector<bool>* alive_mask();

    /**
     * The macro-stepped engine's one slot-cache lookup
     * (Scheduler::begin_replay() at now()), for a boundary step and
     * for an interval start: counts the hit or miss and voids a rest
     * grant that the lookup leaves without a latched bulk verdict.
     * @return true when it voided a grant.
     */
    bool look_up_slots();

    /** Sample traces if due. */
    void sample_traces();

    /** A quiescent interval: its length, the cap that closed it and
     *  the ticks to the governor's next wake (a rest grant leaves that
     *  cap out, so `ticks` may exceed `wake`). */
    struct Horizon {
        long ticks = 0;
        EngineStats::Cap cap = EngineStats::kDuration;
        long wake = 0;
    };

    /**
     * Number of ticks from now() during which every per-tick action
     * other than {scheduler advance, power/energy/thermal accounting,
     * QoS sampling} is provably a no-op: the governor sleeps until
     * its next wake time (or rests past it, see rest_until_change()),
     * no task arrives, departs, unblocks or crosses a phase boundary,
     * no trace sample is due and the warmup edge is not reached.  0 ticks when the next tick must run the
     * full step() path.
     */
    Horizon quiescent_ticks() const;

    /**
     * Advance the ticks of a quiescent interval (see
     * quiescent_ticks()) with bit-identical results to as many
     * step() calls: the scheduler's water-fill runs once, power is
     * computed once, and the interval takes one of two paths -- bulk,
     * when every load signal and HRM window sits at its
     * floating-point fixed point, or else the span kernel
     * (replay_span()).
     */
    void advance_quiescent(const Horizon& h);

    /**
     * The span path of advance_quiescent(): `n` ticks of exact
     * per-object recurrences, in blocks of kSpanBlock ticks whose
     * per-task hit masks feed one QosTracker::sample_span() each
     * (`qos` false before the warmup, where no tick is sampled).
     */
    void replay_span(long n, bool qos, const std::vector<bool>* mask);

    /** Ticks per QoS span block: one mask bit per tick. */
    static constexpr long kSpanBlock = SpanHits::kMaxTicks;

    hw::Chip chip_;
    std::vector<std::unique_ptr<workload::Task>> owned_tasks_;
    std::vector<workload::Task*> task_views_;  ///< Cached non-owning views.
    std::unique_ptr<sched::Scheduler> scheduler_;
    hw::SensorBank sensors_;
    std::unique_ptr<hw::ThermalModel> thermal_;
    std::unique_ptr<Governor> governor_;
    SimConfig config_;
    metrics::QosTracker qos_;
    metrics::TraceRecorder recorder_;
    metrics::TraceBus bus_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::vector<int> last_levels_;
    DutyCycle over_tdp_;
    DutyCycle over_tdp_post_;  ///< Same condition, QoS window only.
    DutyCycle over_tdp_fault_; ///< Same condition, fault-active time.
    SimTime now_ = 0;
    SimTime next_trace_ = 0;
    /** Extra macro-step horizon while inside run_until(). */
    SimTime stop_at_ = SimConfig::Lifetime::kForever;
    long vf_transitions_ = 0;
    long last_migrations_ = 0;  ///< For the migrations counter delta.
    bool initialized_ = false;
    std::vector<AdmittedTask> admit_log_;  ///< For snapshot replay.
    // Snapshot at the end of warmup, for avg_power_post_warmup.
    // Kept here (not via SensorBank::mark()) because governors own
    // the sensor bank's marking for their own control epochs.
    Joules warmup_energy_ = 0.0;
    SimTime warmup_end_ = 0;
    bool warmup_snapshotted_ = false;
    EngineStats stats_;  ///< Side channel; deliberately not in visit().
    bool rest_ = false;  ///< rest_until_change() grant; not in visit().

    // Interned trace handles, resolved once at construction so the
    // per-tick and per-sample paths never rebuild series names.
    metrics::SeriesId chip_power_id_ = 0;
    metrics::SeriesId migrations_id_ = 0;
    metrics::SeriesId admission_reject_id_ = 0;
    std::vector<metrics::SeriesId> cluster_mhz_ids_;
    std::vector<metrics::SeriesId> cluster_temp_ids_;
    std::vector<metrics::SeriesId> vf_step_ids_;
    std::vector<metrics::SeriesId> task_hr_ids_;       ///< "<name>_hr".
    std::vector<metrics::SeriesId> task_norm_hr_ids_;  ///< "<name>_norm_hr".

    // Reusable per-tick scratch (capacity kept across ticks).
    std::vector<Watts> power_scratch_;    ///< evaluate_power: per cluster.
    std::vector<double> util_scratch_;    ///< evaluate_power: per core.
    std::vector<bool> alive_scratch_;     ///< alive_mask(): lifetime mask.
    /** replay_span: one block's below/outside masks per task, indexed
     *  by task id; sized at construction and admit_task(). */
    std::vector<SpanHits> span_hits_;
};

} // namespace ppm::sim

#endif // PPM_SIM_SIMULATION_HH
