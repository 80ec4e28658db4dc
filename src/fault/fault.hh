/**
 * @file
 * Deterministic fault injection for the simulated platform.
 *
 * A FaultPlan is a schedule of fault windows compiled *before* the run
 * (all randomness is consumed at compile time from a seeded Rng), so a
 * given (spec, chip, duration) triple always produces the same faults.
 * The FaultInjector owns the plan at run time and sits between the
 * governors and the hardware:
 *
 *  - sensor faults   : reads are dropped, stuck at the last value,
 *                      perturbed by bounded Gaussian noise, or stale;
 *  - DVFS faults     : a level request fails (retry with backoff) or
 *                      lands a configurable delay late;
 *  - migration faults: a migration fails and is retried, or its
 *                      latency is multiplied;
 *  - platform events : a core goes offline temporarily (tasks are
 *                      evacuated) and is later restored.
 *
 * Determinism under macro-stepping: every fault edge (window start and
 * end, pending-action due time, core restoration time) is exposed via
 * next_edge() and bounds the event-horizon engine, and all runtime
 * "randomness" (sensor noise) is a stateless hash of (event salt,
 * cluster, time).  Macro-step and per-tick runs therefore see the
 * exact same injected values at the exact same ticks.
 */

#ifndef PPM_FAULT_FAULT_HH
#define PPM_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ppm::hw {
class Chip;
class SensorBank;
} // namespace ppm::hw

namespace ppm::sched {
class Scheduler;
} // namespace ppm::sched

namespace ppm::metrics {
class TraceBus;
} // namespace ppm::metrics

namespace ppm::fault {

/**
 * Abstract DVFS actuation port.  Governors and the market route level
 * changes through this interface so a FaultInjector (or any other
 * interposer) can defer, fail or retry them.  Header-only on purpose:
 * the market library depends on the interface, not on the injector.
 */
class DvfsPort
{
public:
    virtual ~DvfsPort() = default;

    /**
     * Request that `cluster` move to `level` (clamped to the table).
     * Returns true iff the hardware level changed *now*; deferred or
     * failed requests return false.
     */
    virtual bool request_level(ClusterId cluster, int level) = 0;

    /** Request a relative step, same contract as request_level(). */
    virtual bool request_step(ClusterId cluster, int delta) = 0;
};

/** One injectable fault class. */
enum class FaultKind {
    kSensorDrop,     ///< Read fails; consumer falls back to last-good.
    kSensorStuck,    ///< Read silently returns the last-good value.
    kSensorNoise,    ///< Read is perturbed by bounded Gaussian noise.
    kSensorStale,    ///< Read is served from an old timestamp.
    kDvfsFail,       ///< set_level fails; retried with backoff.
    kDvfsDelay,      ///< set_level lands `delay` late.
    kMigrationFail,  ///< Migration fails; retried with backoff.
    kMigrationSlow,  ///< Migration latency multiplied by `magnitude`.
    kCoreOffline,    ///< Core offlined for the window, then restored.
};

/** Stable lowercase name for specs, traces and test output. */
const char* fault_kind_name(FaultKind kind);

/** One scheduled fault window, active over [start, end). */
struct FaultEvent {
    FaultKind kind = FaultKind::kSensorDrop;
    SimTime start = 0;
    SimTime end = 0;
    /** Cluster id (sensor/DVFS), core id (offline); kInvalidId = all. */
    int target = kInvalidId;
    /** Noise sigma in watts, or migration latency multiplier. */
    double magnitude = 0.0;
    /** DVFS landing delay, or the age of a stale sensor sample. */
    SimTime delay = 0;
    /** Per-event salt for the stateless noise hash. */
    std::uint64_t salt = 0;
};

/**
 * User-facing fault configuration, parsed from `--faults <spec>`.
 * A spec is a comma-separated token list: class names enable fault
 * classes (`sensor`, `dvfs`, `migration`, `offline`, `all`) and
 * `key=value` pairs tune the knobs, e.g.
 * `seed=7,sensor,dvfs,rate=12,staleness_ms=100`.
 */
struct FaultSpec {
    std::uint64_t seed = 1;
    bool sensor = false;
    bool dvfs = false;
    bool migration = false;
    bool offline = false;
    /** Mean fault events per minute, per enabled class. */
    double rate_per_min = 6.0;
    /** Mean fault-window length. */
    SimTime mean_duration = 400 * kMillisecond;
    /** Sigma of injected Gaussian sensor noise (clamped to 3 sigma). */
    double noise_sigma_w = 0.5;
    /** How late a delayed DVFS request lands. */
    SimTime dvfs_delay = 8 * kMillisecond;
    /** Age of readings served by a stale-timestamp fault. */
    SimTime stale_age = 400 * kMillisecond;
    /** Staleness age beyond which governors enter safe mode. */
    SimTime staleness_bound = 250 * kMillisecond;
    /** Retry budget for failed DVFS/migration requests. */
    int max_retries = 4;
    /** Initial retry backoff (doubles per attempt). */
    SimTime retry_backoff = 4 * kMillisecond;

    // Fleet-scope (chip-level) fault classes, consumed by
    // FleetFaultPlan rather than the per-chip FaultPlan.
    bool chip_fail = false;     ///< Whole chips drop out of the fleet.
    bool chip_degrade = false;  ///< Chips get a clamped budget.
    bool chip_recover = false;  ///< Failed/degraded chips return.
    /** Mean chip-level fault events per minute, per enabled class. */
    double chip_rate_per_min = 2.0;
    /** Budget multiplier applied to a degraded chip, in (0, 1]. */
    double degrade_factor = 0.5;

    bool any() const { return sensor || dvfs || migration || offline; }

    /** Any chip-level class enabled (fleet fault handling engages). */
    bool any_fleet() const { return chip_fail || chip_degrade; }
};

/**
 * Parse a `--faults` spec into `*spec`.  Returns false and fills
 * `*error` with a one-line message on malformed input.
 */
bool parse_fault_spec(const std::string& text, FaultSpec* spec,
                      std::string* error);

/**
 * A compiled, immutable schedule of fault events (sorted by start
 * time) plus the degradation knobs the injector and guards consume.
 */
class FaultPlan
{
public:
    /**
     * Compile `spec` into a concrete schedule for a chip with
     * `num_clusters`/`num_cores` over `[0, duration)`.  All randomness
     * is drawn here, from Rng(spec.seed); event times land on the
     * `tick` grid so macro and per-tick runs agree exactly.
     */
    static FaultPlan compile(const FaultSpec& spec, int num_clusters,
                             int num_cores, SimTime duration,
                             SimTime tick = kMillisecond);

    /** Append one event (tests build plans by hand). */
    void add(const FaultEvent& ev);

    bool empty() const { return events_.empty(); }
    const std::vector<FaultEvent>& events() const { return events_; }

    /** Staleness age beyond which SensorGuard enters safe mode. */
    SimTime staleness_bound = 250 * kMillisecond;
    /** Retry budget for failed DVFS/migration requests. */
    int max_retries = 4;
    /** Initial retry backoff (doubles per attempt). */
    SimTime retry_backoff = 4 * kMillisecond;

private:
    std::vector<FaultEvent> events_;
};

/** One chip-level fault class (fleet scope). */
enum class FleetFaultKind {
    kChipFail,     ///< Chip withdrawn from settlement and placement.
    kChipDegrade,  ///< Chip budget clamped by `factor`.
    kChipRecover,  ///< Chip restored to healthy.
};

/** Stable lowercase name for specs, traces and test output. */
const char* fleet_fault_kind_name(FleetFaultKind kind);

/** One chip-level fault transition, applied at a settlement barrier. */
struct FleetFaultEvent {
    FleetFaultKind kind = FleetFaultKind::kChipFail;
    SimTime time = 0;       ///< Barrier tick the transition lands on.
    int chip = 0;           ///< Target chip index.
    double factor = 1.0;    ///< Budget multiplier (degrade only).
};

/**
 * A compiled, immutable schedule of chip-level fault transitions,
 * sorted by (time, chip).  Like FaultPlan, all randomness is consumed
 * at compile time; the runtime applies transitions as the fleet's
 * settlement barriers cross their timestamps, so macro-stepping and
 * restarts replay the identical sequence.
 */
class FleetFaultPlan
{
public:
    /**
     * Compile `spec` for a fleet of `num_chips` over `[0, duration)`.
     * Event times land on the `epoch` (settlement-barrier) grid.  The
     * Rng seed is decoupled from the per-chip FaultPlan stream by a
     * mix64 step, so enabling chip classes never perturbs the chips'
     * own fault schedules.  Without `chip_recover`, failures and
     * degradations are permanent; with it, each window is closed by a
     * recover transition.
     */
    static FleetFaultPlan compile(const FaultSpec& spec, int num_chips,
                                  SimTime duration, SimTime epoch);

    /** Append one transition (tests build plans by hand). */
    void add(const FleetFaultEvent& ev);

    bool empty() const { return events_.empty(); }
    const std::vector<FleetFaultEvent>& events() const
    {
        return events_;
    }

private:
    std::vector<FleetFaultEvent> events_;
};

/** Counters surfaced into RunSummary and onto the TraceBus. */
struct FaultStats {
    long injected = 0;           ///< Fault windows activated.
    long sensor_fallbacks = 0;   ///< Reads served degraded/last-good.
    long dvfs_deferred = 0;      ///< Level requests not applied now.
    long dvfs_retries = 0;       ///< Deferred-level retry attempts.
    long migration_retries = 0;  ///< Migration retry attempts.
    long dropped_actions = 0;    ///< Requests dropped after retries.
    long offline_events = 0;     ///< Cores actually taken offline.
    long safe_mode_entries = 0;  ///< Governor safe-mode transitions.
    long watchdog_trips = 0;     ///< Market watchdog interventions.
    SimTime safe_mode_time = 0;  ///< Total time spent in safe mode.

    template <class A>
    void visit(A& a)
    {
        a(injected, sensor_fallbacks, dvfs_deferred, dvfs_retries,
          migration_retries, dropped_actions, offline_events,
          safe_mode_entries, watchdog_trips, safe_mode_time);
    }
};

/**
 * Runtime fault machinery: applies the plan tick by tick, interposes
 * on DVFS and migration requests, and answers "is a fault active"
 * queries from the sensor guards.  Owned by the Simulation; absent
 * (null) on clean runs so the clean hot path is untouched.
 */
class FaultInjector final : public DvfsPort
{
public:
    /** Horizon sentinel: no more fault edges. */
    static constexpr SimTime kNoEdge = SimTime{1} << 60;

    FaultInjector(FaultPlan plan, hw::Chip* chip,
                  sched::Scheduler* sched, metrics::TraceBus* bus);

    /**
     * Advance to `now`: restore offline cores whose window ended,
     * activate newly started fault windows (offlining cores and
     * evacuating their tasks), and land or retry pending DVFS and
     * migration requests that have come due.  Called once per step,
     * before the governor runs.
     */
    void tick(SimTime now);

    /**
     * The next time (> now) at which injector state changes: a window
     * opens or closes, a pending action comes due, or a core returns.
     * Bounds the event-horizon engine; kNoEdge when nothing is left.
     */
    SimTime next_edge(SimTime now) const;

    /** Any fault window (of any class) contains `now`. */
    bool any_fault_active(SimTime now) const;

    /** Any *sensor* fault window contains `now`. */
    bool sensor_fault_active(SimTime now) const;

    /**
     * The first (by schedule order) active sensor fault that targets
     * cluster `cluster` (or all clusters); null when reads are clean.
     */
    const FaultEvent* active_sensor_event(ClusterId cluster,
                                          SimTime now) const;

    /**
     * Bounded Gaussian offset for a noise fault: a stateless hash of
     * (event salt, cluster, now) fed through Box-Muller and clamped
     * to +/-3 sigma.  Pure function of its inputs, so macro-step
     * replay cannot diverge from per-tick execution.
     */
    double noise_offset(const FaultEvent& ev, ClusterId cluster,
                        SimTime now) const;

    // DvfsPort: level requests, subject to DVFS fault windows.
    bool request_level(ClusterId cluster, int level) override;
    bool request_step(ClusterId cluster, int delta) override;

    /**
     * Request a migration of `task` to `core`.  Returns true iff the
     * migration was issued now; offline destinations are rejected and
     * fail-window requests are queued for retry (both return false).
     */
    bool request_migration(TaskId task, CoreId core, SimTime now);

    /** Latency multiplier from any active slow-migration fault. */
    double migration_cost_scale(SimTime now) const;

    const FaultPlan& plan() const { return plan_; }
    FaultStats& stats() { return stats_; }
    const FaultStats& stats() const { return stats_; }

    /** Count one degraded read on the bus (called by SensorGuard). */
    void count_sensor_fallback();
    /** Count one safe-mode entry on the bus (called by SensorGuard). */
    void count_safe_mode_entry();
    /** Count one watchdog trip on the bus (called by the market). */
    void count_watchdog_trip();

    /** Cursors and pending actions; the plan itself is recompiled. */
    template <class A>
    void visit(A& a)
    {
        a(stats_, now_, next_start_);
        a.fixed(pending_level_, "fault injector cluster count");
        a(pending_mig_, offline_until_);
    }

private:
    using SeriesIdOpaque = std::int32_t;

    struct PendingLevel {
        int level = 0;
        SimTime due = 0;
        int retries_left = 0;
        SimTime backoff = 0;
        bool from_fail = false;
        bool active = false;

        template <class A>
        void visit(A& a)
        {
            a(level, due, retries_left, backoff, from_fail, active);
        }
    };
    struct PendingMigration {
        TaskId task = kInvalidId;
        CoreId core = kInvalidId;
        SimTime due = 0;
        int retries_left = 0;
        SimTime backoff = 0;

        template <class A>
        void visit(A& a)
        {
            a(task, core, due, retries_left, backoff);
        }
    };

    const FaultEvent* active_dvfs_event(ClusterId cluster,
                                        SimTime now) const;
    const FaultEvent* active_migration_event(FaultKind kind,
                                             SimTime now) const;
    void begin_offline(const FaultEvent& ev, SimTime now);
    CoreId evacuation_target(CoreId from) const;
    void bump(SeriesIdOpaque id);

    FaultPlan plan_;
    hw::Chip* chip_;
    sched::Scheduler* sched_;
    metrics::TraceBus* bus_;
    FaultStats stats_;
    SimTime now_ = 0;
    std::size_t next_start_ = 0;
    std::vector<PendingLevel> pending_level_;    // Indexed by cluster.
    std::vector<PendingMigration> pending_mig_;
    std::vector<SimTime> offline_until_;         // Indexed by core; 0 = online.

    // Interned TraceBus counter ids (see fault.cc for the names).
    SeriesIdOpaque id_injected_ = -1;
    SeriesIdOpaque id_fallback_ = -1;
    SeriesIdOpaque id_deferred_ = -1;
    SeriesIdOpaque id_retry_ = -1;
    SeriesIdOpaque id_dropped_ = -1;
    SeriesIdOpaque id_offline_ = -1;
    SeriesIdOpaque id_safe_entry_ = -1;
    SeriesIdOpaque id_watchdog_ = -1;
};

/**
 * Last-good-value sensor fallback shared by all three governors.
 *
 * Every power read goes through the guard.  Clean reads refresh the
 * per-cluster last-good cache and carry age zero.  Degraded reads
 * (drop/stale) are served from the cache and contribute a staleness
 * age; when the worst age observed since the previous evaluation
 * exceeds the plan's staleness bound, the guard reports *safe mode*
 * and the governor clamps to the lowest V-F level and freezes policy
 * decisions until fresh readings return.  Stuck-at faults are served
 * from the cache too but are, by construction, undetectable: they add
 * no staleness age.  With a null injector every read is a verbatim
 * pass-through, bit-identical to the unguarded call.
 */
class SensorGuard
{
public:
    /** `injector` may be null (clean run: all reads pass through). */
    void init(int num_clusters, FaultInjector* injector);

    Watts read_average(const hw::SensorBank& bank, ClusterId cluster,
                       SimTime now);
    Watts read_instantaneous(const hw::SensorBank& bank,
                             ClusterId cluster, SimTime now);
    Watts read_chip_average(const hw::SensorBank& bank, SimTime now);
    Watts read_chip_instantaneous(const hw::SensorBank& bank,
                                  SimTime now);

    /**
     * Evaluate the safe-mode state from the reads since the previous
     * evaluation, and account the elapsed interval as safe-mode time
     * if the guard was already in safe mode.  Call once per decision
     * epoch, after the epoch's reads.
     */
    void update_safe_mode(SimTime now);

    /**
     * Install the per-cluster last-good values a run of clean
     * (fault-free) reads would have left behind, without touching
     * fault statistics or the staleness state.  Used by governors
     * that read every tick to replay a macro-stepped interval's
     * observations in bulk: across a quiescent interval every read
     * is clean (fault edges bound the interval), so the only state a
     * per-tick run accumulates is the final read's value per cluster.
     */
    void replay_clean_reads(const std::vector<Watts>& last_good);

    bool safe_mode() const { return safe_; }

    template <class A>
    void visit(A& a)
    {
        a(last_good_, bound_, worst_age_, last_eval_, safe_);
    }

private:
    Watts filter(Watts raw, ClusterId cluster, SimTime now);

    FaultInjector* injector_ = nullptr;
    std::vector<Watts> last_good_;
    SimTime bound_ = 250 * kMillisecond;
    SimTime worst_age_ = 0;
    SimTime last_eval_ = 0;
    bool safe_ = false;
};

} // namespace ppm::fault

#endif // PPM_FAULT_FAULT_HH
