/**
 * @file
 * Fleet-scale market federation: N independent per-chip economies
 * (each a full Simulation with its own Market-backed governor),
 * macro-stepped in parallel between supervisor epochs, with batched
 * cross-shard settlement at the epoch barriers.
 *
 * Execution model per epoch:
 *   1. every shard advances to the barrier via Simulation::run_until()
 *      -- fanned over a shared ThreadPool with for_chunks-style
 *      deterministic partitioning (chunk boundaries depend only on
 *      the chip count, never the worker count);
 *   2. at the barrier, the control thread gathers every chip's
 *      ChipSignal and the SupervisorMarket settles the fleet budget
 *      (one pass in chip-id order -- the only cross-shard reduction,
 *      so its floating-point association never varies);
 *   3. changed budgets are pushed down via Governor::set_power_budget
 *      (unchanged budgets are not re-applied, so a 1-chip fleet never
 *      touches its governor's exact configured thresholds);
 *   4. floating tasks whose arrival passed are admitted to the
 *      cheapest-price chip (ties -> lowest chip id);
 *   5. fleet.* telemetry is sampled onto the fleet bus in chip order.
 *
 * Determinism: shards are mutually independent between barriers and
 * everything at the barrier runs on the control thread in chip-id
 * order, so fleet output is byte-identical for every jobs value --
 * and a 1-chip fleet is bit-identical to calling Simulation::run()
 * directly (run_until() slicing provably changes nothing, and steps
 * 2-5 degenerate to pure observation).
 */

#ifndef PPM_FLEET_FLEET_HH
#define PPM_FLEET_FLEET_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "fleet/supervisor.hh"
#include "hw/platform.hh"
#include "metrics/telemetry.hh"
#include "sim/simulation.hh"
#include "workload/task.hh"

namespace ppm::fleet {

/** A task not pinned to any chip: placed by the supervisor at the
 *  first epoch barrier at or after its arrival. */
struct FloatingTask {
    workload::TaskSpec spec;

    /** Big-cluster speedup profile (0 = governor default). */
    double big_speedup = 0.0;

    /** Earliest admission time; actual admission happens at the
     *  first barrier >= arrival (tasks cannot land mid-epoch). */
    SimTime arrival = 0;

    /** Departure time (forever by default). */
    SimTime departure = sim::SimConfig::Lifetime::kForever;
};

/** Per-chip workload description. */
struct ChipWorkload {
    std::vector<workload::TaskSpec> specs;

    /** Optional per-task lifetimes (empty = whole run). */
    std::vector<sim::SimConfig::Lifetime> lifetimes;

    /** Optional explicit placement (empty = boot-cluster RR). */
    std::vector<CoreId> placement;
};

/** Configuration of a fleet run. */
struct FleetConfig {
    /** Number of chips (= shards). */
    int chips = 1;

    /** Supervisor epoch; must be a multiple of sim.tick. */
    SimTime epoch = 96 * kMillisecond;

    /** Supervisor market parameters (incl. the fleet TDP budget). */
    SupervisorConfig supervisor;

    /**
     * Per-chip SimConfig template.  placement/lifetimes inside it are
     * ignored (they come from `workloads`); everything else --
     * duration, tick, warmup, macro_step, trace, tdp_for_metrics,
     * faults -- applies to every shard.
     */
    sim::SimConfig sim;

    /** Platform factory, called once per chip id. */
    std::function<hw::Chip(int chip)> make_chip;

    /**
     * Governor factory: chip id plus the chip's initial power budget
     * (SupervisorMarket::initial_budget()).  The factory owns the
     * mapping from budget to governor thresholds, so tests can
     * reproduce an exact legacy configuration for chip 0.
     */
    std::function<std::unique_ptr<sim::Governor>(int chip, Watts budget)>
        make_governor;

    /** One workload per chip (size must equal `chips`). */
    std::vector<ChipWorkload> workloads;

    /** Fleet-placed tasks, admitted at epoch barriers. */
    std::vector<FloatingTask> floating;

    /**
     * Shard-stepping worker threads when no external pool is given:
     * 1 = inline (default), <= 0 = one per hardware thread.  Each
     * shard's market clears inline on the worker stepping the shard.
     */
    int jobs = 1;

    /** External shared pool (not owned; overrides `jobs`). */
    ThreadPool* pool = nullptr;

    /**
     * Chip-scope fault schedule (chip-fail / chip-degrade /
     * chip-recover), compiled onto the epoch grid so every event
     * lands exactly on a settlement barrier.  Empty (the default)
     * disables the fleet fault machinery entirely: settlement,
     * placement and telemetry take the exact code paths of a
     * fault-free build, so existing runs stay byte-identical.
     */
    fault::FleetFaultPlan fleet_faults;

    /**
     * Per-chip deficit watchdog: a chip reporting a positive clearing
     * deficit for this many consecutive epochs is marked degraded
     * (its budget clamped by `watchdog_clamp`) -- persistent deficit
     * is a health signal, the fleet analogue of the market watchdog.
     * 0 (default) disables the watchdog.
     */
    int deficit_watchdog_epochs = 0;

    /** Budget clamp applied when the deficit watchdog trips. */
    double watchdog_clamp = 0.9;

    /**
     * Bounded placement retries per evacuated task before it parks in
     * the pending queue until the next recovery (backoff doubles per
     * failed attempt, starting at one epoch).
     */
    int evac_max_retries = 8;
};

/** Aggregate outcome of a fleet run. */
struct FleetResult {
    /**
     * Fleet-level summary.  For a 1-chip fleet this is chip 0's
     * RunSummary verbatim; otherwise: QoS/over-TDP fractions are
     * unweighted means over chips (every chip's duration is the
     * same), energy/migrations/V-F transitions/fault counters are
     * sums, average powers are sums (the fleet draws the sum of its
     * chips), peak temperature is the max, and the per-task vectors
     * concatenate in chip order.
     */
    sim::RunSummary combined;

    /** Per-chip summaries, indexed by chip id. */
    std::vector<sim::RunSummary> per_chip;

    /** Per-chip budgets after the last settlement. */
    std::vector<Watts> final_budgets;

    /** Supervisor epochs executed. */
    long supervisor_epochs = 0;

    /** Floating tasks admitted. */
    long admitted = 0;

    /** Chip id each floating task landed on (-1 = never admitted,
     *  arrival past the run end). */
    std::vector<int> placements;

    // Fleet fault-tolerance accounting (all zero / empty on runs
    // without chip-scope faults).  Conservation invariant:
    // evacuations == evac_landed + evac_pending_end -- no task is
    // lost or duplicated by chip failure.
    long chip_failures = 0;     ///< chip-fail events applied.
    long chip_recoveries = 0;   ///< chip-recover events applied.
    long evacuations = 0;       ///< Tasks pulled off failed chips.
    long evac_landed = 0;       ///< ...re-admitted on survivors.
    long evac_pending_end = 0;  ///< ...still queued at run end.
    long rejections = 0;        ///< Typed admission rejections.
    long fleet_watchdog_trips = 0;  ///< Deficit-watchdog trips.
    bool all_chips_failed = false;  ///< Whole fleet was down at once.

    /** Final per-chip health (0 = ok, 1 = degraded, 2 = failed). */
    std::vector<int> final_health;
};

/** The federated multi-chip economy. */
class Fleet
{
  public:
    explicit Fleet(FleetConfig cfg);
    ~Fleet();

    /**
     * Advance every shard one supervisor epoch and settle.  Returns
     * true while the fleet has time left (false from the epoch that
     * reaches the configured duration onwards).  Exposed so the
     * benchmark can meter exactly one epoch.
     */
    bool run_epoch();

    /** Run to completion and aggregate. */
    FleetResult run();

    /** Shard (per-chip simulation) `i`. */
    sim::Simulation& shard(int i);

    /** Number of chips. */
    int chips() const { return static_cast<int>(shards_.size()); }

    /** Current fleet time (last completed barrier). */
    SimTime now() const { return now_; }

    /**
     * The fleet-level telemetry bus, carrying the interned fleet.*
     * series sampled at every barrier: per chip
     * fleet.chip<i>.{power_w,budget_w,price,deficit} and fleet-wide
     * fleet.{power_w,budget_w}, plus the fleet.admitted counter.
     * Attach sinks before run().  Distinct from the per-shard buses
     * (shard(i).bus()), which carry the usual single-chip series.
     */
    metrics::TraceBus& bus() { return bus_; }

    /** The supervisor market (for inspection). */
    const SupervisorMarket& supervisor() const { return supervisor_; }

    /** Per-chip health (0 = ok, 1 = degraded, 2 = failed). */
    int chip_health(int i) const
    {
        return static_cast<int>(health_[static_cast<std::size_t>(i)]);
    }

    /** Evacuations still waiting for a chip that can take them. */
    long pending_evacuations() const
    {
        return static_cast<long>(pending_evac_.size());
    }

    /**
     * Serialize the complete fleet state between epochs: supervisor,
     * budgets, placements, health, the pending-evacuation queue, the
     * fleet bus, and every shard (each via Simulation::save).  load()
     * mirrors Simulation::load: call it on a freshly constructed
     * Fleet built from the same configuration; the restored fleet
     * continues byte-identically to the uninterrupted run.
     */
    void save(snap::Writer& w) const;
    void load(snap::Reader& r);

  private:
    /** One evacuated (or retrying) task awaiting placement. */
    struct PendingEvac {
        long seq = 0;           ///< Global drain order (FIFO).
        workload::TaskSpec spec;
        double big_speedup = 0.0;
        SimTime departure = sim::SimConfig::Lifetime::kForever;
        int retries_left = 0;
        SimTime next_try = 0;   ///< Barrier time of the next attempt.
        SimTime backoff = 0;    ///< Doubles per failed attempt.
    };

    /** What the fleet knows about a task it placed on a chip (enough
     *  to re-admit it elsewhere on evacuation). */
    struct RosterEntry {
        workload::TaskSpec spec;
        double big_speedup = 0.0;
    };

    /** Gather signals, settle, retarget budgets (chip-id order). */
    void settle_barrier();

    /** Admit due floating tasks to the cheapest chips. */
    void admit_floating();

    /** Sample the fleet.* series at the current barrier. */
    void sample_barrier();

    /** Apply due chip-fail/degrade/recover events (barrier time). */
    void apply_fleet_faults();

    /** Pull every live task off newly failed chip `i` into the
     *  pending queue (task-id order). */
    void evacuate_chip(std::size_t i);

    /** Update per-chip deficit streaks; trip the watchdog. */
    void run_deficit_watchdog();

    /** Try to place due pending evacuations (seq order). */
    void drain_pending();

    /** Admit `spec` on the cheapest active chip; kInvalidId target
     *  chip in `*chip_out` when nothing could take it. */
    bool place_task(const workload::TaskSpec& spec, double big_speedup,
                    SimTime departure, int* chip_out);

    FleetConfig cfg_;
    SupervisorMarket supervisor_;
    std::vector<std::unique_ptr<sim::Simulation>> shards_;
    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool* pool_ = nullptr;  ///< Null = step shards inline.
    metrics::TraceBus bus_;

    /** Last budget pushed to each governor; settlements that do not
     *  move a chip's budget are not re-applied. */
    std::vector<Watts> budgets_;
    std::vector<ChipSignal> signals_;   ///< Barrier gather scratch.
    std::vector<int> placements_;       ///< Per floating task; -1 = not yet.
    SimTime now_ = 0;
    SimTime next_barrier_ = 0;
    long admitted_ = 0;
    bool done_ = false;

    // Fleet fault-tolerance runtime.  fault_handling_ latches at
    // construction (non-empty plan or watchdog enabled); when false,
    // every barrier takes the exact legacy code path.
    bool fault_handling_ = false;
    std::size_t next_fleet_event_ = 0;  ///< Cursor into the plan.
    std::vector<unsigned char> health_; ///< 0 ok / 1 degraded / 2 failed.
    std::vector<double> clamp_;         ///< Budget clamp (1.0 = none).
    std::vector<int> deficit_streak_;   ///< Consecutive deficit epochs.
    std::vector<std::vector<RosterEntry>> roster_;  ///< Per chip, by task id.
    std::vector<PendingEvac> pending_evac_;  ///< Sorted by seq.
    long evac_seq_ = 0;
    long chip_failures_ = 0;
    long chip_recoveries_ = 0;
    long evacuations_ = 0;
    long evac_landed_ = 0;
    long rejections_ = 0;
    long fleet_watchdog_trips_ = 0;
    bool all_failed_seen_ = false;
    std::vector<unsigned char> active_scratch_;  ///< health != failed.

    // Interned fleet.* handles (resolved at construction).
    std::vector<metrics::SeriesId> chip_power_ids_;
    std::vector<metrics::SeriesId> chip_budget_ids_;
    std::vector<metrics::SeriesId> chip_price_ids_;
    std::vector<metrics::SeriesId> chip_deficit_ids_;
    std::vector<metrics::SeriesId> chip_state_ids_;
    metrics::SeriesId fleet_power_id_ = 0;
    metrics::SeriesId fleet_budget_id_ = 0;
    metrics::SeriesId admitted_id_ = 0;
    metrics::SeriesId evacuations_id_ = 0;
    metrics::SeriesId evac_landed_id_ = 0;
    metrics::SeriesId evac_pending_id_ = 0;
    metrics::SeriesId rejections_id_ = 0;
    metrics::SeriesId chip_failures_id_ = 0;
    metrics::SeriesId chip_recoveries_id_ = 0;
    metrics::SeriesId watchdog_id_ = 0;
};

} // namespace ppm::fleet

#endif // PPM_FLEET_FLEET_HH
