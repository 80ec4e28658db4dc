/**
 * @file
 * Fleet-scale market federation: N independent per-chip economies
 * (each a full Simulation with its own Market-backed governor),
 * macro-stepped in parallel between supervisor epochs, with batched
 * cross-shard settlement at the epoch barriers.
 *
 * Execution model per epoch:
 *   1. every shard advances to the barrier via Simulation::run_until()
 *      -- one ThreadPool::for_chunks() job of one shard per chunk,
 *      which the control thread and the pool's workers claim in
 *      chip-id order (the pool's workers stay alive between epochs,
 *      so a job costs no allocation and, while they still poll, no
 *      wake-up);
 *   2. at the barrier, the control thread applies the chip-scope
 *      faults due now (a failed chip's live tasks join the
 *      evacuation queue);
 *   3. it gathers every chip's ChipSignal and the SupervisorMarket
 *      settles the fleet budget over the chips that have not failed,
 *      clamping degraded ones (one pass in chip-id order -- the only
 *      cross-shard reduction, so its floating-point association
 *      never varies);
 *   4. changed budgets are pushed down via Governor::set_power_budget
 *      (unchanged budgets are not re-applied, so a 1-chip fleet never
 *      touches its governor's exact configured thresholds);
 *   5. due evacuations, then floating tasks whose arrival passed, are
 *      placed on the cheapest healthy chip (ties -> lowest chip id)
 *      through its admission check; a rejected task waits for a
 *      later barrier;
 *   6. fleet.* telemetry is sampled onto the fleet bus in chip order.
 *
 * Every barrier runs these six steps; without a fault plan steps 2
 * and 5's evacuations find nothing to do.
 *
 * Determinism: shards are mutually independent between barriers and
 * everything at the barrier runs on the control thread in chip-id
 * order, so fleet output is byte-identical for every jobs value --
 * and a 1-chip fleet is bit-identical to calling Simulation::run()
 * directly (run_until() slicing provably changes nothing, and
 * without faults or floating tasks steps 2-6 degenerate to pure
 * observation).
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
 *  first epoch barrier at or after its arrival whose cheapest healthy
 *  chip passes its admission check. */
struct FloatingTask {
    workload::TaskSpec spec;

    /** Big-cluster speedup profile (0 = governor default). */
    double big_speedup = 0.0;

    /** Earliest admission time; actual admission happens at a
     *  barrier >= arrival (tasks cannot land mid-epoch). */
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
     * Shard-stepping threads when no external pool is given, the
     * control thread included: 1 = inline (default), N > 1 = an owned
     * pool of N - 1 workers plus the control thread, <= 0 = one per
     * hardware thread.  Each shard's market clears inline on the
     * thread stepping the shard.
     */
    int jobs = 1;

    /** External shared pool (not owned; overrides `jobs`).  The
     *  control thread steps shards too, so a pool of W workers steps
     *  them on W + 1 threads. */
    ThreadPool* pool = nullptr;

    /**
     * Chip-scope fault schedule (chip-fail / chip-degrade /
     * chip-recover), compiled onto the epoch grid so every event
     * lands exactly on a settlement barrier.  Every barrier runs the
     * same health-aware path whatever the plan; with an empty plan
     * (the default) no chip ever leaves health, so the masked
     * settlement runs the unmasked arithmetic bit for bit, and the
     * per-chip health series are not sampled -- fault-free runs keep
     * their bytes.
     */
    fault::FleetFaultPlan fleet_faults;
};

/** Aggregate outcome of a fleet run. */
struct FleetResult {
    /**
     * Fleet-level summary.  For a 1-chip fleet this is chip 0's
     * RunSummary verbatim; otherwise each field combines across chips
     * as sim::RunSummary::fields() says.
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

    /** Chip id each floating task landed on (-1 = never admitted:
     *  arrival past the run end, or rejected at every barrier). */
    std::vector<int> placements;

    // Fleet fault-tolerance accounting (zero on runs without
    // chip-scope faults, except rejections, which also counts
    // floating tasks turned away).  Conservation invariant:
    // evacuations == evac_landed + evac_pending_end -- no task is
    // lost or duplicated by chip failure.
    long chip_failures = 0;     ///< chip-fail events applied.
    long chip_recoveries = 0;   ///< chip-recover events applied.
    long evacuations = 0;       ///< Tasks pulled off failed chips.
    long evac_landed = 0;       ///< ...re-admitted on survivors.
    long evac_pending_end = 0;  ///< ...still queued at run end.
    long rejections = 0;        ///< Placements turned away.
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

    /** The snapshot field list behind save() and load(). */
    template <class A>
    void visit(A& a)
    {
        a(supervisor_, budgets_, placements_, now_, next_barrier_,
          admitted_, done_);
        // Fault-tolerance runtime.  The fleet fault plan is recompiled
        // from the same spec/seed/epoch, so only its cursor travels.
        a(next_fleet_event_, health_, clamp_);
        a.fixed(roster_, "fleet chip count differs");
        a(pending_evac_, evac_seq_, chip_failures_, chip_recoveries_,
          evacuations_, evac_landed_, rejections_, all_failed_seen_, bus_);
        a.fixed(shards_, "shard count differs");
    }

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

        template <class A>
        void visit(A& a)
        {
            a(seq, spec, big_speedup, departure, retries_left, next_try,
              backoff);
        }
    };

    /** What the fleet knows about a task it placed on a chip (enough
     *  to re-admit it elsewhere on evacuation). */
    struct RosterEntry {
        workload::TaskSpec spec;
        double big_speedup = 0.0;

        template <class A>
        void visit(A& a)
        {
            a(spec, big_speedup);
        }
    };

    /** Gather signals, settle, retarget budgets (chip-id order). */
    void settle_barrier();

    /** Place due floating tasks (place_task); a rejected one stays
     *  floating and retries at the next barrier. */
    void admit_floating();

    /** Sample the fleet.* series at the current barrier. */
    void sample_barrier();

    /** Apply due chip-fail/degrade/recover events (barrier time). */
    void apply_fleet_faults();

    /** Pull every live task off newly failed chip `i` into the
     *  pending queue (task-id order). */
    void evacuate_chip(std::size_t i);

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

    // Fleet fault-tolerance runtime.
    std::size_t next_fleet_event_ = 0;  ///< Cursor into the plan.
    std::vector<unsigned char> health_; ///< 0 ok / 1 degraded / 2 failed.
    std::vector<double> clamp_;         ///< Budget clamp (1.0 = none).
    std::vector<std::vector<RosterEntry>> roster_;  ///< Per chip, by task id.
    std::vector<PendingEvac> pending_evac_;  ///< Sorted by seq.
    long evac_seq_ = 0;
    long chip_failures_ = 0;
    long chip_recoveries_ = 0;
    long evacuations_ = 0;
    long evac_landed_ = 0;
    long rejections_ = 0;
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
};

} // namespace ppm::fleet

#endif // PPM_FLEET_FLEET_HH
