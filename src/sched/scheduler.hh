/**
 * @file
 * Epoch-based proportional-share scheduler modelling the Linux fair
 * scheduler at the granularity a power manager observes.
 *
 * Each tick, every core's cycle capacity (its cluster's supply) is
 * divided among the runnable tasks mapped to it in proportion to
 * their CFS nice weights, with water-filling so that self-pacing
 * tasks return unused share.  Task migration is performed through a
 * sched_setaffinity-like call and charged the hardware migration
 * latency (the task is blocked for that long).  The scheduler also
 * maintains the per-entity load signals that the HL baseline and the
 * ondemand governor consume.
 */

#ifndef PPM_SCHED_SCHEDULER_HH
#define PPM_SCHED_SCHEDULER_HH

#include <vector>

#include "common/types.hh"
#include "hw/migration.hh"
#include "hw/platform.hh"
#include "workload/task.hh"

namespace ppm::sched {

/** Default Linux scheduling epoch used by the paper (10 ms). */
inline constexpr SimTime kLinuxSchedEpoch = 10 * kMillisecond;

/** Scheduler for one chip; owns task placement and time sharing. */
class Scheduler
{
  public:
    /**
     * @param chip      Platform topology (not owned; must outlive).
     * @param migration Migration-latency model.
     */
    Scheduler(hw::Chip* chip, hw::MigrationModel migration);

    /** Register a task and place it on `core`.  No migration charge. */
    void add_task(workload::Task* task, CoreId core);

    /** Number of registered tasks. */
    int num_tasks() const { return static_cast<int>(entries_.size()); }

    /** The task object with id `t`. */
    workload::Task& task(TaskId t);
    const workload::Task& task(TaskId t) const;

    /** Core the task currently runs on. */
    CoreId core_of(TaskId t) const;

    /**
     * Active tasks currently mapped to `core`, in ascending id order.
     * The list is kept current by add_task(), migrate() and
     * set_active(), so a caller that migrates must read what it needs
     * before the move (or copy the list first).
     */
    const std::vector<TaskId>& tasks_on(CoreId core) const;

    /**
     * The online core of cluster `v` with the fewest tasks (the
     * lowest id on a tie), or kInvalidId when none is online.
     */
    CoreId least_loaded_core(ClusterId v) const;

    /**
     * Move task `t` to `core` (sched_setaffinity).  Charges the
     * migration latency: the task receives no cycles until the
     * penalty elapses.  No-op if already there.  `cost_scale`
     * multiplies the charged latency (slow-migration faults).
     * @return the charged latency.
     */
    SimTime migrate(TaskId t, CoreId core, SimTime now,
                    double cost_scale = 1.0);

    /** Set the task's nice value (clamped to [-20, 19]). */
    void set_nice(TaskId t, int nice);

    /** Current nice value of the task. */
    int nice_of(TaskId t) const;

    /**
     * Activate or deactivate a task (fork/exit).  An inactive task
     * holds no run-queue slot: it receives no cycles, is invisible to
     * tasks_on(), and its load signals decay.
     */
    void set_active(TaskId t, bool active);

    /** Whether the task currently participates in scheduling. */
    bool active(TaskId t) const;

    /**
     * The per-tick reference: run one scheduling tick over
     * [now, now+dt) -- water-fill every core, advance all tasks,
     * update load signals.  It never reads or writes replay state, so
     * a scheduler is stepped either by tick() alone or by
     * begin_replay() + replay_tick() alone.
     */
    void tick(SimTime now, SimTime dt);

    /**
     * The slot-cache lookup of a tick or a quiescent interval
     * starting at `now`.  On a miss it runs the water-fill once,
     * publishes the observables tick() would (core utilizations and
     * each task's last supply), and caches the per-task beats, supply
     * and runnable fraction.  The cache stays exact while placements,
     * nice values, activity, blocked states, phases and cluster
     * supplies stay unchanged -- under those conditions tick() would
     * recompute exactly these values every tick, so replay_tick() can
     * reuse them bit-for-bit.  Every miss rebuilds, so the cache
     * always holds the latest water-fill and the observables belong
     * to it on a hit.
     * @return true when the cached plan was still exact (a hit),
     *         false when the water-fill ran.
     */
    bool begin_replay(SimTime now, SimTime dt);

    /**
     * One tick of the prepared replay: advances tasks and load EWMAs
     * with the cached grants.  Bit-identical to tick(now, dt) within
     * the quiescent interval established by begin_replay().
     */
    void replay_tick(SimTime now, SimTime dt);

    /**
     * True when further replay ticks are floating-point fixed points
     * for all load signals and HRM windows, so replay_bulk() may be
     * substituted for per-tick replay with bit-identical results.
     * The verdict is cached: while begin_replay() keeps hitting, a
     * steady state provably persists, so the fixed points are only
     * re-verified after a cache miss.
     */
    bool replay_bulk_ready(SimTime now, SimTime dt) const;

    /**
     * Whether a bulk verdict is latched.  It always belongs to the
     * current slot cache: a begin_replay() miss drops it.
     */
    bool bulk_latched() const { return replay_steady_hold_; }

    /** Apply `n` replay ticks at once (after replay_bulk_ready()). */
    void replay_bulk(long n, SimTime dt);

    /**
     * `n` replay_tick() calls from `now` at once, bit for bit: each
     * slot's task runs Task::replay_span, then the load EWMAs take
     * their n updates (replay_ewma_bulk).  When `hits` is not null,
     * hits[t] gets task t's below/outside bits, one per tick's end;
     * entries of tasks without a slot (inactive ones) are left
     * untouched.
     * @return the HRM window samples replayed one by one.
     */
    long replay_span(long n, SimTime now, SimTime dt, SpanHits* hits);

    /** Replay slots of the current plan: one per active task. */
    std::size_t replay_slot_count() const { return replay_slots_.size(); }

    /** Time before which the task receives no cycles (migration). */
    SimTime blocked_until(TaskId t) const { return entry(t).blocked_until; }

    /** Busy fraction of `core` during the last tick, in [0, 1]. */
    double core_utilization(CoreId core) const;

    /**
     * PELT-like runnable fraction of the task (EWMA, ~100 ms time
     * constant).  CPU-bound tasks saturate at 1; self-pacing or
     * blocked tasks decay.  Consumed by the HL baseline.
     */
    double task_load(TaskId t) const;

    /** Supply in PU the task received during the last tick. */
    Pu task_supply_last(TaskId t) const;

    /** Number of migrations performed so far. */
    long migrations() const { return migrations_; }

    /**
     * Invalidate the replay cache after a topology change the cached
     * water-fill cannot see (core hot-plug: cluster supplies are
     * unchanged but a core's capacity went to zero or came back).
     */
    void notify_topology_changed() { replay_cache_valid_ = false; }

    const hw::Chip& chip() const { return *chip_; }
    const hw::MigrationModel& migration_model() const { return migration_; }

    /**
     * Per-entry dynamic state plus core utilizations.  The replay
     * cache is deliberately not serialized: a load invalidates it,
     * and the hit and miss paths are bit-identical by contract, so a
     * restored run's first begin_replay() miss recomputes the same
     * grants the uninterrupted run would have reused.
     */
    template <class A>
    void visit(A& a)
    {
        a.fixed(entries_, "scheduler entry count differs "
                          "(admission replay incomplete?)");
        a(core_util_, migrations_);
        if constexpr (A::kLoading) {
            rebuild_core_lists();
            replay_cache_valid_ = false;
            replay_steady_hold_ = false;
        }
    }

  private:
    struct Entry {
        workload::Task* task = nullptr;
        CoreId core = kInvalidId;
        int nice = 0;
        double weight = 0.0;
        bool active = true;
        SimTime blocked_until = 0;
        double load_ewma = 0.0;
        Pu supply_last = 0.0;

        template <class A>
        void visit(A& a)
        {
            a(core, nice, weight, active, blocked_until, load_ewma,
              supply_last);
        }
    };

    /** Cached per-task values of one tick of a quiescent interval. */
    struct ReplaySlot {
        workload::Task* task = nullptr;
        std::size_t entry = 0;     ///< Index into entries_.
        double beats = 0.0;        ///< Heartbeats emitted per tick.
        double supplied = 0.0;     ///< PU-seconds supplied per tick.
        double runnable_frac = 0.0;
        int phase_idx = 0;         ///< Task phase at cache time.
    };

    /**
     * True when the slots cached by the previous begin_replay() are
     * still exact for an interval starting now: no placement / nice /
     * activity mutation since (replay_cache_valid_), same tick, every
     * active task already unblocked at cache time (blocked_until only
     * grows through migrate(), which invalidates), identical cluster
     * supplies (covers both V-F level and power gating) and identical
     * task phases.  Under those conditions the water-fill inputs are
     * bit-identical, so the cached grants are too.
     */
    bool replay_cache_reusable(SimTime dt) const;

    Entry& entry(TaskId t);
    const Entry& entry(TaskId t) const;

    /** Insert `t` into / erase it from core_tasks_[core], keeping
     *  the list sorted. */
    void list_insert(CoreId core, TaskId t);
    void list_erase(CoreId core, TaskId t);

    /** Derive every core's task list from the entries (after a load). */
    void rebuild_core_lists();

    /**
     * The load EWMA updates of `n` replay ticks, nothing else.
     * Each entry's update sequence is exactly the per-tick one; the
     * independent per-entry chains run in lockstep for throughput.
     */
    void replay_ewma_bulk(long n);

    /**
     * Key load_weight_ on `dt`: tick() and begin_replay() call it, so
     * distribute() and the replay paths read the weight of their dt.
     */
    void use_dt(SimTime dt);

    /** Water-filling split of `capacity` cycles among `ids` on `core`. */
    void distribute(CoreId core, const std::vector<TaskId>& ids,
                    SimTime now, SimTime dt);

    /**
     * The water-fill proper: partition `ids` into runnable/blocked at
     * `now` and fill granted_ with each task's cycle grant.
     * @return the core's cycle capacity for the tick.
     */
    Cycles fill_granted(CoreId core, const std::vector<TaskId>& ids,
                        SimTime now, SimTime dt);

    hw::Chip* chip_;
    hw::MigrationModel migration_;
    std::vector<Entry> entries_;
    std::vector<double> core_util_;
    long migrations_ = 0;

    /** Active task ids per core, ascending (see tasks_on()); each list
     *  has room for every task, so keeping them current never
     *  allocates. */
    std::vector<std::vector<TaskId>> core_tasks_;

    // Reusable per-tick scratch (sized once, cleared per use) so the
    // steady-state tick allocates nothing.  The index vectors drive
    // the water-filling loop with positions into the current core's
    // id list, replacing the O(n^2) std::find of the id-keyed
    // formulation.
    std::vector<Cycles> granted_;
    std::vector<std::size_t> active_idx_;
    std::vector<std::size_t> hungry_idx_;
    // Flat SoA columns of the current core's water-fill inputs,
    // gathered once per fill_granted() call (see the comment there);
    // distribute()/begin_replay() reuse wf_want_ for the runnable
    // fraction instead of re-querying the task.
    std::vector<double> wf_weight_;
    std::vector<Cycles> wf_want_;

    // The load EWMA's weight 1 - exp(-dt/tau), computed once per dt
    // (use_dt()); derived, so the archive leaves it out.
    double load_weight_ = 0.0;
    SimTime load_weight_dt_ = 0;

    // Replay state (begin_replay / replay_tick / replay_bulk).
    std::vector<ReplaySlot> replay_slots_;
    bool replay_cache_valid_ = false;
    bool replay_all_unblocked_ = false;
    SimTime replay_dt_ = 0;
    std::vector<Pu> replay_supplies_;
    mutable bool replay_steady_hold_ = false;  ///< Cached bulk verdict.
};

} // namespace ppm::sched

#endif // PPM_SCHED_SCHEDULER_HH
